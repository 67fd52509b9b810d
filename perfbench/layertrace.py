"""Per-layer tracing from outside the program.

`LayerTracer.install()` wraps the public functions of each artquot module
and a few methods, and rebinds every module attribute that refers to a
wrapped function, so names re-imported elsewhere (`kernel` in `quotient`
and `inverse`, `classify` in `cli` and `suites`, ...) are traced too.
`uninstall()` puts the originals back.  Nothing under src/ is edited and
CLI stdout is unchanged.

For each wrapped function the tracer keeps calls, inclusive seconds and
self seconds (inclusive minus the time in traced callees and their
tracing hooks), plus exact counts measured at the call boundary: rows,
cells and the largest numerator/denominator bit length of every `rref`,
multiplications of every dense `mat_mul`, chain exponents of the torsion
and completion functors, upsets found by the brute-force scan, and
sampler draws accepted.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("linalg", "quotient", "inverse", "reduced", "radical", "torsion",
           "diagram", "instances", "suites", "cli")
# ring holds the parser and many tiny exponent helpers called millions of
# times; only its entry points are traced.
RING_FUNCTIONS = ("parse_input", "parse_polynomial_list", "render", "minimalize")
METHODS = (("quotient", "QuotientModule", "__init__", "quotient.QuotientModule"),
           ("torsion", "FiniteModule", "__post_init__", "torsion.FiniteModule.init"),
           ("torsion", "FiniteModule", "poly_matrix", "torsion.FiniteModule.poly_matrix"))
# calls per op of these are the redundancy ratios
PER_OP = ("inverse.inverse_system", "inverse.inner_span", "inverse.dual_corners",
          "torsion.FiniteModule.poly_matrix")


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


class LayerTracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._stack: list[list] = []  # [name, child seconds]
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []
        self._op_pairs: set = set()
        self._op_refs: list = []
        self._op_start: dict = {}
        self.per_op = Counter()  # name -> ops that called it at least once
        self.per_group_calls: dict = defaultdict(Counter)  # group -> name -> calls

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            try:
                if before is not None:
                    args = before(args)
                frame = [name, 0.0]
                stack.append(frame)
                depth[name] += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    depth[name] -= 1
                    stats[0] += 1
                    stats[2] += dt - frame[1]
                    if depth[name] == 0:
                        stats[1] += dt
                if after is not None:
                    after(args, result, parent and parent[0])
                return result
            finally:
                # the hooks' own cost stays out of the caller's self time
                if parent is not None:
                    parent[1] += perf_counter() - entered

        return traced

    def _hooks(self, name: str):
        counts = self.counts
        if name == "linalg.rref":
            def before(args):
                vectors, width = list(args[0]), args[1]
                counts["linalg.rref.rows"] += len(vectors)
                counts["linalg.rref.cells"] += len(vectors) * width
                self.max_bits = max(self.max_bits, _bits(vectors))
                return (vectors, width)

            def after(args, result, parent):
                self.max_bits = max(self.max_bits, _bits(result[0]))
            return before, after
        if name == "linalg.mat_mul":
            def after(args, result, parent):
                a, b = args
                counts["linalg.mat_mul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
            return None, after
        if name == "torsion.torsion_part_with_exponent":
            def after(args, result, parent):
                counts["torsion.torsion_part.steps"] += result[1]
            return None, after
        if name == "torsion.adic_completion":
            def after(args, result, parent):
                counts["torsion.adic_completion.steps"] += result[1]
            return None, after
        if name == "radical.semiprime_bruteforce":
            def after(args, result, parent):
                counts["radical.semiprime_bruteforce.upsets"] += result.submodules_scanned + 1
                counts["radical.semiprime_bruteforce.masks"] += 1 << args[0].dim
            return None, after
        if name == "quotient.staircase":
            def after(args, result, parent):
                if parent == "instances.random_artinian_ideal":
                    counts["instances.draws"] += 1
            return None, after
        if name == "torsion.FiniteModule.poly_matrix":
            def after(args, result, parent):
                module, poly = args
                self._op_refs.append(module)  # keeps id() unique within the op
                self._op_pairs.add((id(module), poly))
            return None, after
        return None, None

    def _targets(self):
        for short in MODULES:
            mod = sys.modules[f"artquot.{short}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    yield f"{short}.{attr}", fn
        ring = sys.modules["artquot.ring"]
        for attr in RING_FUNCTIONS:
            yield f"ring.{attr}", getattr(ring, attr)

    def install(self):
        wrapped = {}
        for name, fn in self._targets():
            before, after = self._hooks(name)
            wrapped[id(fn)] = (fn, self._wrap(name, fn, before, after))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "artquot" and not mod_name.startswith("artquot."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"artquot.{short}"], cls_name)
            fn = cls.__dict__[attr]
            before, after = self._hooks(name)
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, before, after))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- op scope ----------------------------------------------------------

    def begin_op(self):
        self._op_start = {n: self.stats[n][0] for n in PER_OP if n in self.stats}
        self._op_pairs.clear()
        self._op_refs.clear()

    def end_op(self, group: str):
        for name, start in self._op_start.items():
            calls = self.stats[name][0] - start
            if calls:
                self.per_op[name] += 1
                self.per_group_calls[group][name] += calls
        self.counts["torsion.FiniteModule.poly_matrix.distinct"] += len(self._op_pairs)
        self._op_pairs.clear()
        self._op_refs.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly for a fixed op list."""
        out = {f"{n}.calls": s[0] for n, s in sorted(self.stats.items())}
        out.update(sorted(self.counts.items()))
        out["linalg.rref.max_bits"] = self.max_bits
        out.update({f"{n}.ops": k for n, k in sorted(self.per_op.items())})
        return out
