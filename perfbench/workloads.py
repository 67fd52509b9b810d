"""Instance lists, operations and output checks for the three workloads.

A workload is a fixed ladder of instances plus seeded draws from the
library's own sampler.  The draws are stratified by (vars, dim): the
structure and action draws are rejected until they hit the dimension of
their slot, and verify-mix picks the suite instances whose sizes match a
fixed profile.  Cost follows the dimension, so every seed runs the same
size mix and the percentiles do not jump between seeds, while the shapes
still vary with the seed.

Inputs are made in two steps.  `choose(workload, seed)` runs the seeded
search for the draws and returns plain data (input texts, suite seeds);
its length depends on the seed, so it runs once and is not timed.
`build(workload, choice)` turns that data into the op list, parsing each
input and computing its staircase; that is the input-building part of the
set-up time.  artquot is imported inside the functions, not at module
level, because `run.py` re-imports the package several times to time
set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("structure-ladder", "action-ladder", "verify-mix")

# The three staircases that scripts/worked_examples.py walks through.
WORKED_EXAMPLES = (
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)

# Pure-power boxes: (number of variables, exponent).  The structure ladder
# climbs to dim 196 (2 variables) and dim 125 (3 variables).
STRUCTURE_BOXES = ((2, 2), (2, 4), (2, 7), (2, 10), (2, 14),
                   (3, 2), (3, 3), (3, 4), (3, 5))
# classify is dense and cubic in the dimension today: 2.6 s at dim 49, 7 s
# at dim 64.  The action ladder keeps the structure-ladder boxes up to dim
# 49, so that a 36-second run makes three or four passes.
ACTION_DIM_CAP = 49

STRUCTURE_COMMANDS = ("basis", "socle", "dual", "hilbert", "report", "diagram")

# Sampler slots: (variables, dim, socle dim or None for any).  radical
# scans all 2^dim subsets up to dim 14, so a slot is one exact dimension,
# not a range.  The action slots stay below the cost of the ladder ops
# around the 90th percentile, so the percentile falls between two ladder
# ops whatever the seed draws.  Their draws fill the middle of the action
# latencies, and classify costs about 1.6 times as much with socle dim 2 as
# with 1 at the same dim, so the action slots fix the socle dim as well:
# over seeds 11-30 that halved the spread of the median across seeds.
STRUCTURE_SLOTS = ((1, 5, None), (2, 10, None), (2, 24, None), (3, 10, None),
                   (3, 27, None))
ACTION_SLOTS = ((2, 6, 1), (2, 8, 2), (2, 10, 1), (3, 6, 2), (3, 8, 1), (3, 10, 2))

# verify-mix: one pass is this many rounds, each round one instance of
# every suite, all drawn from the workload seed.  Its 90th percentile falls
# among the costlier instances of every suite; over seeds 1-10 it spread
# 11% (IQR / median) with 60 rounds and 4% with 120.
VERIFY_ROUNDS = 120
VERIFY_REFERENCE_SEED = 0
VERIFY_MAX_SCAN = 40  # candidates scanned per round before giving up

_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Instance:
    text: str  # CLI input `ring ...; ideal ...`, or `<suite> seed <n>`
    nvars: int
    dim: int
    source: str  # "ladder", "sampler" or "suite"


@dataclass(frozen=True)
class Op:
    """One closed-loop call: a CLI command on stdin text, or one suite instance."""

    key: str  # stable identity; the digest file is keyed by it
    kind: str  # "cli" or "suite"
    group: str  # CLI command or suite name, for per-group latency
    instance: Instance
    argv: tuple = ()
    stdin: str = ""
    suite_seed: int = 0


def _box(nvars: int, exponent: int) -> str:
    names = _NAMES[:nvars]
    gens = ", ".join(f"{v}^{exponent}" for v in names)
    return f"ring {','.join(names)}; ideal {gens}"


def _instance(text: str, source: str) -> Instance:
    from artquot.quotient import staircase
    from artquot.ring import parse_input

    variables, ideal = parse_input(text)
    return Instance(text, variables.n, len(staircase(variables, ideal)), source)


def _ladder(dim_cap: int | None) -> list[Instance]:
    # a box's dim is known without the program, so the self-checks that
    # compare against Instance.dim are independent there
    boxes = [Instance(_box(nvars, exponent), nvars, exponent**nvars, "ladder")
             for nvars, exponent in STRUCTURE_BOXES
             if dim_cap is None or exponent**nvars <= dim_cap]
    return boxes + [_instance(t, "ladder") for t in WORKED_EXAMPLES]


def _socle_dim(stair: list[tuple]) -> int:
    """Corners of a staircase: standard monomials that every variable
    multiplies into the ideal."""
    cells = set(stair)
    return sum(all(m[:i] + (m[i] + 1,) + m[i + 1:] not in cells for i in range(len(m)))
               for m in stair)


def _sampler_draws(seed: int, slots) -> list[str]:
    """Input text of the first seeded draw that fills each slot."""
    from artquot.instances import SamplerConfig, random_artinian_ideal
    from artquot.quotient import staircase
    from artquot.ring import render

    config = SamplerConfig(dim_bound=max(dim for _, dim, _ in slots))
    out = []
    for k, (nvars, dim, socle) in enumerate(slots):
        rng = random.Random(f"{seed}:{k}")
        while True:
            variables, ideal = random_artinian_ideal(rng, config)
            stair = staircase(variables, ideal)
            if (variables.n == nvars and len(stair) == dim
                    and socle in (None, _socle_dim(stair))):
                break
        out.append(render(variables, ideal))
    return out


def _cli_op(command: str, inst: Instance, extra: tuple = ()) -> Op:
    argv = (command, *extra)
    key = " ".join(argv) + " <- " + inst.text
    return Op(key, "cli", command, inst, argv, inst.text)


def _structure_ops(draws: list[str]) -> list[Op]:
    ops = []
    for inst in _ladder(None) + [_instance(t, "sampler") for t in draws]:
        for command in STRUCTURE_COMMANDS:
            if command == "diagram" and inst.nvars != 2:
                continue
            ops.append(_cli_op(command, inst))
    return ops


def _sum_of_first_two(text: str) -> str:
    names = text.split(";")[0].split()[1].split(",")
    return f"{names[0]}+{names[1]}"


def _action_ops(draws: list[str]) -> list[Op]:
    ops = []
    for inst in _ladder(ACTION_DIM_CAP) + [_instance(t, "sampler") for t in draws]:
        ops.append(_cli_op("classify", inst))
        ops.append(_cli_op("classify", inst, ("--ideal", _sum_of_first_two(inst.text))))
        ops.append(_cli_op("radical", inst))
    return ops


def _cell(nvars, dim):
    """Stratum of a suite instance: vars, and dim exactly up to 16, then in
    bins about 10% wide, because verify cost grows steeply with dim."""
    if isinstance(dim, int) and dim > 16:
        dim = ("bin", round(math.log(dim) / math.log(1.1)))
    return nvars, dim


def _verify_choice(seed: int) -> list[tuple]:
    """(suite, instance seed, vars, dim) of VERIFY_ROUNDS instances of
    every suite, run as run_suite(name, 1, instance_seed(seed, i)).

    Instance i of a suite is drawn by the suite itself, and its cost grows
    steeply with the dimension.  So the indices i are stratified: the
    (vars, dim) profile of the first VERIFY_ROUNDS instances of reference
    seed 0 is the quota, and the seeded stream i = 0, 1, ... is scanned for
    instances that fill it.  Every seed then runs the same size mix."""
    from artquot import suites
    from artquot.instances import instance_seed

    # the suites' sampler settings; suites that share one share the draws
    configs = {name: getattr(suites, "_SUITES", {}).get(name, ("?", "?"))[1]
               for name in suites.SUITE_NAMES}
    shapes: dict = {}

    def shape(name, s):
        key = (configs[name], s)
        if key not in shapes:
            shapes[key] = _suite_shape(configs[name], s)
        return shapes[key]

    chosen = []
    for name in suites.SUITE_NAMES:
        quota: dict = {}
        for i in range(VERIFY_ROUNDS):
            cell = _cell(*shape(name, instance_seed(VERIFY_REFERENCE_SEED, i)))
            quota[cell] = quota.get(cell, 0) + 1
        picked = []
        for i in range(VERIFY_MAX_SCAN * VERIFY_ROUNDS):
            s = instance_seed(seed, i)
            nvars, dim = shape(name, s)
            if quota.get(_cell(nvars, dim), 0):
                quota[_cell(nvars, dim)] -= 1
                picked.append((name, s, nvars, dim))
                if len(picked) == VERIFY_ROUNDS:
                    break
        else:
            raise RuntimeError(f"seed {seed}: suite {name} did not fill its size profile")
        chosen.extend(picked)
    # interleave so that every round runs each suite once
    k = len(suites.SUITE_NAMES)
    return [chosen[j * VERIFY_ROUNDS + r] for r in range(VERIFY_ROUNDS) for j in range(k)]


def _verify_ops(chosen: list[tuple]) -> list[Op]:
    return [Op(f"verify {name} {s}", "suite", name,
               Instance(f"{name} seed {s}", nvars, dim, "suite"), suite_seed=s)
            for name, s, nvars, dim in chosen]


def choose(workload: str, seed: int) -> list:
    """The seeded draws of a workload, as plain data for `build`."""
    if workload == "structure-ladder":
        return _sampler_draws(seed, STRUCTURE_SLOTS)
    if workload == "action-ladder":
        return _sampler_draws(seed, ACTION_SLOTS)
    if workload == "verify-mix":
        return _verify_choice(seed)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, choice: list) -> list[Op]:
    """The op list one pass runs, in order, from the draws `choose` made."""
    if workload == "structure-ladder":
        return _structure_ops(choice)
    if workload == "action-ladder":
        return _action_ops(choice)
    if workload == "verify-mix":
        return _verify_ops(choice)
    raise ValueError(f"unknown workload {workload!r}")


def census(ops: list[Op]) -> list[str]:
    """One line per instance: source, vars, dim, ops, input."""
    rows: dict = {}
    for op in ops:
        rows[op.instance] = rows.get(op.instance, 0) + 1
    return [f"{i.source:<7} vars {i.nvars} dim {i.dim:>3} ops {k}  {i.text}"
            for i, k in rows.items()]


def _suite_shape(config, seed: int):
    """(vars, dim) of the instance a suite with this sampler config draws
    from `seed`; config None is the module-free suite."""
    from artquot import instances
    from artquot.quotient import staircase

    if config == "?":  # the suite table moved; run unstratified
        return "?", "?"
    if config is None:  # a random commuting family
        # conjugation changes neither vars nor dim and is the costly part
        module = instances.random_finite_module(random.Random(seed), conjugated=False)
        return module.nvars, module.dim
    _, variables, ideal = next(instances.sample_ideals(1, seed, config))
    return variables.n, len(staircase(variables, ideal))


# ---------------------------------------------------------------------------
# self-checks on CLI stdout, independent of the digest

_TAGS = {"T_I", "F_I", "FrakT_I", "none"}


def _field(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix + " "):
            return line[len(prefix) + 1:]
    raise ValueError(f"missing line {prefix!r}")


def _items(value: str) -> list[str]:
    return [s for s in value.split(", ") if s]


def self_check(op: Op, stdout: str) -> str | None:
    """None when the output is consistent, else the reason it is not."""
    inst = op.instance
    lines = stdout.splitlines()
    try:
        if op.group == "basis":
            dim = int(_field(lines, "dim"))
            ok = dim == inst.dim == len(_items(_field(lines, "basis")))
        elif op.group == "socle":
            k = int(_field(lines, "socle dim"))
            ok = (k == len(_items(_field(lines, "corners")))
                  and _field(lines, "gorenstein") == ("yes" if k == 1 else "no")
                  and 1 <= k <= inst.dim)
        elif op.group == "dual":
            dim = int(_field(lines, "dual dim"))
            corners = _items(_field(lines, "dual corners"))
            inner = _items(_field(lines, "inner"))
            ok = (dim == inst.dim == len(_items(_field(lines, "dual basis")))
                  == len(corners) + len(inner))
        elif op.group == "hilbert":
            ok = (_field(lines, "module = dual") == "yes"
                  and _field(lines, "socle = socle dual") == "yes")
        elif op.group == "report":
            ok = lines[-1] == "all rows ok" and len(lines) == 11
        elif op.group == "diagram":
            cells = sum(line.count("|") - 1 for line in lines if line.startswith("|"))
            ok = cells == inst.dim
        elif op.group == "classify":
            gamma = int(_field(lines, "gamma dim"))
            lam = int(_field(lines, "lambda dim"))
            ok = (_field(lines, "tag") in _TAGS
                  and 0 <= gamma <= inst.dim and 0 <= lam <= inst.dim)
        elif op.group == "radical":
            env = int(_field(lines, "envelope dim"))
            ok = (env == int(_field(lines, "jacobson dim")) == inst.dim - 1
                  and _field(lines, "satisfies radical formula") == "yes")
            if inst.dim <= 14:
                ok = ok and (_field(lines, "semiprime dim") == str(env)
                             and _field(lines, "semiprime unique") == "yes")
        else:
            return f"no self-check for {op.group}"
    except (ValueError, IndexError) as exc:
        return f"unparsable output: {exc}"
    return None if ok else "self-check failed"

