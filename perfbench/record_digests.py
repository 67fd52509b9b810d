"""Record the stdout digest of every CLI op for the shipped seeds.

Usage, from the root of the repository:

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only on a commit whose output is
known to be right: the benchmark then fails any op whose stdout differs.
Ladder ops do not depend on the seed, so their digests are checked for
every seed; sampler ops are checked only for the seeds listed here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import Runner  # noqa: E402

SHIPPED_SEEDS = range(32)
CLI_WORKLOADS = ("structure-ladder", "action-ladder")


def main() -> int:
    import artquot.cli  # noqa: F401 - Runner looks the module up

    runner = Runner({})
    digests = {}
    for workload in CLI_WORKLOADS:
        for seed in SHIPPED_SEEDS:
            for op in workloads.build(workload, workloads.choose(workload, seed)):
                if op.key in digests:
                    continue
                rc, stdout = runner.call(op)
                reason = runner.check(op, rc, stdout)
                if reason is not None:
                    print(f"{op.key}: {reason}", file=sys.stderr)
                    return 1
                digests[op.key] = hashlib.sha256(stdout.encode()).hexdigest()
            print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    seeds = {w: list(SHIPPED_SEEDS) for w in CLI_WORKLOADS}
    ops = json.dumps(dict(sorted(digests.items())), indent=0)
    (HERE / "digests.json").write_text(
        f'{{\n"seeds": {json.dumps(seeds)},\n"ops": {ops}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
