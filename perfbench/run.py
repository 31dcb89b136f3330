"""gradsens benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload kernel_bound --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Runs one workload's jobs in a closed loop for ``--seconds`` and prints each
metric by name with its unit; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs on the
same seeds and reports the per-layer metrics.  ``--workload all`` runs every
workload, each in its own process so that peak memory stays per workload.
The package is imported from the ``src`` directory next to this one, so the
command works from any directory without an install.  See README.md here for
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("kernel_bound", "chain_bound", "reference")
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, and `repeat` on every CPU: the total load stays at nproc
# threads.  Set before numpy is first imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["GRADSENS_THREADS"] = str(NPROC)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store the golden job's digest in expected.json")
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a child process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            code = proc.returncode
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gradsens" / "__init__.py").is_file():
        print(f"perfbench: no gradsens package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import harness  # imports gradsens from SRC

    return harness.run(args, SRC)


if __name__ == "__main__":
    raise SystemExit(main())
