"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload stack_train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, each in a fresh process

Each metric is printed as `metric <workload> <name> = <value> <unit>`, the
environment as one `env {...}` line, and the last line of a single-workload
run is the JSON result {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics; --trace 1 gives the per-layer ones,
the tracing overhead, and writes the spans to perfbench/traces/.

The program is imported from src/ of the checkout this file sits in.
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
WORKLOAD_NAMES = ("stack_train", "lds_fit", "verify_long")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def run_one(args) -> int:
    # Pin the BLAS/OpenMP pools to one thread before NumPy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from harness import PER_LAYER, environment, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    result, tracer = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(workload, args.seed), sort_keys=True))
    bases = {name: base for name, _, _, base in PER_LAYER}
    metrics = result["metrics"]
    for name, m in metrics.items():
        base = bases.get(name)
        note = f"  (base {base} = {metrics[base]['value']:g})" if base else ""
        print(f"metric {workload.name} {name} = {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        out = HERE / "traces" / f"{workload.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.to_dict()))
        print(f"spans written to {out.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectral_ssm").is_dir():
        print(f"no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
