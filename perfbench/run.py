"""Host-time benchmark of the SIDCo simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``compress``, ``plan-tune``, ``plan-sched`` (see
``workloads.py``).  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
prints the per-layer metrics of a traced run and writes its spans to
``.perfbench/<workload>-seed<seed>-trace.json``.  The last line of standard
output is the result record; the line before it holds the environment block
and the run details (sample counts, tail percentile, failed checks).

The run environment is pinned before NumPy is imported: one BLAS/OpenMP
thread (helper threads spin-waiting would otherwise inflate process CPU time)
and a ``PYTHONHASHSEED`` derived from the workload seed (hash order moves the
planner's cost).  If the current interpreter is not pinned, the script
re-executes itself in place with the pins set.

On a shared host the same code runs 20-40% slower while other tenants load
the machine.  Host-time metrics are therefore reported at a reference host
speed, measured by a fixed program-independent kernel sampled between ops
(``bench.HostGauge``); the unscaled times are in the details line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

T0_ENV = "PERFBENCH_T0"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_environment(seed: int) -> dict:
    return {**THREAD_PINS, "PYTHONHASHSEED": str(seed % 2**32)}


def main() -> int:
    start = time.monotonic()
    args = parse_args(sys.argv[1:])
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    pins = pinned_environment(args.seed)
    if any(os.environ.get(name) != value for name, value in pins.items()):
        env = {**os.environ, **pins, T0_ENV: repr(start)}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    start = float(os.environ.pop(T0_ENV, start))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro package under {src}: run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import bench  # noqa: E402  (imports NumPy and the program after the pins)

    import_s = time.monotonic() - start
    return bench.main(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s,
        out_dir=bench.Path(root) / ".perfbench",
    )


if __name__ == "__main__":
    sys.exit(main())
