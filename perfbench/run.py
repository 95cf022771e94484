"""cavs-sim benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

WORKLOADS = {"tube_5step": "tube", "soft_fold_sweep": "soft",
             "geometry_calibration": "geometry"}
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    # one thread per process, set before numpy is first imported (it sizes its
    # thread pools at import); the CLI subprocesses inherit it
    os.environ.update(SINGLE_THREAD_ENV)
    import harness
    if not (harness.SRC / "cavs_sim" / "__init__.py").is_file():
        print(f"error: no cavs_sim package under {harness.SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import cavs_sim
    if Path(cavs_sim.__file__).resolve().parent != (harness.SRC / "cavs_sim").resolve():
        print(f"error: cavs_sim was imported from {cavs_sim.__file__}, not {harness.SRC}",
              file=sys.stderr)
        return 2
    harness.OUT_DIR.mkdir(exist_ok=True)

    workload = importlib.import_module(WORKLOADS[args.workload])
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    (harness.OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
