"""Shared pieces of the benchmark: paths, clocks, statistics, the CLI runner,
the correctness checks and the result record."""
from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

CLI_TIMEOUT_S = 150.0


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time
    (10 ms ticks), so interpreter start-up is included."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run `python -m cavs_sim.cli ARGS` from the checkout's sources and
    return its wall time and the finished process (output captured)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cavs_sim.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=False)
    return time.perf_counter() - t0, proc


def timed_phase(seconds: float, min_rounds: int, cli_runs: int, do_round, do_cli) -> None:
    """Run rounds until `seconds` have passed (and at least `min_rounds`),
    with the CLI runs spread evenly through the phase so that they and the
    rounds sample the same stretch of machine time."""
    start = time.perf_counter()
    rounds = clis = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        if clis < cli_runs and time.perf_counter() - start >= clis * seconds / cli_runs:
            do_cli()
            clis += 1
        else:
            do_round()
            rounds += 1
    for _ in range(clis, cli_runs):
        do_cli()


class Checks:
    """Collects failed correctness checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures


class Result:
    """The record printed as the benchmark's last line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def as_dict(self, checks: Checks) -> dict:
        for message in checks.failures[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        return {"correct": checks.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}

