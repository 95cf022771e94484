"""soft_fold_sweep: equilibrium solves on a soft object across a gap sweep
down and back up, the branch memory carried from one solve to the next.

The object (30 mm wide, stiffness 0.12 N/mm) is soft enough that the dip
in the press curve folds the equilibrium branch: most solves find 5 to 11
roots and the sweep snaps through on the way down and back.  Only `plant`
and `friction` run; no kinematics or sensing.  The CLI part runs
`press-curve` over the sweep's squeeze range on the plant's 1e-3 mm scan
grid, since no subcommand solves equilibria without sensing.
"""
from __future__ import annotations

import math
import time

import numpy as np

from cavs_sim import config, plant

import harness
import oracle
import spans

WIDTH_MM, STIFFNESS = 30.0, 0.12
GAP_STEP = 0.05
HI_STEPS, LO_STEPS = 340, 240  # 17 mm and 12 mm: squeeze 13-18 mm
JITTER_STEPS = 2
CLI_RUNS = 11
CLI_STEP = 1e-3
MIN_ROUNDS = 2
TOLERANCE_N = 1e-9
MATCH_MM = 1e-6


def sweep_gaps(seed: int) -> list[float]:
    """Gaps from about 17 mm down to about 12 mm and back, on the 0.05 mm
    grid; the seed moves each end by up to two grid steps.

    The points stay on that grid because the program misses roots closer
    together than its 1e-3 mm scan step, which happens in gap windows about
    1e-3 mm wide (one is around 15.3172 mm); see CHANGES.md.
    """
    rng = np.random.default_rng(seed)
    hi = HI_STEPS + int(rng.integers(-JITTER_STEPS, JITTER_STEPS + 1))
    lo = LO_STEPS + int(rng.integers(-JITTER_STEPS, JITTER_STEPS + 1))
    down = [k * GAP_STEP for k in range(hi, lo - 1, -1)]
    return down + down[::-1]


def _setup(seed: int, call):
    cfg = call("config.load_config", config.load_config, None)
    obj = plant.ObjectModel(nominal_width=WIDTH_MM, stiffness=STIFFNESS)
    return cfg, obj, sweep_gaps(seed)


def _sweep(cfg, obj, gaps, result, checks, latencies=None):
    """One sweep; returns the states (None where a solve raised)."""
    states, memory = [], (0.0, 0.0)
    for gap in gaps:
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            st = plant.equilibrium_solve(cfg.friction, obj, gap / 2.0, gap / 2.0, memory,
                                         d_sc=cfg.geometry.d_sc)
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
            result.failed += 1
            checks.require(False, f"equilibrium_solve at gap {gap!r} raised {exc!r}")
            states.append(None)
            continue
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        memory = st.branch_memory
        states.append(st)
    return states


def run(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    result, checks = harness.Result(), harness.Checks()
    cfg, obj, gaps = _setup(seed, spans.direct)
    result.add("setup_s", harness.process_age_s(), "s")
    d_max = math.ceil(WIDTH_MM - min(gaps))
    out_csv = harness.OUT_DIR / "soft_fold_sweep.csv"
    cli_times, cli_outputs, latencies, sweeps = [], [], [], []

    def do_cli():
        result.attempted += 1
        wall, proc = harness.run_cli(["press-curve", "--d-max", str(d_max),
                                      "--step", str(CLI_STEP), "--out", str(out_csv)])
        if proc.returncode != 0:
            result.failed += 1
            checks.require(False, f"press-curve exit {proc.returncode}: {proc.stderr.strip()}")
            return
        cli_times.append(wall)
        cli_outputs.append(out_csv.read_text(encoding="utf-8"))

    def do_round():
        states = _sweep(cfg, obj, gaps, result, checks, latencies)
        if sweeps:
            checks.require(states == sweeps[0], "a later sweep returned different states")
        else:
            sweeps.append(states)

    harness.timed_phase(seconds, MIN_ROUNDS, CLI_RUNS, do_round, do_cli)
    result.add("peak_rss_mb", harness.peak_rss_mb(), "MB")
    if latencies:
        result.add("ops_per_s", len(latencies) / sum(latencies), "1/s")
        result.add("op_ms_p50", harness.percentile(latencies, 50) * 1e3, "ms")
        result.add("op_ms_tail", harness.percentile(latencies, 99) * 1e3, "ms")
    if cli_times:
        result.add("cli_s", harness.percentile(cli_times, 50), "s")

    curve = oracle.PressCurve(cfg.friction, cfg.geometry.d_sc)
    _check_sweep(checks, curve, obj, gaps, sweeps[0])
    for text in cli_outputs:
        _check_press_curve(checks, curve, text, d_max)
    return result.as_dict(checks)


def _check_sweep(checks, curve, obj, gaps, states) -> None:
    """Balance and closure of every root, the brute-force scan's choice at
    every point, and the snap-through hysteresis between the two legs."""
    bad_balance = bad_choice = 0
    memory = (0.0, 0.0)
    for gap, st in zip(gaps, states):
        if st is None:
            continue
        squeeze = obj.nominal_width - gap
        f_l, f_r = curve.scalar(st.d_left), curve.scalar(st.d_right)
        c = squeeze - st.d_left - st.d_right
        bad_balance += not (c >= 0.0 and abs(f_l - f_r) <= TOLERANCE_N
                            and abs(f_l - obj.stiffness * c) <= TOLERANCE_N)
        roots = oracle.equilibria(curve, obj.stiffness, squeeze)
        picked = oracle.nearest_to_memory(roots, memory) if roots else (math.nan, math.nan)
        bad_choice += not (abs(st.d_left - picked[0]) <= MATCH_MM
                           and abs(st.d_right - picked[1]) <= MATCH_MM)
        memory = st.branch_memory
    checks.require(bad_balance == 0, f"{bad_balance} sweep roots break balance or closure")
    checks.require(bad_choice == 0, f"{bad_choice} sweep points differ from the root scan's pick")

    half = len(gaps) // 2
    if any(st is None for st in states):
        return
    total = [st.d_left + st.d_right for st in states]
    down = np.asarray(total[:half][::-1])  # ascending gap
    up = np.asarray(total[half:])
    x = np.asarray(gaps[half:])
    area = float(np.sum((up[1:] - down[1:] + up[:-1] - down[:-1]) * np.diff(x)) / 2.0)
    checks.require(area > 0.0, f"hysteresis area {area:g} is not positive")
    checks.require(float(np.max(np.abs(up - down))) > 1.0, "the two legs never differ by 1 mm")


def _check_press_curve(checks, curve, text: str, d_max: float) -> None:
    lines = text.splitlines()
    n = max(1, round(d_max / CLI_STEP))
    checks.require(lines[0] == "d_mm,force_N" and len(lines) == n + 2,
                   "press-curve header or row count")
    d = np.array([float(line.split(",")[0]) for line in lines[1:]])
    f = np.array([float(line.split(",")[1]) for line in lines[1:]])
    want = curve(d)
    # six significant digits in the CSV
    checks.require(bool(np.all(np.abs(f - want) <= 6e-6 * np.abs(want) + 1e-12)),
                   "press-curve forces differ from the reference curve")


def _run_traced(seed: int, seconds: float) -> dict:
    result, checks = harness.Result(), harness.Checks()
    tracer = spans.Tracer()
    with tracer.installed():
        cfg, obj, gaps = _setup(seed, tracer.call)
    sweeps = []

    def do_round(call):
        states = _sweep(cfg, obj, gaps, result, checks)
        if sweeps:
            checks.require(states == sweeps[0], "traced and untraced sweeps differ")
        else:
            sweeps.append(states)

    result.metrics = spans.traced_phase("soft_fold_sweep", tracer, seconds, MIN_ROUNDS, do_round)
    _check_sweep(checks, oracle.PressCurve(cfg.friction, cfg.geometry.d_sc), obj, gaps,
                 sweeps[0])
    return result.as_dict(checks)
