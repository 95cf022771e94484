"""tube_5step: the bundled five-step tube scenario with the default config.

Each round builds a fresh world and runs the 2,000-tick closed loop
in-process; the CLI runs the same scenario with `control-demo`.  Every
module is on this path.  The benchmark seed is the world's RNG seed, which
drives only the camera noise; the default config has none, so every seed
runs the same ticks and the call counts repeat exactly.
"""
from __future__ import annotations

import json
import time
from importlib import resources

from cavs_sim import config, kinematics, plant
from cavs_sim.friction import ContactState

import harness
import oracle
import spans

CLI_RUNS = 5
MIN_ROUNDS = 2
TOLERANCE_N = 1e-9  # force balance on the logged full-precision state


def _setup(seed: int, call):
    cfg = call("config.load_config", config.load_config, None)
    call("kinematics.rest_pose", kinematics.rest_pose, cfg.geometry)
    ref = resources.files("cavs_sim").joinpath("scenarios").joinpath("tube_5step.json")
    scenario = config.parse_scenario(json.loads(ref.read_text(encoding="utf-8")))
    world = call("plant.make_world", _world, cfg, scenario, seed)
    return cfg, scenario, world


def _world(cfg, scenario, seed: int):
    return plant.make_world(cfg.geometry, cfg.camera, cfg.friction, cfg.controller, cfg.object,
                            initial_gap=scenario.initial_gap_mm, seed=seed)


def _ticks(scenario) -> int:
    return sum(max(1, round(s.duration_s / scenario.tick_dt_s)) for s in scenario.steps)


def run(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    result, checks = harness.Result(), harness.Checks()
    cfg, scenario, world = _setup(seed, spans.direct)
    result.add("setup_s", harness.process_age_s(), "s")
    n_ticks = _ticks(scenario)
    out_csv = harness.OUT_DIR / "tube_5step.csv"
    cli_times, cli_outputs = [], []
    tick_ms, busy, runs = [], [], []
    worlds = [world]
    # one timestamp per tick, taken where the tick calls the controller
    stamps: list[float] = []
    controller = plant.dual_finger_step

    def stamped(*args):
        stamps.append(time.perf_counter())
        return controller(*args)

    def do_cli():
        result.attempted += 1
        wall, proc = harness.run_cli(["control-demo", "--out", str(out_csv), "--seed", str(seed)])
        if proc.returncode != 0:
            result.failed += 1
            checks.require(False, f"control-demo exit {proc.returncode}: {proc.stderr.strip()}")
            return
        cli_times.append(wall)
        cli_outputs.append((out_csv.read_bytes(), proc.stdout))

    def do_round():
        result.attempted += 1
        world = worlds.pop() if worlds else _world(cfg, scenario, seed)
        stamps.clear()
        t0 = time.perf_counter()
        try:
            records, summaries = plant.run_scenario(world, list(scenario.steps),
                                                    scenario.tick_dt_s)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            result.failed += 1
            checks.require(False, f"run_scenario raised {exc!r}")
            return
        t1 = time.perf_counter()
        busy.append(t1 - t0)
        checks.require(len(stamps) == n_ticks,
                       f"{len(stamps)} controller calls for {n_ticks} ticks")
        edges = [t0, *stamps[1:], t1]
        tick_ms.extend((b - a) * 1e3 for a, b in zip(edges, edges[1:]))
        if runs:
            checks.require(records == runs[0][0], "a later round logged different records")
        else:
            runs.append((records, summaries))

    plant.dual_finger_step = stamped
    try:
        harness.timed_phase(seconds, MIN_ROUNDS, CLI_RUNS, do_round, do_cli)
    finally:
        plant.dual_finger_step = controller
    result.add("peak_rss_mb", harness.peak_rss_mb(), "MB")
    if tick_ms:
        result.add("ops_per_s", len(tick_ms) / sum(busy), "1/s")
        result.add("op_ms_p50", harness.percentile(tick_ms, 50), "ms")
        result.add("op_ms_tail", harness.percentile(tick_ms, 99), "ms")
    if cli_times:
        result.add("cli_s", harness.percentile(cli_times, 50), "s")

    if runs:
        _check_run(checks, cfg, scenario, *runs[0])
        csv_text = plant.records_to_csv(runs[0][0]).encode("utf-8")
        for csv_bytes, stdout in cli_outputs:
            checks.require(csv_bytes == csv_text, "control-demo CSV differs from records_to_csv")
            _check_cli_summary(checks, stdout, len(scenario.steps))
    return result.as_dict(checks)


def _check_run(checks, cfg, scenario, records, summaries) -> None:
    ctrl, obj = cfg.controller, cfg.object
    checks.require(len(summaries) == len(scenario.steps), "one summary per step")
    for s in summaries:
        checks.require(s.entered_band_tick is not None, f"step {s.name!r} never entered its band")
        if s.target_mode is ContactState.SC:
            checks.require(s.grasp_maintained, f"SC step {s.name!r} lost the grasp")
        else:
            checks.require(s.slide_achieved, f"LC step {s.name!r} did not slide")

    curve = oracle.PressCurve(cfg.friction, cfg.geometry.d_sc)
    checks.require(len(records) == 2 * _ticks(scenario), "two records per tick")
    bad_cmd = bad_balance = 0
    for rec in records:
        want = oracle.deadband_command(rec.r_img_pct, rec.r_target_pct, ctrl.epsilon,
                                       ctrl.step_open, ctrl.step_close)
        bad_cmd += rec.delta_df_mm != want
    for left, right in zip(records[0::2], records[1::2]):
        gap = left.finger_pos_mm + right.finger_pos_mm
        if gap >= obj.nominal_width:
            bad_balance += (left.deformation_mm, right.deformation_mm) != (0.0, 0.0)
            continue
        f_l, f_r = curve.scalar(left.deformation_mm), curve.scalar(right.deformation_mm)
        squeeze = obj.nominal_width - gap
        c = squeeze - left.deformation_mm - right.deformation_mm
        bad_balance += not (c >= 0.0 and abs(f_l - f_r) <= TOLERANCE_N
                            and abs(f_l - obj.stiffness * c) <= TOLERANCE_N
                            and abs(left.f_n_N - f_l) <= TOLERANCE_N
                            and abs(right.f_n_N - f_r) <= TOLERANCE_N)
    checks.require(bad_cmd == 0, f"{bad_cmd} logged commands break the deadband rule")
    checks.require(bad_balance == 0, f"{bad_balance} contact ticks break balance or closure")


def _check_cli_summary(checks, stdout: str, n_steps: int) -> None:
    lines = stdout.splitlines()
    checks.require(len(lines) == n_steps, f"control-demo printed {len(lines)} step lines")
    for line in lines:
        checks.require(("grasp_maintained=yes" in line or "slide_achieved=yes" in line)
                       and "entered_band_tick=never" not in line,
                       f"control-demo step not achieved: {line}")


def _run_traced(seed: int, seconds: float) -> dict:
    result, checks = harness.Result(), harness.Checks()
    tracer = spans.Tracer()
    with tracer.installed():
        cfg, scenario, world = _setup(seed, tracer.call)
    worlds, runs, csv_texts = [world], [], set()

    def do_round(call):
        result.attempted += 1
        world = worlds.pop() if worlds else _world(cfg, scenario, seed)
        records, summaries = call("plant.run_scenario", plant.run_scenario, world,
                                  list(scenario.steps), scenario.tick_dt_s)
        csv_texts.add(call("plant.records_to_csv", plant.records_to_csv, records))
        if not runs:
            runs.append((records, summaries))

    result.metrics = spans.traced_phase("tube_5step", tracer, seconds, MIN_ROUNDS, do_round)
    checks.require(len(csv_texts) == 1, "traced and untraced rounds wrote different CSVs")
    _check_run(checks, cfg, scenario, *runs[0])
    return result.as_dict(checks)
