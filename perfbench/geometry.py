"""geometry_calibration: what `ratio-curve` does, on a stream of fingertip
geometries each new to the process.

For every geometry: the rest-pose fit, the d_sc reference (the cold branch
walk), the deformation limits and the red-area ratio on a 0.01 mm grid up to
d_sc.  Each geometry is the default one with p_ay, l2 and d_sc moved by up to
0.1 mm, drawn from the seed, so the module caches of `kinematics` are cold
for each.  `tube_5step` measures the same layer warm.  No plant or friction
solve runs.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np

from cavs_sim import config, kinematics, sensing
from cavs_sim.kinematics import SolverFailure

import harness
import oracle
import spans

PERTURBED = ("p_ay", "l2", "d_sc")
PERTURB_MM = 0.1
GRID_MM = 0.01
CLI_RUNS = 11
MIN_ROUNDS = 20  # also the geometry count at which peak RSS is read
LR_CHECKS = 2  # geometries per run that are also checked with a scaled l_r
CONSTRAINT_MM = 1e-9
INSIDE_MM = 1e-9
BEYOND_MM = 1e-6


class OutsideLimits(ValueError):
    """d_sc lies beyond the deformation limit; ratio-curve refuses such a geometry."""


def geometries(base, seed: int):
    """Endless stream of perturbed geometries drawn from the seed."""
    rng = np.random.default_rng(seed)
    while True:
        moved = {name: getattr(base, name) + rng.uniform(-PERTURB_MM, PERTURB_MM)
                 for name in PERTURBED}
        yield dataclasses.replace(base, **moved)


def ratio_grid(d_sc: float) -> np.ndarray:
    """The grid `ratio-curve --step 0.01` evaluates, from 0 to d_sc."""
    return np.linspace(0.0, d_sc, max(1, round(d_sc / GRID_MM)) + 1)


def calibrate(camera, geom, call):
    """One cold ratio curve; returns (d_max, grid, ratios)."""
    call("kinematics.rest_pose", kinematics.rest_pose, geom)
    cam = call("sensing.calibrate_sc_reference", sensing.calibrate_sc_reference, camera, geom)
    _, d_max = call("kinematics.deformation_limits", kinematics.deformation_limits, geom)
    if geom.d_sc > d_max:
        raise OutsideLimits(f"d_sc {geom.d_sc!r} beyond the limit {d_max!r}")
    grid = ratio_grid(geom.d_sc)
    ratios = [sensing.red_area_ratio(cam, geom, float(d)) for d in grid]
    return d_max, grid, ratios


def _setup(seed: int, call):
    cfg = call("config.load_config", config.load_config, None)
    return cfg, geometries(cfg.geometry, seed)


def _attempt(cfg, geom, result, checks, call):
    result.attempted += 1
    try:
        return calibrate(cfg.camera, geom, call)
    except Exception as exc:  # noqa: BLE001 - a failed geometry is counted, not fatal
        result.failed += 1
        checks.require(False, f"calibration of {geom!r} raised {exc!r}")
        return None


def run(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    result, checks = harness.Result(), harness.Checks()
    cfg, stream = _setup(seed, spans.direct)
    result.add("setup_s", harness.process_age_s(), "s")
    cfg_path = harness.OUT_DIR / "geometry_calibration.json"
    out_csv = harness.OUT_DIR / "geometry_calibration.csv"
    # the CLI's geometries are also the first ones calibrated in-process,
    # where they are just as new
    cli_geoms = [next(stream) for _ in range(CLI_RUNS)]
    pending, cli_queue = list(cli_geoms), list(cli_geoms)
    cli_times, cli_outputs, latencies, done = [], [], [], []

    def do_cli():
        result.attempted += 1
        geom = cli_queue.pop(0)
        cfg_path.write_text(json.dumps({"geometry": dataclasses.asdict(geom)}), encoding="utf-8")
        wall, proc = harness.run_cli(["ratio-curve", "--config", str(cfg_path),
                                      "--out", str(out_csv)])
        if proc.returncode != 0:
            result.failed += 1
            checks.require(False, f"ratio-curve exit {proc.returncode}: {proc.stderr.strip()}")
            return
        cli_times.append(wall)
        cli_outputs.append((geom, out_csv.read_text(encoding="utf-8")))

    def do_round():
        geom = pending.pop(0) if pending else next(stream)
        t0 = time.perf_counter()
        out = _attempt(cfg, geom, result, checks, spans.direct)
        if out is not None:
            latencies.append(time.perf_counter() - t0)
        done.append((geom, out))
        if len(done) == MIN_ROUNDS:
            # the caches grow with every geometry, so memory is read after a
            # fixed count, not after however many the run had time for
            result.add("peak_rss_mb", harness.peak_rss_mb(), "MB")

    harness.timed_phase(seconds, MIN_ROUNDS, CLI_RUNS, do_round, do_cli)
    if latencies:
        result.add("ops_per_s", len(latencies) / sum(latencies), "1/s")
        result.add("op_ms_p50", harness.percentile(latencies, 50) * 1e3, "ms")
        result.add("op_ms_tail", harness.percentile(latencies, 90) * 1e3, "ms")
    if cli_times:
        result.add("cli_s", harness.percentile(cli_times, 50), "s")

    curves = dict(done)
    for i, (geom, out) in enumerate(done):
        if out is not None:
            _check_curve(checks, cfg, geom, *out, scale_lr=i < LR_CHECKS)
    for geom, text in cli_outputs:
        out = curves.get(geom)
        checks.require(out is not None, "a CLI geometry was not calibrated in-process")
        if out is not None:
            _check_cli_csv(checks, cfg, out[1], out[2], text)
    return result.as_dict(checks)


def _check_curve(checks, cfg, geom, d_max, grid, ratios, scale_lr: bool) -> None:
    tag = f"geometry {dataclasses.astuple(geom)}"
    checks.require(abs(ratios[-1] - 1.0) <= 1e-9, f"{tag}: r(d_sc) = {ratios[-1]!r}")
    checks.require(all(b > a for a, b in zip(ratios, ratios[1:])),
                   f"{tag}: ratio does not rise strictly")

    # the rest pose is a least-squares minimum of the three anchor conditions
    rest = kinematics.rest_pose(geom)
    t1, t2 = rest.theta1, rest.theta2
    best = oracle.rest_misfit(geom, t1, t2)
    h = 1e-5
    checks.require(all(oracle.rest_misfit(geom, t1 + a, t2 + b) >= best
                       for a, b in ((h, 0), (-h, 0), (0, h), (0, -h))),
                   f"{tag}: rest pose is not a local least-squares minimum")
    _, c0, _, e0 = oracle.linkage(geom, t1, t2)

    ref = kinematics.solve_joint_angles(geom, geom.d_sc)
    ref_extent, ref_depth = oracle.strip_view(geom, ref.theta1, ref.theta2)
    bad_pose = bad_ratio = 0
    for d, r in zip(grid, ratios):
        st = kinematics.solve_joint_angles(geom, float(d))
        _, c, _, e = oracle.linkage(geom, st.theta1, st.theta2)
        bad_pose += not (abs(e.imag - (e0.imag - d)) <= CONSTRAINT_MM
                         and abs(c.real - c0.real) <= CONSTRAINT_MM)
        extent, depth = oracle.strip_view(geom, st.theta1, st.theta2)
        want = (ref_depth * max(0.0, extent)) / (depth * max(0.0, ref_extent))
        bad_ratio += not abs(r - want) <= 1e-12 * want
    checks.require(bad_pose == 0, f"{tag}: {bad_pose} poses miss the constraints")
    checks.require(bad_ratio == 0, f"{tag}: {bad_ratio} ratios differ from the strip view")

    # the sensing bounds hold at d_max and fail just beyond it.  d_max comes
    # from a bisection, so there the strip depth is within rounding of zero:
    # the reference formula is applied 1e-9 mm inside instead
    st = kinematics.solve_joint_angles(geom, d_max)
    checks.require(math.cos(st.gamma) >= 0.0 and st.p_D[1] > 0.0,
                   f"{tag}: sensing bounds fail at d_max")
    st = kinematics.solve_joint_angles(geom, d_max - INSIDE_MM)
    extent, depth = oracle.strip_view(geom, st.theta1, st.theta2)
    checks.require(extent >= 0.0 and depth > 0.0, f"{tag}: sensing bounds fail inside d_max")
    try:
        st = kinematics.solve_joint_angles(geom, d_max + BEYOND_MM)
    except SolverFailure:
        pass
    else:
        extent, depth = oracle.strip_view(geom, st.theta1, st.theta2)
        checks.require(extent < 0.0 or depth <= 0.0, f"{tag}: sensing bounds hold past d_max")

    if scale_lr:
        scaled = dataclasses.replace(geom, l_r=geom.l_r * 2.7)
        cam = sensing.calibrate_sc_reference(cfg.camera, scaled)
        checks.require([sensing.red_area_ratio(cam, scaled, float(d)) for d in grid] == ratios,
                       f"{tag}: scaling l_r changed a ratio")


def _check_cli_csv(checks, cfg, grid, ratios, text: str) -> None:
    fric = cfg.friction

    def fmt(x: float) -> str:
        return f"{x + 0.0:.6g}"  # + 0.0 turns -0.0 into 0.0

    def state(d: float) -> str:
        return "LC" if d <= fric.d_LC_end else ("SC" if d >= fric.d_SC_start else "Transition")

    want = ["d_mm,r_img_pct,contact_state"]
    want += [f"{fmt(d)},{fmt(r * 100.0)},{state(d)}" for d, r in zip(grid, ratios)]
    checks.require(text.splitlines() == want, "ratio-curve CSV differs from the in-process curve")


def _run_traced(seed: int, seconds: float) -> dict:
    """Each round is a new geometry, so untraced and traced rounds calibrate
    different ones; the overhead is the difference of their medians."""
    result, checks = harness.Result(), harness.Checks()
    tracer = spans.Tracer()
    with tracer.installed():
        cfg, stream = _setup(seed, tracer.call)
    done = []

    def do_round(call):
        geom = next(stream)
        done.append((geom, _attempt(cfg, geom, result, checks, call)))

    result.metrics = spans.traced_phase("geometry_calibration", tracer, seconds, MIN_ROUNDS,
                                        do_round)
    for geom, out in done[:2]:
        if out is not None:
            _check_curve(checks, cfg, geom, *out, scale_lr=False)
    geom, out = done[1]
    if out is not None:  # the traced curve again, untraced and warm
        cam = sensing.calibrate_sc_reference(cfg.camera, geom)
        again = [sensing.red_area_ratio(cam, geom, float(d)) for d in out[1]]
        checks.require(again == out[2], "traced and untraced ratio curves differ")
    return result.as_dict(checks)
