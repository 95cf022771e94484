"""Command-line front end.

Subcommands: ratio-curve, press-curve, anisotropy, control-demo, render,
solve.  Common flags: --config PATH (JSON, defaults when omitted),
--out PATH (stdout for CSV emitters when omitted; required for render and
control-demo), --seed N (overrides the config seed).

Exit codes: 0 success, 2 configuration/validation error or a request too
large for the memory at hand, 3 solver failure, 4 I/O error; non-zero exits
print a single-line diagnostic to stderr.
Output files are written atomically (temp file + rename), so a failing run
never leaves partial artifacts.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from .config import MAX_MAGNITUDE, Config, ConfigError, Scenario, load_config, load_scenario, \
    parse_scenario
from .friction import ContactState, Direction, classify_contact_state, ecmsf, \
    max_resistible_force, press_curve, pressing_force
from .kinematics import CavsGeometry, GeometryInfeasible, SolverFailure, deformation_limits, \
    projected_width_wx, solve_joint_angles
from .plant import StepSummary, _csv_text, _fmt6, make_world, records_to_csv, run_scenario
from .sensing import BehindCamera, NotCalibrated, calibrate_sc_reference, frame_to_ppm, \
    image_width_wimg, red_area_ratio, render_synthetic_frame

_BUNDLED_SCENARIO = "tube_5step.json"


def _write_atomic(path: str, data: bytes) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text.encode("utf-8"))


_MAX_GRID_STEPS = 1_000_000


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo to hi in about `step` increments.  A step that is not positive,
    or a grid of more than _MAX_GRID_STEPS steps, is refused before anything
    is allocated."""
    if not step > 0:
        raise ConfigError(f"--step must be positive, got {step:g}")
    steps = (hi - lo) / step  # inf when the quotient overflows
    if not steps <= _MAX_GRID_STEPS:
        raise ConfigError(f"--step {step:g} makes {steps:,.0f} grid steps, more than the "
                          f"limit of {_MAX_GRID_STEPS:,}")
    return np.linspace(lo, hi, max(1, round(steps)) + 1)


def _check_depth(geom: CavsGeometry, d: float, flag: str) -> None:
    """Reject a depth past the branch's deformation limit before any solve,
    so such a depth exits 2, not 3."""
    d_max = deformation_limits(geom)[1]
    if d > d_max:
        raise ConfigError(f"{flag} {d:g} beyond deformation limit {d_max:g}")


def cmd_ratio_curve(cfg: Config, args) -> str:
    geom, cam = cfg.geometry, calibrate_sc_reference(cfg.camera, cfg.geometry)
    d_min = 0.0 if args.d_min is None else args.d_min
    d_max = geom.d_sc if args.d_max is None else args.d_max
    if not 0 <= d_min < d_max:
        raise ConfigError(f"need 0 <= d-min < d-max, got [{d_min:g}, {d_max:g}]")
    _check_depth(geom, d_max, "--d-max")
    rows = []
    for d in _grid(d_min, d_max, args.step):
        r = red_area_ratio(cam, geom, float(d))
        rows.append((_fmt6(d), _fmt6(r * 100.0),
                     classify_contact_state(cfg.friction, float(d)).value))
    return _csv_text(("d_mm", "r_img_pct", "contact_state"), rows)


def cmd_press_curve(cfg: Config, args) -> str:
    d_max = cfg.geometry.d_sc if args.d_max is None else args.d_max
    if not d_max > 0:
        raise ConfigError(f"--d-max must be positive, got {d_max:g}")
    grid = _grid(0.0, d_max, args.step)
    forces = pressing_force(press_curve(cfg.friction, cfg.geometry.d_sc), grid)
    return _csv_text(("d_mm", "force_N"), [(_fmt6(d), _fmt6(f)) for d, f in zip(grid, forces)])


def cmd_anisotropy(cfg: Config, args) -> str:
    if not args.f_min > 0:
        raise ConfigError(f"--f-min must be positive, got {args.f_min:g}")
    if not args.f_min < args.f_max:
        raise ConfigError("need --f-min < --f-max")
    rows = []
    for direction in (Direction.lateral, Direction.longitudinal):
        for state in (ContactState.LC, ContactState.SC):
            for f in _grid(args.f_min, args.f_max, args.step):
                f_max = max_resistible_force(cfg.friction, state, direction, float(f))
                rows.append((direction.value, state.value, _fmt6(f), _fmt6(f_max),
                             _fmt6(ecmsf(f_max, float(f)))))
    return _csv_text(("direction", "state", "f_nslip_N", "f_max_N", "ecmsf"), rows)


def _summary_lines(summaries: list[StepSummary]) -> str:
    lines = []
    for i, s in enumerate(summaries, start=1):
        entered = "never" if s.entered_band_tick is None else str(s.entered_band_tick)
        if s.target_mode is ContactState.SC:
            flag = f"grasp_maintained={'yes' if s.grasp_maintained else 'NO'}"
        else:
            flag = f"slide_achieved={'yes' if s.slide_achieved else 'NO'}"
        lines.append(
            f"step {i} {s.name!r} target={s.target_mode.value} ticks={s.n_ticks} "
            f"entered_band_tick={entered} {flag} band_occupancy={s.band_occupancy:.3f}")
    return "\n".join(lines) + "\n"


def cmd_control_demo(cfg: Config, args) -> None:
    if args.out is None:
        raise ConfigError("control-demo requires --out for the time-series CSV")
    if args.scenario is None:
        ref = resources.files("cavs_sim").joinpath("scenarios").joinpath(_BUNDLED_SCENARIO)
        scenario = _parse_bundled(ref)
    else:
        scenario = load_scenario(args.scenario)
    seed = cfg.seed if args.seed is None else args.seed
    world = make_world(cfg.geometry, cfg.camera, cfg.friction, cfg.controller, cfg.object,
                       initial_gap=scenario.initial_gap_mm, seed=seed)
    records, summaries = run_scenario(world, list(scenario.steps), scenario.tick_dt_s)
    _write_atomic(args.out, records_to_csv(records).encode("utf-8"))
    sys.stdout.write(_summary_lines(summaries))


def _parse_bundled(ref) -> Scenario:
    return parse_scenario(json.loads(ref.read_text(encoding="utf-8")))


def cmd_render(cfg: Config, args) -> None:
    if args.out is None:
        raise ConfigError("render requires --out for the PPM file")
    if args.d is None or args.d < 0:
        raise ConfigError("render requires --d >= 0")
    _check_depth(cfg.geometry, args.d, "--d")
    cam = calibrate_sc_reference(cfg.camera, cfg.geometry)
    frame = render_synthetic_frame(cam, cfg.geometry, args.d)
    _write_atomic(args.out, frame_to_ppm(frame))


def cmd_solve(cfg: Config, args) -> str:
    if args.d is None or args.d < 0:
        raise ConfigError("solve requires --d >= 0")
    geom = cfg.geometry
    _check_depth(geom, args.d, "--d")
    cam = calibrate_sc_reference(cfg.camera, geom)
    state = solve_joint_angles(geom, args.d)
    lines = [
        f"d_mm={_fmt6(state.d)}",
        f"theta1_rad={state.theta1:.9f}",
        f"theta2_rad={state.theta2:.9f}",
        f"gamma_rad={state.gamma:.9f}",
        f"w_x_mm={_fmt6(projected_width_wx(state, geom))}",
        f"p_dy_mm={_fmt6(state.p_D[1])}",
        f"w_img_px={_fmt6(image_width_wimg(cam, state, geom))}",
        f"r_img_pct={_fmt6(red_area_ratio(cam, geom, args.d) * 100.0)}",
    ]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavs-sim",
        description="Variable-friction fingertip simulator (kinematics, sensing, control, gripper plant)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run) -> None:
        p.set_defaults(run=run)  # the command's function, called by main
        p.add_argument("--config", metavar="PATH", help="JSON config (defaults when omitted)")
        p.add_argument("--out", metavar="PATH", help="output path")
        p.add_argument("--seed", type=int, metavar="N", help="override config seed")

    p = sub.add_parser("ratio-curve", help="deformation -> red-area-ratio CSV")
    add_common(p, cmd_ratio_curve)
    p.add_argument("--d-min", type=float, default=None)
    p.add_argument("--d-max", type=float, default=None, help="default: d_sc")
    p.add_argument("--step", type=float, default=0.01)

    p = sub.add_parser("press-curve", help="deformation -> press-force CSV")
    add_common(p, cmd_press_curve)
    p.add_argument("--d-max", type=float, default=None, help="default: d_sc")
    p.add_argument("--step", type=float, default=0.01)

    p = sub.add_parser("anisotropy", help="f_nslip -> f_MAX / ECMSF table")
    add_common(p, cmd_anisotropy)
    p.add_argument("--f-min", type=float, default=0.1)
    p.add_argument("--f-max", type=float, default=5.0)
    p.add_argument("--step", type=float, default=0.1)

    p = sub.add_parser("control-demo", help="closed-loop scenario -> time-series CSV + summary")
    add_common(p, cmd_control_demo)
    p.add_argument("--scenario", metavar="PATH", help="scenario JSON (bundled 5-step when omitted)")

    p = sub.add_parser("render", help="synthetic camera frame -> PPM")
    add_common(p, cmd_render)
    p.add_argument("--d", type=float, help="deformation in mm")

    p = sub.add_parser("solve", help="print angles/ratio for one deformation")
    add_common(p, cmd_solve)
    p.add_argument("--d", type=float, help="deformation in mm")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, val in vars(args).items():
            if isinstance(val, float) and not abs(val) <= MAX_MAGNITUDE:  # NaN fails too
                raise ConfigError(f"--{name.replace('_', '-')} must be finite and within "
                                  f"+/-{MAX_MAGNITUDE:g}, got {val!r}")
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        # the text commands return their text; control-demo and render
        # write their own output and return None
        text = args.run(cfg, args)
        if text is not None:
            _emit(text, args.out)
        return 0
    except (ConfigError, GeometryInfeasible, NotCalibrated, BehindCamera) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; ask for a smaller grid or scenario", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
