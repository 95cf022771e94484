"""Acceptance gate: the contractual behaviors, each with its runtime budget.

Each test re-derives its expectations from an independent oracle (exhaustive
grid scan, brute-force root scan, hand-simulated loop) or from published
anchor values, never from the code under test.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from cavs_sim.cli import main
from cavs_sim.config import parse_scenario
from cavs_sim.control import ContactState as Mode
from cavs_sim.control import ControllerConfig, control_step
from cavs_sim.friction import (ContactState, Direction, FrictionParams, ecmsf,
                               max_resistible_force, press_curve, pressing_force)
from cavs_sim.kinematics import CavsGeometry, rest_pose, solve_joint_angles
from cavs_sim.plant import (ObjectModel, ScenarioStep, equilibrium_solve, make_world,
                            records_to_csv, run_scenario)
from cavs_sim.sensing import (CameraModel, calibrate_sc_reference, detect_red_ratio,
                              red_area_ratio, render_synthetic_frame)
from oracles import compass, endpoints, equilibria_scan, hand_loop, solve_misfit_grid, widened_band

GEOM = CavsGeometry()
FRIC = FrictionParams()
CURVE = press_curve(FRIC, GEOM.d_sc)
CTRL = ControllerConfig()
OBJ = ObjectModel()
CAM = calibrate_sc_reference(CameraModel(), GEOM)


def _force(d):
    return pressing_force(CURVE, d)


def _ratio(d):
    return red_area_ratio(CAM, GEOM, d)


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.seconds


def test_normalization_at_the_sc_reference():
    with _Budget(1.0):
        assert abs(_ratio(GEOM.d_sc) - 1.0) < 1e-9


def test_ratio_curve_shape_and_lc_boundary():
    with _Budget(5.0):
        d = np.arange(0.0, 3.5 + 1e-12, 0.01)
        r = np.array([_ratio(float(x)) for x in d])
        assert np.all(np.diff(r) > 0)
        assert 0.40 <= _ratio(FRIC.d_LC_end) <= 0.48


def test_solver_residuals_and_grid_oracle_agreement():
    with _Budget(30.0):
        rp = rest_pose(GEOM)
        for d in np.linspace(0.0, 3.5, 350):
            st = solve_joint_angles(GEOM, float(d))
            _, ey, cx, _, _ = endpoints(GEOM, st.theta1, st.theta2)
            assert abs(ey - (rp.p_ey0_eff - d)) < 1e-9
            assert abs(cx - rp.p_cx0_eff) < 1e-9

        for d in np.linspace(0.07, 3.5, 50):
            d = float(d)
            st = solve_joint_angles(GEOM, d)

            def misfit(t1, t2):
                _, ey, cx, _, _ = endpoints(GEOM, t1, t2)
                return (ey - (rp.p_ey0_eff - d)) ** 2 + (cx - rp.p_cx0_eff) ** 2

            t1, t2, _ = solve_misfit_grid(GEOM, rp.p_ey0_eff - d, rp.p_cx0_eff, step=0.004)
            t1, t2 = compass(misfit, t1, t2, step=0.004, tol=1e-10)
            assert abs(st.theta1 - t1) < 1e-3
            assert abs(st.theta2 - t2) < 1e-3


def test_press_curve_anchors():
    with _Budget(1.0):
        assert float(_force(0.0)) == 0.0
        assert abs(float(_force(1.9)) - 1.43) < 1e-6
        assert abs(float(_force(3.3)) - 0.97) < 1e-6
        h = 1e-6
        for d in (1.9, 3.3):
            left = (3 * _force(d) - 4 * _force(d - h) + _force(d - 2 * h)) / (2 * h)
            right = (-3 * _force(d) + 4 * _force(d + h) - _force(d + 2 * h)) / (2 * h)
            assert abs(float(left)) < 1e-7
            assert abs(float(right)) < 1e-7


def test_friction_slope_ratios_and_ecmsf_decay():
    with _Budget(1.0):
        def slope(state, direction):
            lo = max_resistible_force(FRIC, state, direction, 1.0)
            hi = max_resistible_force(FRIC, state, direction, 2.0)
            return hi - lo

        for direction in Direction:
            assert slope(ContactState.SC, direction) > 2 * slope(ContactState.LC, direction)
        for state in (ContactState.LC, ContactState.SC):
            ratio = slope(state, Direction.longitudinal) / slope(state, Direction.lateral)
            assert 1.6 <= ratio <= 2.4
        for state in (ContactState.LC, ContactState.SC):
            for direction in Direction:
                assert FRIC.adhesion[(state, direction)] > 0
                f = np.linspace(0.05, 5.0, 400)
                e = [ecmsf(max_resistible_force(FRIC, state, direction, float(x)), float(x))
                     for x in f]
                assert all(a > b for a, b in zip(e, e[1:]))


def test_deadband_branch_table_and_fuzz():
    with _Budget(1.0):
        assert control_step(CTRL, 0.37, Mode.LC).delta_d_f == -0.5
        assert control_step(CTRL, 0.404, Mode.LC).delta_d_f == 0.0
        assert control_step(CTRL, 1.02, Mode.SC).delta_d_f == 0.25

        rng = np.random.default_rng(0)
        rs = np.concatenate([np.arange(0.0, 1.5 + 1e-12, 1e-4), rng.uniform(0, 1.5, 20000)])
        for mode in (Mode.LC, Mode.SC):
            target = CTRL.target(mode)
            for r in rs:
                cmd = control_step(CTRL, float(r), mode).delta_d_f
                err = r - target
                if err > CTRL.epsilon:
                    assert cmd == CTRL.step_open
                elif err < -CTRL.epsilon:
                    assert cmd == CTRL.step_close
                else:
                    assert cmd == 0.0


def _loop_run(d0: float, mode: Mode, n_ticks: int):
    squeeze = 2 * d0 + float(_force(d0)) / OBJ.stiffness
    gap0 = OBJ.nominal_width - squeeze
    world = make_world(GEOM, CameraModel(), FRIC, CTRL, OBJ, initial_gap=gap0)
    recs, _ = run_scenario(world, [ScenarioStep("leg", mode, n_ticks * 0.1)])
    return gap0, recs


def test_closed_loop_convergence_both_ways():
    with _Budget(5.0):
        bands = {mode: widened_band(_ratio, _force, OBJ.stiffness, CTRL.epsilon,
                                    CTRL.target(mode), CTRL.step_open, CTRL.step_close,
                                    d_lo=0.3, d_hi=3.55)
                 for mode in (Mode.LC, Mode.SC)}
        # the windows are usable: they never overlap across the two targets
        assert bands[Mode.LC] < 0.2 and bands[Mode.SC] < 0.3
        assert CTRL.r_target_SC - bands[Mode.SC] > CTRL.r_target_LC + bands[Mode.LC]
        for d0, mode in ((GEOM.d_sc, Mode.LC), (0.5, Mode.SC)):
            band = bands[mode]
            gap0, recs = _loop_run(d0, mode, 500)
            target = CTRL.target(mode)
            left, right = recs[0::2], recs[1::2]
            inside = [abs(l.r_img_pct / 100 - target) <= band
                      and abs(r.r_img_pct / 100 - target) <= band
                      for l, r in zip(left, right)]
            entered = inside.index(True)
            assert entered <= 50
            assert all(inside[entered:])
            # the loop is symmetric and noise-free: a hand simulation of the
            # deadband rule must reproduce every measurement and move
            oracle = hand_loop(_ratio, _force, OBJ.stiffness, OBJ.nominal_width,
                               target, CTRL.epsilon, CTRL.step_open, CTRL.step_close,
                               gap0, 500)
            for rec, (r_hand, d_hand) in zip(left, oracle):
                assert abs(rec.r_img_pct / 100 - r_hand) < 1e-9
                assert abs(rec.deformation_mm - d_hand) < 1e-9


def test_sensing_detector_and_invariance():
    with _Budget(5.0):
        cam = calibrate_sc_reference(CameraModel(focal_px=100.0), GEOM)
        tol = 2.0 / cam.w_SCimg
        for d in np.arange(0.0, 3.5 + 1e-12, 0.05):
            frame = render_synthetic_frame(cam, GEOM, float(d))
            assert abs(detect_red_ratio(frame, cam) - red_area_ratio(cam, GEOM, float(d))) <= tol

        probe = [0.4, 1.2, 1.9, 2.8, 3.5]
        base = [_ratio(d) for d in probe]
        for scale in (0.5, 2.0, 3.7):
            g2 = dataclasses.replace(GEOM, l_r=GEOM.l_r * scale)
            c2 = calibrate_sc_reference(CameraModel(), g2)
            assert [red_area_ratio(c2, g2, d) for d in probe] == base
            c3 = calibrate_sc_reference(CameraModel(focal_px=300.0 * scale), GEOM)
            assert [red_area_ratio(c3, GEOM, d) for d in probe] == base


def test_snap_through_sweep_matches_root_scan():
    with _Budget(30.0):
        soft = ObjectModel(nominal_width=30.0, stiffness=0.12)
        gaps_down = np.arange(16.5, 13.5 - 1e-9, -0.05)
        sweep = [float(g) for g in gaps_down] + [float(g) for g in gaps_down[::-1]]

        def follow_oracle(memory, roots):
            def rank(root):
                dist = math.hypot(root[0] - memory[0], root[1] - memory[1])
                return (round(dist, 9), round(root[0] + root[1], 9), root[0])
            return min(roots, key=rank)

        mem_pkg = (0.0, 0.0)
        mem_orc = (0.0, 0.0)
        down, up = [], []
        for i, g in enumerate(sweep):
            st = equilibrium_solve(FRIC, soft, g / 2, g / 2, mem_pkg, d_sc=GEOM.d_sc)
            mem_pkg = st.branch_memory
            roots = equilibria_scan(_force, soft.stiffness, 30.0 - g)
            picked = follow_oracle(mem_orc, roots)
            mem_orc = picked
            assert abs(st.d_left - picked[0]) < 1e-6
            assert abs(st.d_right - picked[1]) < 1e-6
            (down if i < len(gaps_down) else up).append(st.d_left + st.d_right)

        d_down = np.asarray(down)[::-1]  # ascending gap
        d_up = np.asarray(up)
        loop = d_up - d_down  # trapezoid rule, written out: np.trapezoid needs numpy 2
        area = float(np.sum(np.diff(gaps_down[::-1]) * (loop[1:] + loop[:-1]) / 2.0))
        assert area > 0.0
        assert float(np.max(np.abs(d_up - d_down))) > 1.0  # genuinely path-dependent


def _bundled_scenario():
    ref = resources.files("cavs_sim") / "scenarios" / "tube_5step.json"
    return parse_scenario(json.loads(ref.read_text(encoding="utf-8")))


GOLDEN_CSV_SHA256 = "efe24b78d69ff4ffeb90a9e9dd42b3734a504be52606f634f864b49104a3eaba"
# what each command prints, or writes to --out for render, with the default
# config; control-demo's CSV is GOLDEN_CSV_SHA256
GOLDEN_CLI_SHA256 = {
    "control-demo": "9ac9f842ec2414e8607465c86d3b688b7dd62a8872533287b2e584e13e123b84",
    "ratio-curve": "00500756466f2b8a704da84bbe4cd5d4afb3186c6bf358ff05ecda9b29166ec2",
    "press-curve": "70e385f0398f7512394233e15da3ccffda2eda494a4c8b4346c283f711f2ba4d",
    "anisotropy": "194658f167f9708e0a7351d2a47751e7595545885cb5234b94e5157edceee1b6",
    "solve --d 1.9": "5d1dd9b69337576eb0f34605e11af02769555367d705bee5987166c740d1d97f",
    "render --d 1.2": "7c91936c74920e1cd8ddd83655b453cb40286c60f17def9e6cddce076a3ac599",
}


def _run(steps, scenario, seed=0):
    world = make_world(GEOM, CameraModel(), FRIC, CTRL, OBJ,
                       initial_gap=scenario.initial_gap_mm, seed=seed)
    return run_scenario(world, list(steps), scenario.tick_dt_s)


def test_every_default_cli_output_is_pinned(tmp_path, capsys):
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    with _Budget(10.0):
        for command, want in GOLDEN_CLI_SHA256.items():
            name = command.split()[0]
            out = tmp_path / name
            writes = name in ("control-demo", "render")
            assert main(command.split() + (["--out", str(out)] if writes else [])) == 0
            printed = capsys.readouterr().out.encode("utf-8")
            assert sha256(out.read_bytes() if name == "render" else printed) == want, command
        assert sha256((tmp_path / "control-demo").read_bytes()) == GOLDEN_CSV_SHA256


def test_bundled_scenario_reproduction():
    with _Budget(10.0):
        scenario = _bundled_scenario()
        records, summaries = _run(scenario.steps, scenario)
        assert len(summaries) == 5
        for s in summaries:
            assert s.entered_band_tick is not None
            if s.target_mode is ContactState.SC:
                assert s.grasp_maintained
            else:
                assert s.slide_achieved

        # deterministic artifact under a fixed seed, equal to the golden CSV
        # that `cavs-sim control-demo` writes with the default config
        records2, _ = _run(scenario.steps, scenario)
        text = records_to_csv(records)
        assert text == records_to_csv(records2)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_CSV_SHA256

        # the disturbance only ever enters through its own finger's commands
        idx = next(i for i, s in enumerate(scenario.steps) if s.disturbance is not None)
        dist = scenario.steps[idx].disturbance
        calm = [dataclasses.replace(s, disturbance=None) if i == idx else s
                for i, s in enumerate(scenario.steps)]
        nominal, _ = _run(calm, scenario)
        tick = scenario.tick_dt_s
        start = sum(round(s.duration_s / tick) for s in scenario.steps[:idx])
        lo = start + round(dist.t_offset_s / tick)
        hi = lo + max(1, round((dist.duration_s or tick) / tick))
        split = {"left": (records[0::2], nominal[0::2]),
                 "right": (records[1::2], nominal[1::2])}
        hit, calm_cmds = split[dist.finger]
        other, other_calm = split["left" if dist.finger == "right" else "right"]
        flips = [i for i in range(len(hit))
                 if hit[i].delta_df_mm != calm_cmds[i].delta_df_mm]
        assert flips and lo <= flips[0] < hi
        first = flips[0]
        assert all(other[i].delta_df_mm == other_calm[i].delta_df_mm
                   for i in range(first + 1))
