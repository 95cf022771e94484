"""Equilibrium solver, snap-through hysteresis, and the closed scenario loop."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavs_sim import plant
from cavs_sim.config import parse_scenario
from cavs_sim.control import ControllerConfig
from cavs_sim.friction import (ContactState, Direction, FrictionParams,
                               max_resistible_force, press_curve, pressing_force)
from cavs_sim.kinematics import CavsGeometry
from cavs_sim.plant import (CSV_COLUMNS, NO_CONTACT, Disturbance, ObjectModel, PlantState,
                            ScenarioStep, TimeSeriesRecord, default_slide_demand,
                            equilibrium_solve, make_world, records_to_csv, run_scenario,
                            scenario_step, slide_check)
from cavs_sim.sensing import CameraModel, red_area_ratio
from oracles import equilibria_grid_bisection, equilibria_scan

GEOM = CavsGeometry()
FRIC = FrictionParams()
CURVE = press_curve(FRIC, GEOM.d_sc)
OBJ = ObjectModel()
# soft + wide enough that the press-curve dip folds the equilibrium branch
SOFT = ObjectModel(nominal_width=30.0, stiffness=0.12)


def _force(d):
    return pressing_force(CURVE, d)


def _default_world(**kw):
    return make_world(GEOM, CameraModel(), FRIC, ControllerConfig(), OBJ, **kw)


# ---------------------------------------------------------------- equilibrium

def test_no_contact_and_gap_validation():
    assert equilibrium_solve(FRIC, OBJ, 4.0, 4.0, d_sc=GEOM.d_sc) is NO_CONTACT  # gap == width
    assert equilibrium_solve(FRIC, OBJ, 5.0, 5.0, (1.0, 2.0), d_sc=GEOM.d_sc) is NO_CONTACT
    with pytest.raises(ValueError):
        equilibrium_solve(FRIC, OBJ, -1.0, 0.5, d_sc=GEOM.d_sc)
    assert not NO_CONTACT.contact
    assert NO_CONTACT.d_left == NO_CONTACT.d_right == 0.0
    assert NO_CONTACT.f_n_left == NO_CONTACT.f_n_right == 0.0
    assert NO_CONTACT.branch_memory == (0.0, 0.0)


def test_plant_state_is_the_equilibrium_alone():
    assert [f.name for f in dataclasses.fields(PlantState)] == \
        ["d_left", "d_right", "f_n_left", "f_n_right", "contact"]
    assert isinstance(PlantState.branch_memory, property)
    st = equilibrium_solve(FRIC, OBJ, 1.0, 1.5, d_sc=GEOM.d_sc)
    assert st.contact
    assert st.branch_memory == (st.d_left, st.d_right)


def test_rigid_object_limit():
    # k -> inf: compression vanishes, each finger takes half the squeeze
    rigid = ObjectModel(nominal_width=8.0, stiffness=1e6)
    st = equilibrium_solve(FRIC, rigid, 0.5, 0.5, d_sc=GEOM.d_sc)
    assert st.d_left == pytest.approx(3.5, abs=1e-4)
    assert st.d_right == pytest.approx(st.d_left, abs=1e-9)
    assert st.f_n_left == pytest.approx(float(_force(st.d_left)), abs=1e-12)


@pytest.mark.parametrize("obj,gap", [
    (OBJ, 7.0), (OBJ, 5.0), (OBJ, 3.0), (OBJ, 1.0), (OBJ, 0.3425),
    (SOFT, 16.0), (SOFT, 15.3), (SOFT, 15.0), (SOFT, 14.3), (SOFT, 14.0),
])
def test_force_balance_and_closure_residuals(obj, gap):
    st = equilibrium_solve(FRIC, obj, gap / 2, gap / 2, d_sc=GEOM.d_sc)
    squeeze = obj.nominal_width - gap
    assert abs(st.f_n_left - st.f_n_right) < 1e-7
    assert abs(st.f_n_left - float(_force(st.d_left))) < 1e-12
    compression = st.f_n_left / obj.stiffness
    assert abs(st.d_left + st.d_right + compression - squeeze) < 1e-7


@pytest.mark.parametrize("obj,squeeze", [
    (OBJ, 1.0), (OBJ, 3.0), (OBJ, 5.0), (OBJ, 7.0), (OBJ, 7.6575),
    (SOFT, 14.0), (SOFT, 14.7), (SOFT, 15.0), (SOFT, 15.7), (SOFT, 16.0),
    # only the first scan node has d_right >= 0: the root lies where the
    # d_right clamp sets in
    (SOFT, 0.00127), (SOFT, 0.0105),
])
def test_every_oracle_root_is_reachable(obj, squeeze):
    # seeding the branch memory at an independently-found root must return
    # exactly that root: the solver's enumeration misses nothing
    roots = equilibria_scan(_force, obj.stiffness, squeeze)
    assert roots
    pos = (obj.nominal_width - squeeze) / 2
    for d_l, d_r in roots:
        st = equilibrium_solve(FRIC, obj, pos, pos, (d_l, d_r), d_sc=GEOM.d_sc)
        assert st.d_left == pytest.approx(d_l, abs=1e-6)
        assert st.d_right == pytest.approx(d_r, abs=1e-6)


def test_cold_memory_picks_smallest_root():
    # squeeze 15.0 has nine equilibria; from (0, 0) the nearest is the
    # shallow symmetric one
    pos = (30.0 - 15.0) / 2
    st = equilibrium_solve(FRIC, SOFT, pos, pos, d_sc=GEOM.d_sc)
    roots = equilibria_scan(_force, SOFT.stiffness, 15.0)
    d_sym = min(roots, key=lambda r: math.hypot(*r))
    assert st.d_left == pytest.approx(d_sym[0], abs=1e-6)
    assert st.d_right == pytest.approx(d_sym[1], abs=1e-6)


def test_equidistant_tie_breaks_toward_smaller_left():
    # memory on the symmetry diagonal is exactly equidistant from a mirrored
    # root pair; the solver must pick the smaller d_left deterministically
    pos = (30.0 - 14.0) / 2
    st = equilibrium_solve(FRIC, SOFT, pos, pos, (2.2, 2.2), d_sc=GEOM.d_sc)
    assert st.d_left < st.d_right
    assert st.d_left == pytest.approx(1.222803, abs=1e-4)
    assert st.d_right == pytest.approx(2.542803, abs=1e-4)


def _roots(obj, gap):
    """The root list equilibrium_solve enumerates at this gap."""
    memo = {}
    equilibrium_solve(FRIC, obj, gap / 2, gap / 2, d_sc=GEOM.d_sc, memo=memo)
    (roots,) = memo.values()
    return roots


@pytest.mark.parametrize("obj,gaps", [
    # perfbench's soft sweep (gaps 12-17 mm) moved off its 0.05 mm grid
    (SOFT, np.arange(12.0137, 17.0, 0.05)),
    (OBJ, np.arange(0.0137, 8.0, 0.05)),
], ids=["soft", "default"])
def test_enumeration_matches_the_grid_bisection_reference(obj, gaps):
    # the scan cut at the clamp point and the secant refinement find the
    # same roots as the full scan with 60 bisection steps per bracket
    for gap in gaps:
        gap = float(gap)
        roots = _roots(obj, gap)
        ref = equilibria_grid_bisection(_force, obj.stiffness, obj.nominal_width - gap)
        assert len(roots) == len(ref), gap
        assert np.max(np.abs(np.subtract(roots, ref)), initial=0.0) <= 1e-12, gap


@given(x1=st.floats(0.1, 5.0), band=st.floats(0.05, 5.0), f_min=st.floats(0.05, 3.0),
       f_rise=st.floats(0.01, 3.0), tail=st.floats(0.05, 3.0),
       k=st.floats(0.01, 100.0), squeeze=st.floats(1e-3, 40.0))
@settings(max_examples=150, deadline=None)
def test_no_root_past_the_scan_cut(x1, band, f_min, f_rise, tail, k, squeeze):
    # past the cut the closure clamps d_right to zero, so every grid node
    # the scan drops has a negative residual and no bracket is lost
    fric = FrictionParams(d_LC_end=x1, d_SC_start=x1 + band,
                          f_local_max=f_min + f_rise, f_local_min=f_min)
    curve = press_curve(fric, x1 + band + tail)
    dl = np.linspace(0.0, squeeze, max(3, int(squeeze / 1e-3) + 2))
    dl = dl[dl > plant._scan_cut(curve, k, squeeze)]
    f = pressing_force(curve, dl)
    d_right = squeeze - dl - f / k
    assert np.all(d_right <= 1e-12 * squeeze)  # zero or below, up to rounding
    h = pressing_force(curve, np.maximum(d_right, 0.0)) - f
    assert np.all(h < 0.0)


@pytest.mark.parametrize("gap", [16.0, 15.3, 15.0, 14.3, 14.0, 13.0])
def test_soft_solve_spends_few_force_calls_per_root(gap, monkeypatch):
    # the secant refinement takes 12-14 press-force evaluations per root at
    # these gaps and 60-step bisection took 121; 30 leaves room but not for that
    calls = []
    real = plant.press_force_scalar

    def counted(curve, x):
        calls.append(x)
        return real(curve, x)

    monkeypatch.setattr(plant, "press_force_scalar", counted)
    roots = _roots(SOFT, gap)
    assert len(calls) <= 30 * len(roots)


@pytest.mark.xfail(strict=True, reason="known defect: roots closer together than the "
                   "1e-3 mm scan step are missed (ROADMAP, direction 3)")
def test_close_root_triple_near_the_diagonal_is_resolved():
    # at this gap three roots lie within 6e-4 mm of each other around the
    # symmetric one; the oracle scan (1e-4 mm) would hide a pair one decade
    # closer, so the check is a local scan at 1e-7 mm
    gap, memory = 15.3171, (3.30914, 3.30914)
    squeeze = SOFT.nominal_width - gap
    dl = np.linspace(3.29, 3.31, 200_001)
    f = _force(dl)
    h = _force(np.maximum(squeeze - dl - f / SOFT.stiffness, 0.0)) - f
    near = [float(dl[i]) for i in np.nonzero(np.sign(h[:-1]) != np.sign(h[1:]))[0]]
    assert len(near) == 3
    pairs = [(d, squeeze - d - float(_force(d)) / SOFT.stiffness) for d in near]
    d_sym = min(pairs, key=lambda r: math.hypot(r[0] - memory[0], r[1] - memory[1]))
    assert d_sym[0] == pytest.approx(3.29978, abs=1e-5)
    assert d_sym[1] == pytest.approx(d_sym[0], abs=1e-6)

    memo = {}
    st = equilibrium_solve(FRIC, SOFT, gap / 2, gap / 2, memory, d_sc=GEOM.d_sc, memo=memo)
    (roots,) = memo.values()
    assert [r[0] for r in roots if 3.29 <= r[0] <= 3.31] == pytest.approx(near, abs=1e-6)
    assert (st.d_left, st.d_right) == pytest.approx(d_sym, abs=1e-6)


@pytest.mark.xfail(strict=True, reason="known defect: roots closer together than the "
                   "1e-3 mm scan step are missed (ROADMAP, direction 3)")
def test_close_root_pair_off_the_diagonal_is_resolved():
    # at this gap the mirror images of the two roots near d_left = 2 lie
    # 4.4e-4 mm apart near d_left = 3.418, inside one cell of the scan
    gap = 12.7210
    want = equilibria_scan(_force, SOFT.stiffness, SOFT.nominal_width - gap)
    assert len(want) == 5
    assert [r[0] for r in _roots(SOFT, gap)] == pytest.approx([r[0] for r in want], abs=1e-6)


def test_snap_through_hysteresis_sweep():
    gaps_close = np.arange(16.5, 13.5 - 1e-9, -0.05)
    gaps_open = gaps_close[::-1]
    mem = (0.0, 0.0)
    totals = {}
    snaps = {}
    for phase, gaps in (("close", gaps_close), ("open", gaps_open)):
        tot, jumps_at = [], []
        for g in gaps:
            st = equilibrium_solve(FRIC, SOFT, g / 2, g / 2, mem, d_sc=GEOM.d_sc)
            # a jump of more than 1 mm from the memory is a snap; a cold
            # memory never counts as one
            if mem != (0.0, 0.0) and math.hypot(st.d_left - mem[0], st.d_right - mem[1]) > 1.0:
                jumps_at.append(float(g))
            mem = st.branch_memory
            tot.append(st.d_left + st.d_right)
        totals[phase] = np.asarray(tot)
        snaps[phase] = jumps_at

    # exactly one jump per direction, at different gaps: path dependence
    assert len(snaps["close"]) == 1 and len(snaps["open"]) == 1
    assert 13.9 < snaps["close"][0] < 14.3
    assert 15.3 < snaps["open"][0] < 15.7
    assert snaps["open"][0] - snaps["close"][0] > 1.0

    # reopening rides the deep branch: loop area strictly positive
    d_close = totals["close"][::-1]  # ascending gap
    d_open = totals["open"]
    loop = d_open - d_close  # trapezoid rule, written out: np.trapezoid needs numpy 2
    area = float(np.sum(np.diff(gaps_open) * (loop[1:] + loop[:-1]) / 2.0))
    assert area > 1.0
    assert np.all(d_open - d_close > -1e-9)

    # every visited state is a true equilibrium per the brute-force scan
    for phase, gaps in (("close", gaps_close), ("open", gaps_open)):
        for g, tot in zip(gaps[::6], totals[phase][::6]):
            roots = equilibria_scan(_force, SOFT.stiffness, 30.0 - float(g))
            assert min(abs(a + b - tot) for a, b in roots) < 1e-6


def test_tiny_squeeze_still_solves():
    st = equilibrium_solve(FRIC, OBJ, 3.9995, 3.9995, d_sc=GEOM.d_sc)
    assert 0 < st.d_left < 1e-3
    assert abs(st.f_n_left - st.f_n_right) < 1e-7


# ---------------------------------------------------------------- slide check

def test_slide_check_hand_values():
    # LC finger at d=1.0: mu 1.0 * F + 0.15; SC finger at 3.5: 2.2 * F + 0.15
    f1 = float(_force(1.0))
    st = PlantState(1.0, 3.5, f1, 1.89)
    out = slide_check(FRIC, OBJ, st, Direction.longitudinal, 2.0)
    assert out.capacity_left == pytest.approx(1.0 * f1 + 0.15, abs=1e-12)
    assert out.capacity_right == pytest.approx(2.2 * 1.89 + 0.15, abs=1e-12)
    assert not out.holds_left and out.holds_right
    assert out.grasp_maintained
    # grasp fails only when the combined capacity cannot meet the hold demand
    greedy = ObjectModel(required_hold_force=6.0)
    assert not slide_check(FRIC, greedy, st, Direction.longitudinal, 2.0).grasp_maintained


def test_default_slide_demand_splits_the_modes():
    ctrl = ControllerConfig()
    demand = default_slide_demand(GEOM, FRIC, ctrl)
    assert demand == pytest.approx(2.9390983048048103, rel=1e-12)
    sc_cap = max_resistible_force(FRIC, ContactState.SC, Direction.longitudinal,
                                  float(_force(GEOM.d_sc)))
    assert demand < sc_cap  # holds in SC
    # slides at the LC operating point: capacity there is below the demand
    lc_cap = 2 * demand - sc_cap
    assert 0 < lc_cap < demand


# ---------------------------------------------------------------- scenario loop

def test_scenario_step_mechanics():
    w = _default_world(initial_gap=6.0)
    step = ScenarioStep("grip", ContactState.SC, 1.0)
    recs = scenario_step(w, step)
    assert len(recs) == 20  # two records per tick
    left, right = recs[0::2], recs[1::2]
    assert [r.finger for r in recs[:4]] == ["left", "right", "left", "right"]
    assert [r.time_s for r in left] == pytest.approx([0.1 * i for i in range(10)])
    assert all(l.time_s == r.time_s for l, r in zip(left, right))
    # positions integrate the logged commands (floored at the object center)
    pos = 3.0
    for r in left:
        pos = max(0.0, pos + r.delta_df_mm)
        assert r.finger_pos_mm == pytest.approx(pos, abs=1e-12)
    # the ratio column is the pre-move measurement of the previous tick's state
    for prev, cur in zip(left, left[1:]):
        expect = 100.0 * red_area_ratio(w.cam, GEOM, prev.deformation_mm)
        assert cur.r_img_pct == pytest.approx(expect, rel=1e-12)
    # logged deformation re-solves from the logged positions
    for l, r in list(zip(left, right))[:3]:
        st = equilibrium_solve(FRIC, OBJ, l.finger_pos_mm, r.finger_pos_mm,
                               (l.deformation_mm, r.deformation_mm), d_sc=GEOM.d_sc)
        assert st.d_left == pytest.approx(l.deformation_mm, abs=1e-9)


def test_sc_start_holds_without_motion():
    # fingers already at the SC target: every command is exactly zero
    squeeze = 2 * 3.5 + float(_force(3.5)) / OBJ.stiffness
    w = _default_world(initial_gap=OBJ.nominal_width - squeeze)
    recs = scenario_step(w, ScenarioStep("hold", ContactState.SC, 2.0))
    assert all(r.delta_df_mm == 0.0 for r in recs)
    assert all(r.finger_pos_mm == recs[0].finger_pos_mm for r in recs)
    assert all(abs(r.r_img_pct - 100.0) < 1e-6 for r in recs)
    assert all(r.contact_state is ContactState.SC for r in recs)


def _two_phase_run(seed=0):
    w = _default_world(seed=seed)
    recs, summaries = run_scenario(w, [ScenarioStep("grip", ContactState.SC, 10.0),
                                       ScenarioStep("slide", ContactState.LC, 10.0)])
    return w, recs, summaries


def test_two_phase_summaries():
    _, recs, (sc, lc) = _two_phase_run()
    assert sc.entered_band_tick == 9 and sc.band_occupancy == 1.0
    assert sc.grasp_maintained and not sc.slide_achieved
    assert lc.entered_band_tick == 5 and lc.band_occupancy == 1.0
    assert lc.grasp_maintained and lc.slide_achieved


def test_limit_cycle_values_frozen():
    # quantized steps overshoot the deadband, so both phases settle into
    # short cycles; the exact values pin the whole measure/decide/move chain
    _, recs, _ = _two_phase_run()
    left = recs[0::2]
    sc_tail, lc_tail = left[96:100], left[194:200]
    assert [r.r_img_pct for r in sc_tail] == pytest.approx(
        [101.18661498119607, 92.28084443173475] * 2, rel=1e-9)
    assert [r.deformation_mm for r in sc_tail] == pytest.approx(
        [3.408637551275617, 3.5127906976744185] * 2, rel=1e-9)
    assert [r.f_n_N for r in sc_tail] == pytest.approx(
        [1.365449794897535, 1.9488372093023252] * 2, rel=1e-9)
    assert [r.delta_df_mm for r in sc_tail] == [0.25, -0.5] * 2
    assert all(not r.slide_flag for r in sc_tail)

    assert [r.r_img_pct for r in lc_tail] == pytest.approx(
        [41.79409889097707, 38.77681532359829, 45.77995547516693] * 2, rel=1e-9)
    assert [r.deformation_mm for r in lc_tail] == pytest.approx(
        [1.6496390446548848, 2.1523630663678617, 1.8925065183852539] * 2, rel=1e-9)
    assert [r.delta_df_mm for r in lc_tail] == [0.25, -0.5, 0.25] * 2
    assert [r.contact_state for r in lc_tail] == [
        ContactState.LC, ContactState.Transition, ContactState.LC] * 2
    assert all(r.slide_flag for r in lc_tail)


def test_path_continuity_bound():
    # one dual-close tick moves the squeeze by 1.0 mm; the deformation
    # response is bounded by 1 / (2 + F'_min / k) absent a snap
    d = np.linspace(0.0, 4.2, 8401)
    slope_min = float(np.min(np.diff(_force(d)) / np.diff(d)))
    bound = 1.0 / (2.0 + slope_min / OBJ.stiffness)
    assert 0.5 < bound < 0.6
    _, recs, _ = _two_phase_run()
    for series in (recs[0::2], recs[1::2]):
        steps = [abs(b.deformation_mm - a.deformation_mm)
                 for a, b in zip(series, series[1:])]
        assert max(steps) <= bound + 1e-9


def test_mode_force_coupling_settled_means():
    # surface contact presses harder than line contact once each phase settles
    _, recs, (sc, lc) = _two_phase_run()
    left = recs[0::2]
    sc_mean = np.mean([r.f_n_N for r in left[sc.entered_band_tick:100]])
    lc_mean = np.mean([r.f_n_N for r in left[100 + lc.entered_band_tick:]])
    assert sc_mean > lc_mean + 0.2
    # same ordering at the raw ratio fixed points
    lo, hi = 0.0, GEOM.d_sc
    w = _default_world()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if red_area_ratio(w.cam, GEOM, mid) < 0.40:
            lo = mid
        else:
            hi = mid
    assert float(_force(GEOM.d_sc)) > float(_force(0.5 * (lo + hi))) + 0.4


def test_ratio_disturbance_moves_only_that_finger():
    squeeze = 2 * 3.5 + float(_force(3.5)) / OBJ.stiffness
    gap0 = OBJ.nominal_width - squeeze
    dist = Disturbance("left", "ratio_pct", +50.0, t_offset_s=0.5)
    w = _default_world(initial_gap=gap0)
    recs = scenario_step(w, ScenarioStep("hold", ContactState.SC, 1.0, dist))
    left, right = recs[0::2], recs[1::2]
    assert [r.delta_df_mm for r in left[:5]] == [0.0] * 5
    assert left[5].delta_df_mm == 0.25  # fooled into opening for one tick
    assert all(r.delta_df_mm == 0.0 for r in right[:6])


def test_force_disturbance_changes_log_not_motion():
    dist = Disturbance("right", "force_N", -5.0, t_offset_s=0.4, duration_s=0.2)
    plain = scenario_step(_default_world(), ScenarioStep("grip", ContactState.SC, 1.0))
    shoved = scenario_step(_default_world(),
                           ScenarioStep("grip", ContactState.SC, 1.0, dist))
    for a, b in zip(plain, shoved):
        assert a.finger_pos_mm == b.finger_pos_mm
        assert a.deformation_mm == b.deformation_mm
        assert a.delta_df_mm == b.delta_df_mm
    window = {0.4, 0.5}
    for a, b in zip(plain, shoved):
        if b.finger == "right" and b.time_s in window:
            assert b.f_n_N == max(0.0, a.f_n_N - 5.0)
            assert b.slide_flag and not a.slide_flag  # adhesion alone can't hold
        else:
            assert b.f_n_N == a.f_n_N and b.slide_flag == a.slide_flag


def test_disturbance_window_arithmetic():
    single = Disturbance("left", "ratio_pct", 1.0, t_offset_s=0.3)
    assert not single.active(0.2, 0.1) and single.active(0.3, 0.1)
    assert not single.active(0.4, 0.1)
    double = Disturbance("left", "ratio_pct", 1.0, t_offset_s=0.3, duration_s=0.2)
    assert double.active(0.3, 0.1) and double.active(0.4, 0.1)
    assert not double.active(0.5, 0.1)


def test_validation_errors():
    for bad in (dict(finger="top"), dict(kind="torque"), dict(magnitude=math.nan),
                dict(t_offset_s=-0.1), dict(duration_s=0.0)):
        kw = dict(finger="left", kind="ratio_pct", magnitude=1.0) | bad
        with pytest.raises(ValueError):
            Disturbance(**kw)
    with pytest.raises(ValueError):
        ScenarioStep("x", ContactState.SC, 0.0)
    with pytest.raises(ValueError):
        ScenarioStep("x", ContactState.Transition, 1.0)
    with pytest.raises(ValueError):
        ObjectModel(nominal_width=0.0)
    with pytest.raises(ValueError, match="nominal_width"):
        ObjectModel(nominal_width=1000.001)  # past 1,000,000 scan steps
    assert ObjectModel(nominal_width=1000.0).nominal_width == 1000.0
    with pytest.raises(ValueError):
        ObjectModel(stiffness=-1.0)
    with pytest.raises(ValueError):
        ObjectModel(required_hold_force=-0.1)
    with pytest.raises(ValueError):
        make_world(GEOM, CameraModel(), FRIC, ControllerConfig(), OBJ, initial_gap=-1.0)
    with pytest.raises(ValueError):
        run_scenario(_default_world(), [])
    with pytest.raises(ValueError):
        scenario_step(_default_world(), ScenarioStep("x", ContactState.SC, 1.0),
                      tick_dt=0.0)


def test_make_world_defaults():
    w = _default_world()
    assert not w.plant.contact  # width + 2 mm: fingers start clear
    assert w.pos_left == w.pos_right == 5.0
    assert w.slide_demand == pytest.approx(2.9390983048048103, rel=1e-12)
    explicit = ObjectModel(slide_demand=1.25)
    w2 = make_world(GEOM, CameraModel(), FRIC, ControllerConfig(), explicit)
    assert w2.slide_demand == 1.25


# ---------------------------------------------------------------- root memo

def _replay(obj, records, memory, fric=FRIC):
    """Per tick (d_left, d_right, f_n_left, f_n_right) from plain,
    memo-less equilibrium_solve calls at the logged finger positions, with
    the branch memory carried from one tick to the next."""
    out = []
    for left, right in zip(records[0::2], records[1::2]):
        st = equilibrium_solve(fric, obj, left.finger_pos_mm, right.finger_pos_mm,
                               memory, d_sc=GEOM.d_sc)
        memory = st.branch_memory
        out.append((st.d_left, st.d_right, st.f_n_left, st.f_n_right))
    return out


def _logged(records):
    return [(left.deformation_mm, right.deformation_mm, left.f_n_N, right.f_n_N)
            for left, right in zip(records[0::2], records[1::2])]


def _contact_squeezes(obj, records):
    gaps = (left.finger_pos_mm + right.finger_pos_mm
            for left, right in zip(records[0::2], records[1::2]))
    return {obj.nominal_width - gap for gap in gaps if gap < obj.nominal_width}


def _memo_roots(world, curve, stiffness):
    """squeeze -> roots for the memo entries keyed by (curve, stiffness, squeeze)."""
    return {squeeze: roots for (c, k, squeeze), roots in world.root_memo.items()
            if (c, k) == (curve, stiffness)}


def test_memoized_run_equals_a_plain_replay():
    # steps that are not binary fractions, plus camera noise: positions pick
    # up rounding, so squeezes equal on paper differ in their last bits and
    # each must get its own roots
    ctrl = ControllerConfig(step_open=0.3, step_close=-0.7)
    w = make_world(GEOM, CameraModel(noise_std_pct=0.5), FRIC, ctrl, OBJ, seed=3)
    memory = w.plant.branch_memory
    recs, _ = run_scenario(w, [ScenarioStep("grip", ContactState.SC, 20.0),
                               ScenarioStep("slide", ContactState.LC, 20.0)])
    assert _replay(OBJ, recs, memory) == _logged(recs)
    assert {key[:2] for key in w.root_memo} == {(CURVE, OBJ.stiffness)}
    squeezes = set(_memo_roots(w, CURVE, OBJ.stiffness))
    assert squeezes == _contact_squeezes(OBJ, recs)
    assert len(squeezes) > len({round(s, 9) for s in squeezes})


def test_bundled_run_memo_holds_each_contact_squeeze_once():
    text = resources.files("cavs_sim").joinpath("scenarios", "tube_5step.json").read_text()
    scenario = parse_scenario(json.loads(text))
    w = _default_world(initial_gap=scenario.initial_gap_mm)
    memory = w.plant.branch_memory
    recs, _ = run_scenario(w, list(scenario.steps), scenario.tick_dt_s)
    assert _replay(OBJ, recs, memory) == _logged(recs)
    # 2,000 ticks, 1,998 of them in contact, over 13 distinct squeezes
    assert set(w.root_memo) == {(CURVE, OBJ.stiffness, squeeze)
                                for squeeze in _contact_squeezes(OBJ, recs)}
    assert len(w.root_memo) == 13


def test_memo_follows_a_replaced_object():
    w = _default_world()
    scenario_step(w, ScenarioStep("grip", ContactState.SC, 5.0))
    before = (CURVE, OBJ.stiffness)
    # a stiffer object, then a shallower press-curve dip: each revisits
    # squeezes the memo holds for the values before it, and the memo holds
    # its own roots there, not theirs
    for name, value in (("obj", replace(OBJ, stiffness=3.0)),
                        ("fric", replace(FRIC, f_local_min=0.9))):
        setattr(w, name, value)
        memory = w.plant.branch_memory
        recs = scenario_step(w, ScenarioStep("grip", ContactState.SC, 5.0))
        assert _replay(w.obj, recs, memory, fric=w.fric) == _logged(recs)
        now = (press_curve(w.fric, w.geom.d_sc), w.obj.stiffness)
        fresh, stale = _memo_roots(w, *now), _memo_roots(w, *before)
        assert set(fresh) == _contact_squeezes(w.obj, recs)
        revisited = set(stale) & set(fresh)
        assert revisited
        for squeeze in revisited:
            assert fresh[squeeze] != stale[squeeze]
        before = now


# ---------------------------------------------------------------- CSV output

def test_records_to_csv_golden():
    recs = [
        TimeSeriesRecord(0.0, "left", ContactState.SC, 101.18661498119607, 100.0,
                         -0.5, 0.25, 3.5127906976744185, ContactState.SC,
                         1.9488372093023252, 4.437441860465116, False),
        TimeSeriesRecord(0.1, "right", ContactState.LC, 0.0, 40.0, -0.0, 0.0, 0.0,
                         ContactState.LC, 0.0, 1234567.0, True),
    ]
    expect = (
        "time_s,finger,desired_state,r_img_pct,r_target_pct,delta_df_mm,"
        "finger_pos_mm,deformation_mm,contact_state,f_n_N,f_max_long_N,slide_flag\n"
        "0.000,left,SC,101.187,100,-0.5,0.25,3.51279,SC,1.94884,4.43744,0\n"
        "0.100,right,LC,0,40,0,0,0,LC,0,1.23457e+06,1\n"
    )
    assert records_to_csv(recs) == expect
    assert records_to_csv([]).rstrip("\n") == ",".join(CSV_COLUMNS)


def test_csv_deterministic_under_seed():
    noisy = CameraModel(noise_std_pct=0.5)
    steps = [ScenarioStep("grip", ContactState.SC, 3.0)]

    def text(seed):
        w = make_world(GEOM, noisy, FRIC, ControllerConfig(), OBJ, seed=seed)
        recs, _ = run_scenario(w, steps)
        return records_to_csv(recs)

    assert text(7) == text(7)
    assert text(7) != text(8)
    # and without noise the seed is inert
    quiet_a = records_to_csv(run_scenario(_default_world(seed=1), steps)[0])
    quiet_b = records_to_csv(run_scenario(_default_world(seed=2), steps)[0])
    assert quiet_a == quiet_b
