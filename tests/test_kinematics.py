from __future__ import annotations

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from cavs_sim.kinematics import (
    CavsGeometry,
    FingertipModel,
    GeometryInfeasible,
    JointState,
    SolverFailure,
    deformation_limits,
    forward_points,
    projected_width_wx,
    rest_pose,
    solve_joint_angles,
)
from cavs_sim.sensing import CameraModel, calibrate_sc_reference, red_area_ratio
from oracles import BranchFromRest, compass, endpoints, endpoints_complex, rest_fit_grid700, \
    rest_misfit_grid, solve_misfit_grid

GEOM = CavsGeometry()

# Frozen from the exhaustive grid + pattern-search oracle (reproduced below
# at coarser resolution on every run).
THETA0 = (-1.3226743853573093, 0.6471378248110596)
EY0_EFF = 8.725776283050925
CX0_EFF = 2.8054693049003534
D_MAX = 4.591706548793827


def _rest_misfit(t1: float, t2: float, geom: CavsGeometry = GEOM) -> float:
    ex, ey, cx, _, _ = endpoints(geom, t1, t2)
    return (ex - geom.p_ex0) ** 2 + (ey - geom.p_ey0) ** 2 + (cx - geom.p_cx0) ** 2


def test_rest_pose_matches_exhaustive_grid_oracle():
    t1, t2 = rest_misfit_grid(GEOM, step=0.002)
    t1, t2 = compass(_rest_misfit, t1, t2, step=0.002, tol=1e-10)
    rp = rest_pose(GEOM)
    assert abs(rp.theta1 - t1) < 1e-7
    assert abs(rp.theta2 - t2) < 1e-7
    assert abs(rp.theta1 - THETA0[0]) < 1e-9
    assert abs(rp.theta2 - THETA0[1]) < 1e-9


def test_rest_pose_effective_anchors():
    rp = rest_pose(GEOM)
    _, ey, cx, _, _ = endpoints(GEOM, rp.theta1, rp.theta2)
    assert abs(rp.p_ey0_eff - ey) < 1e-12
    assert abs(rp.p_cx0_eff - cx) < 1e-12
    assert abs(rp.p_ey0_eff - EY0_EFF) < 1e-9
    assert abs(rp.p_cx0_eff - CX0_EFF) < 1e-9


def test_rest_residual_is_the_least_squares_compromise():
    # The three rest targets are mutually inconsistent for the default
    # geometry (the apex target lies outside the l1+l3 reach circle), so the
    # rest pose is a least-squares fit with a nonzero residual vector.
    rp = rest_pose(GEOM)
    rx, ry, rc = rp.residual
    assert abs(rx - -2.5458353445) < 1e-6
    assert abs(ry - 0.0657762831) < 1e-6
    assert abs(rc - 2.8054693049) < 1e-6


# Steepest descent from this geometry's grid argmin runs into the theta2 = 0
# edge of the box, so it has no interior rest pose.
EDGE_GEOM = CavsGeometry(l1=4.128216496360151, l2=5.618048704695848, l3=5.113773560113439,
                         p_ay=2.4300061029623428, d_sc=3.716757519350165)


# Where a 60 x 60 (or 40 or 25) basin grid picks a basin with an interior
# minimum at (-1.03883, 0.35566) but the 700 x 700 grid, and so the 100 x 100
# one, picks a basin whose fit is infeasible.
COARSE_GRID_GEOM = CavsGeometry(l1=4.975252231918699, l2=5.055633082161192, l3=4.898534979665468,
                                p_ax=-4.711772764144323, p_ay=2.6991550019754196,
                                p_ex0=2.5431640149871626, p_ey0=9.718536956670164)


def _rest_fit_corpus():
    """Named geometries for the rest-fit contract: fixed cases, draws like
    perfbench's geometry_calibration (p_ay, l2 and d_sc moved by up to
    0.1 mm), and draws with seven anchors and lengths scaled by up to 15%
    (COARSE_GRID_GEOM is the 119th of the latter)."""
    cases = [("default", GEOM), ("l2=5.5", CavsGeometry(l2=5.5)),
             ("p_ay=-20", CavsGeometry(p_ay=-20.0)), ("edge", EDGE_GEOM),
             ("coarse-grid", COARSE_GRID_GEOM)]
    rng = np.random.default_rng(1)
    for k in range(12):
        moved = {name: getattr(GEOM, name) + float(rng.uniform(-0.1, 0.1))
                 for name in ("p_ay", "l2", "d_sc")}
        cases.append((f"calibration-{k}", CavsGeometry(**moved)))
    rng = np.random.default_rng(99)
    for k in range(24):
        factors = rng.uniform(0.85, 1.15, 7)
        scaled = {name: getattr(GEOM, name) * float(f) for name, f in
                  zip(("l1", "l2", "l3", "p_ay", "p_ax", "p_ex0", "p_ey0"), factors)}
        cases.append((f"scaled-{k}", CavsGeometry(**scaled)))
    return cases


REST_FIT_CORPUS = _rest_fit_corpus()


@pytest.mark.parametrize("geom", [g for _, g in REST_FIT_CORPUS],
                         ids=[name for name, _ in REST_FIT_CORPUS])
def test_rest_fit_matches_the_700_grid_reference(geom):
    # the basin grid picks the basin, so the coarser grid must give the
    # finer grid's pose, or be infeasible exactly where it is
    want = rest_fit_grid700(geom)
    if want is None:
        with pytest.raises(GeometryInfeasible):
            rest_pose(geom)
        return
    rp = rest_pose(geom)
    assert abs(rp.theta1 - want[0]) < 1e-12
    assert abs(rp.theta2 - want[1]) < 1e-12


# the default geometry and two with the rest pose moved both ways
GEOMS = [GEOM,
         CavsGeometry(p_ay=GEOM.p_ay + 0.1, l2=GEOM.l2 - 0.1),
         CavsGeometry(p_ay=GEOM.p_ay - 0.1, l2=GEOM.l2 + 0.1)]
GEOM_IDS = ["default", "p_ay+l2-", "p_ay-l2+"]


@pytest.mark.parametrize("geom", GEOMS + [EDGE_GEOM], ids=GEOM_IDS + ["edge"])
def test_rest_pose_is_stationary_or_infeasible(geom):
    if geom is EDGE_GEOM:
        with pytest.raises(GeometryInfeasible):
            rest_pose(geom)
        return
    rp = rest_pose(geom)
    # stationarity: the oracle misfit does not decrease in any direction
    base = _rest_misfit(rp.theta1, rp.theta2, geom)
    h = 1e-5
    for dt1, dt2 in ((h, 0), (-h, 0), (0, h), (0, -h)):
        assert _rest_misfit(rp.theta1 + dt1, rp.theta2 + dt2, geom) >= base - 1e-12


# The default linkage lifted by 10 mm: the rest fit and every angle of the
# branch are the same (its effective apex anchor is EY0_EFF + 10), but the
# strip end stays above the camera, so d_max is the branch end where theta2
# reaches 0, past the depth 7.3275 mm at which the l2 link turns horizontal
# and theta1 turns back.
LIFTED = CavsGeometry(p_ay=GEOM.p_ay + 10.0, p_ey0=GEOM.p_ey0 + 10.0)


@pytest.mark.parametrize("geom, ey0_eff, d", [
    (GEOM, EY0_EFF, 0.7),
    (GEOM, EY0_EFF, 1.9),
    (GEOM, EY0_EFF, 3.1),
    (LIFTED, EY0_EFF + 10.0, 8.0),
], ids=["0.7", "1.9", "3.1", "lifted-8.0"])
def test_solver_spot_agreement_with_exhaustive_grid(geom, ey0_eff, d):
    state = solve_joint_angles(geom, d)

    def misfit(t1: float, t2: float) -> float:
        _, ey, cx, _, _ = endpoints(geom, t1, t2)
        return (ey - (ey0_eff - d)) ** 2 + (cx - CX0_EFF) ** 2

    t1, t2, low = solve_misfit_grid(geom, ey0_eff - d, CX0_EFF, step=0.004)
    # the in-box root is unique: every low-misfit node clusters at the argmin
    for lt1, lt2 in low:
        assert math.hypot(lt1 - t1, lt2 - t2) < 0.05
    t1, t2 = compass(misfit, t1, t2, step=0.004, tol=1e-10)
    assert abs(state.theta1 - t1) < 1e-6
    assert abs(state.theta2 - t2) < 1e-6


@pytest.mark.parametrize("geom", GEOMS, ids=GEOM_IDS)
def test_solve_residuals_and_round_trip(geom):
    rp = rest_pose(geom)
    for d in np.linspace(0.0, 3.5, 60):
        d = float(d)
        state = solve_joint_angles(geom, d)
        assert abs(state.p_E[1] - (rp.p_ey0_eff - d)) < 1e-9
        assert abs(state.p_C[0] - rp.p_cx0_eff) < 1e-9
        again = forward_points(geom, state.theta1, state.theta2)
        assert abs(again.d - d) < 1e-9
        assert again.p_D == state.p_D


# anchors moved by several mm give branches of other shapes: theta1 rises
# with d, or the l2 link points down at rest (cos(theta1 + theta2) < 0) and
# the rail passes so close to A that the branch ends where theta2 reaches
# pi; each branch ends just past the given depth
OTHER_SHAPES = [
    ("theta1-rises", CavsGeometry(p_ax=-8.1, p_ay=7.38, p_cx0=-3.29, p_ex0=-2.01, p_ey0=6.12), 3.3),
    ("l2-down", CavsGeometry(p_ax=0.84, p_ay=6.53, p_cx0=-4.52, p_ex0=6.68, p_ey0=5.76), 1.2),
]


@pytest.mark.parametrize("geom, depth", [(g, depth) for _, g, depth in OTHER_SHAPES],
                         ids=[name for name, _, _ in OTHER_SHAPES])
def test_branches_of_other_shapes(geom, depth):
    rp = rest_pose(geom)
    depths = [float(d) for d in np.linspace(0.0, depth, 34)]
    states = [solve_joint_angles(geom, d) for d in depths]
    # the branch starts at the rest pose, not at its mirror image in the rail
    assert abs(states[0].theta1 - rp.theta1) < 1e-12
    assert abs(states[0].theta2 - rp.theta2) < 1e-12
    for d, state in zip(depths, states):
        assert abs(state.p_E[1] - (rp.p_ey0_eff - d)) < 1e-9
        assert abs(state.p_C[0] - rp.p_cx0_eff) < 1e-9
    steps = np.diff([state.theta1 for state in states])
    assert np.all(steps > 0) or np.all(steps < 0)
    with pytest.raises(SolverFailure):
        solve_joint_angles(geom, depth + 0.1)


def test_branch_runs_on_where_theta1_turns_back():
    d_max = deformation_limits(LIFTED)[1]
    assert d_max > 9.5
    rp = rest_pose(LIFTED)
    depths = [float(d) for d in np.linspace(7.0, d_max, 50)]
    depths += [7.3275 + k * 1e-7 for k in range(-5, 6)] + [d_max - 10.0 ** -k for k in range(3, 13)]
    for d in depths:
        state = solve_joint_angles(LIFTED, d)
        assert abs(state.d - d) < 1e-12
        assert abs(state.p_C[0] - rp.p_cx0_eff) < 1e-12
    # the l2 link passes horizontal and theta1 turns back
    before, after = solve_joint_angles(LIFTED, 7.3), solve_joint_angles(LIFTED, 7.4)
    assert math.cos(before.theta1 + before.theta2) > 0.0 > math.cos(after.theta1 + after.theta2)
    assert solve_joint_angles(LIFTED, 8.0).theta1 > after.theta1
    assert solve_joint_angles(LIFTED, d_max).theta2 < 1e-9
    with pytest.raises(SolverFailure):
        solve_joint_angles(LIFTED, d_max + 0.01)


# the rest-fit corpus (infeasible ones included), LIFTED, whose limit is the
# branch end, and the branches of other shapes
BRANCH_CORPUS = (REST_FIT_CORPUS + [("lifted", LIFTED)]
                 + [(name, g) for name, g, _ in OTHER_SHAPES])


def _in_view(state: JointState) -> bool:
    return math.cos(state.gamma) >= 0.0 and state.p_D[1] > 0.0


@pytest.mark.parametrize("geom", [g for _, g in BRANCH_CORPUS],
                         ids=[name for name, _ in BRANCH_CORPUS])
def test_branch_inversion_matches_the_solve_from_rest(geom):
    # the seeded, angle-free inversion gives the poses of Newton from the
    # rest pose, and the limit found on q is the depth scan's
    try:
        rp = rest_pose(geom)
    except GeometryInfeasible:
        with pytest.raises(GeometryInfeasible):
            deformation_limits(geom)
        return
    ref = BranchFromRest(geom, (rp.theta1, rp.theta2, rp.p_ey0_eff, rp.p_cx0_eff))
    for d in [k * 0.01 for k in range(int(ref.d_end / 0.01) + 1)]:
        want = ref.solve(d)
        state = solve_joint_angles(geom, d)
        # both solves stop within 1e-12 mm of d; in the last 0.1 mm the
        # branch flattens toward its end, and that spans more angle
        tol = 1e-12 if d < ref.d_end - 0.1 else 1e-11
        assert abs(state.theta1 - want[0]) < tol
        assert abs(state.theta2 - want[1]) < tol
    want_max = ref.d_max()
    if want_max is None:
        with pytest.raises(GeometryInfeasible):
            deformation_limits(geom)
        return
    d_max = deformation_limits(geom)[1]
    assert abs(d_max - want_max) < 1e-9
    assert _in_view(solve_joint_angles(geom, d_max))
    try:
        assert not _in_view(solve_joint_angles(geom, d_max + 1e-6))
    except SolverFailure:
        pass
    if geom.d_sc <= d_max:
        cam = calibrate_sc_reference(CameraModel(), geom)
        assert red_area_ratio(cam, geom, geom.d_sc) == 1.0


BUDGET_CORPUS = [(name, g) for name, g in REST_FIT_CORPUS
                 if name == "default" or name.startswith("calibration-")]


@pytest.mark.parametrize("geom", [g for _, g in BUDGET_CORPUS],
                         ids=[name for name, _ in BUDGET_CORPUS])
def test_solves_spend_at_most_four_branch_evaluations(geom, monkeypatch):
    # Newton from the seed, over the 0.01 mm grid a ratio curve solves
    model = FingertipModel(geom)
    calls = 0
    branch = model._branch

    def counted(q):
        nonlocal calls
        calls += 1
        return branch(q)

    monkeypatch.setattr(model, "_branch", counted)
    depths = np.linspace(0.0, geom.d_sc, round(geom.d_sc / 0.01) + 1)
    for d in depths:
        model.solve(float(d))
    assert calls / len(depths) <= 4.0


def test_branch_continuity():
    prev = solve_joint_angles(GEOM, 0.0)
    for d in np.arange(0.005, 3.5001, 0.005):
        state = solve_joint_angles(GEOM, float(d))
        assert state.theta1 < prev.theta1  # theta1 falls as the apex is pressed
        assert abs(state.theta1 - prev.theta1) < 0.02
        assert abs(state.theta2 - prev.theta2) < 0.02
        prev = state


def test_forward_points_against_complex_rotation_form():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t1 = float(rng.uniform(-math.pi + 0.01, -0.01))
        t2 = float(rng.uniform(0.01, math.pi - 0.01))
        state = forward_points(GEOM, t1, t2)
        c, dpt, e = endpoints_complex(GEOM, t1, t2)
        assert abs(state.p_C[0] - c.real) < 1e-12
        assert abs(state.p_C[1] - c.imag) < 1e-12
        assert abs(state.p_D[0] - dpt.real) < 1e-12
        assert abs(state.p_D[1] - dpt.imag) < 1e-12
        assert abs(state.p_E[0] - e.real) < 1e-12
        assert abs(state.p_E[1] - e.imag) < 1e-12
        assert state.gamma == pytest.approx(math.pi / 3 + t1 + t2, abs=1e-12)


def test_contact_half_angle_offset():
    # gamma is the chain angle plus 60 degrees; at t1 + t2 = pi/6 the strip
    # is vertical and its projected width vanishes
    state = forward_points(GEOM, -0.5, 0.5 + math.pi / 6)
    assert state.gamma == pytest.approx(math.pi / 2, abs=1e-12)
    assert projected_width_wx(state, GEOM) == pytest.approx(0.0, abs=1e-12)


def test_projected_width():
    s35 = solve_joint_angles(GEOM, 3.5)
    assert projected_width_wx(s35, GEOM) == pytest.approx(4.848129188994496, abs=1e-9)
    assert s35.gamma == pytest.approx(0.24709991869781023, abs=1e-9)
    assert s35.p_D[1] == pytest.approx(1.638655739563856, abs=1e-9)
    # clamp to zero past vertical
    folded = JointState(0.0, 0.0, 0.0, (0, 0), (0, 0), (0, 0), gamma=2.0)
    assert projected_width_wx(folded, GEOM) == 0.0


def test_deformation_limits():
    d_min, d_max = deformation_limits(GEOM)
    assert d_min == 0.0
    assert d_max == pytest.approx(D_MAX, abs=1e-6)
    assert d_max > GEOM.d_sc
    # the binding constraint is the strip end reaching the camera plane
    assert solve_joint_angles(GEOM, d_max).p_D[1] == pytest.approx(0.0, abs=1e-6)
    assert solve_joint_angles(GEOM, d_max - 0.01).p_D[1] > 0


def test_solver_rejects_bad_depths():
    with pytest.raises(ValueError):
        solve_joint_angles(GEOM, -0.1)
    with pytest.raises(ValueError):
        solve_joint_angles(GEOM, float("nan"))
    with pytest.raises(SolverFailure):
        solve_joint_angles(GEOM, 50.0)
    # just past the branch end at 9.57 mm, where theta2 reaches 0
    with pytest.raises(SolverFailure):
        solve_joint_angles(GEOM, 9.6)


def test_infeasible_geometry_raises():
    bad = CavsGeometry(p_ay=-20.0)
    with pytest.raises(GeometryInfeasible):
        rest_pose(bad)
    with pytest.raises(GeometryInfeasible):
        solve_joint_angles(bad, 1.0)
    with pytest.raises(ValueError):
        CavsGeometry(l1=0.0)
    with pytest.raises(ValueError):
        CavsGeometry(l_r=-1.0)


def test_caches_are_geometry_keyed():
    before = solve_joint_angles(GEOM, 1.0)
    other = CavsGeometry(l2=5.5)
    solve_joint_angles(other, 1.0)
    after = solve_joint_angles(GEOM, 1.0)
    assert after.theta1 == before.theta1
    assert after.theta2 == before.theta2
    assert rest_pose(other).theta1 != rest_pose(GEOM).theta1


def test_the_geometry_owns_its_model_and_an_equal_geometry_rebuilds_the_same():
    # l_r does not enter the linkage, so this geometry is feasible and
    # shares no model with the default one
    depths = (0.0, 1.0, 2.5, 3.5)

    def outputs(geom):
        cam = calibrate_sc_reference(CameraModel(), geom)
        return ([solve_joint_angles(geom, d) for d in depths], cam,
                [red_area_ratio(cam, geom, d) for d in depths])

    first = CavsGeometry(l_r=4.0)
    assert first.model is first.model
    want = outputs(first)
    # the model and its geometry form a cycle; both go once nothing else
    # holds the geometry
    model = weakref.ref(first.model)
    del first
    gc.collect()
    assert model() is None
    # an equal geometry built afresh gets a new model with the same values
    fresh = CavsGeometry(l_r=4.0)
    assert "model" not in vars(fresh)
    assert outputs(fresh) == want


_WORKERS = 4  # more than the cores of a small machine


def _race(geom):
    """solve_joint_angles(geom, 3.0) from _WORKERS threads released together."""
    start = threading.Barrier(_WORKERS, timeout=30.0)
    got = []

    def solve():
        start.wait()
        got.append(solve_joint_angles(geom, 3.0))

    threads = [threading.Thread(target=solve) for _ in range(_WORKERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return got


def test_solves_are_order_and_thread_independent():
    # l_r does not enter the linkage, so these geometries share every angle
    # while each gets its own FingertipModel
    cold, warmed, raced, fresh = (CavsGeometry(p_ay=2.77, l_r=l_r)
                                  for l_r in (5.01, 5.02, 5.03, 5.04))
    # depths every 0.05 mm up to d = 3.5, past the raced depth
    depths = [k * 0.05 for k in range(71)]

    def sweep(geom):
        return [solve_joint_angles(geom, d) for d in depths]

    def ratios(geom):
        cam = calibrate_sc_reference(CameraModel(), geom)
        return [red_area_ratio(cam, geom, d) for d in depths]

    want = solve_joint_angles(cold, 3.0)
    want_sweep = sweep(cold)
    want_ratios = ratios(cold)

    # a model that first calibrated, found its limits, read a ratio and
    # solved another depth gives the same poses and ratios
    cam = calibrate_sc_reference(CameraModel(), warmed)
    deformation_limits(warmed)
    red_area_ratio(cam, warmed, 2.0)
    solve_joint_angles(warmed, 1.0)
    assert solve_joint_angles(warmed, 3.0) == want
    assert sweep(warmed) == want_sweep
    assert ratios(warmed) == want_ratios

    # concurrent first solves agree with the serial ones and leave later
    # solves unchanged, both on a model that exists before the threads
    # start and on one they build together
    rest_pose(raced)
    assert "model" not in vars(fresh)
    for geom in (raced, fresh):
        assert _race(geom) == [want] * _WORKERS
        assert sweep(geom) == want_sweep
        assert ratios(geom) == want_ratios

