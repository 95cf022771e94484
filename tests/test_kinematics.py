from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from cavs_sim.kinematics import (
    CavsGeometry,
    GeometryInfeasible,
    JointState,
    SolverFailure,
    deformation_limits,
    forward_points,
    projected_width_wx,
    rest_pose,
    solve_joint_angles,
)
from oracles import compass, endpoints, endpoints_complex, rest_misfit_grid, solve_misfit_grid

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


@pytest.mark.parametrize("geom", [
    GEOM,
    CavsGeometry(p_ay=GEOM.p_ay + 0.1, l2=GEOM.l2 - 0.1),
    CavsGeometry(p_ay=GEOM.p_ay - 0.1, l2=GEOM.l2 + 0.1),
    EDGE_GEOM,
], ids=["default", "p_ay+l2-", "p_ay-l2+", "edge"])
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


@pytest.mark.parametrize("d", [0.7, 1.9, 3.1])
def test_solver_spot_agreement_with_exhaustive_grid(d):
    state = solve_joint_angles(GEOM, d)

    def misfit(t1: float, t2: float) -> float:
        _, ey, cx, _, _ = endpoints(GEOM, t1, t2)
        return (ey - (EY0_EFF - d)) ** 2 + (cx - CX0_EFF) ** 2

    t1, t2, low = solve_misfit_grid(GEOM, EY0_EFF - d, CX0_EFF, step=0.004)
    # the in-box root is unique: every low-misfit node clusters at the argmin
    for lt1, lt2 in low:
        assert math.hypot(lt1 - t1, lt2 - t2) < 0.05
    t1, t2 = compass(misfit, t1, t2, step=0.004, tol=1e-10)
    assert abs(state.theta1 - t1) < 1e-6
    assert abs(state.theta2 - t2) < 1e-6


def test_solve_residuals_and_round_trip():
    rp = rest_pose(GEOM)
    for d in np.linspace(0.0, 3.5, 60):
        d = float(d)
        state = solve_joint_angles(GEOM, d)
        assert abs(state.p_E[1] - (rp.p_ey0_eff - d)) < 1e-9
        assert abs(state.p_C[0] - rp.p_cx0_eff) < 1e-9
        again = forward_points(GEOM, state.theta1, state.theta2)
        assert abs(again.d - d) < 1e-9
        assert again.p_D == state.p_D


def test_branch_continuity():
    prev = solve_joint_angles(GEOM, 0.0)
    for d in np.arange(0.005, 3.5001, 0.005):
        state = solve_joint_angles(GEOM, float(d))
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


def test_branch_table_is_order_and_thread_independent():
    # l_r does not enter the linkage, so these geometries share every angle
    # while each starts with its own empty branch table
    cold, warmed, raced = (CavsGeometry(p_ay=2.77, l_r=l_r) for l_r in (5.01, 5.02, 5.03))
    # the branch nodes up to d = 3.5: past the raced depth, since a node
    # appended twice would shift every node after it
    nodes = [k * 0.05 for k in range(71)]

    def table(geom):
        return [solve_joint_angles(geom, d) for d in nodes]

    want = solve_joint_angles(cold, 3.0)
    want_table = table(cold)

    solve_joint_angles(warmed, 1.0)
    assert solve_joint_angles(warmed, 3.0) == want
    assert table(warmed) == want_table

    rest_pose(raced)  # the threads then extend the same table from d = 0
    workers = 4  # more than the cores of a small machine
    start = threading.Barrier(workers, timeout=30.0)
    got = []

    def solve():
        start.wait()
        got.append(solve_joint_angles(raced, 3.0))

    threads = [threading.Thread(target=solve) for _ in range(workers)]
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
    assert got == [want] * workers
    assert table(raced) == want_table
