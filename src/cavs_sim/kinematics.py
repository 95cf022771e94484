"""Planar linkage kinematics of the variable-contact fingertip.

The fingertip is a three-link chain hung from anchor A: a pillar link l1, a
surface link l2 whose far end C is constrained to slide on the vertical rail
x = p_cx0, and a strip link l3 leaving the elbow at fixed +/- pi/6 offsets
from the l2 direction (apex spoke E above, strip end D below, toward the
camera).  Link angles are measured clockwise from the upward vertical, so a
link of length L at angle t contributes L * (-sin t, cos t).

Pressing the apex down by d mm drives the constraint system

    p_Ey(theta1, theta2) = p_Ey(rest) - d
    p_Cx(theta1, theta2) = p_Cx(rest)

whose branch-followed solution feeds the sensing model.  The height of C
on the rail fixes the pose of the chain A-B-C, so the branch is one
monotone scalar equation in that height.  The nominal anchor
values stored on CavsGeometry are mutually over-determined (the rest endpoint
E0 is slightly out of reach of l1 + l3), so the rest pose is the least-squares
fit to the three endpoint conditions inside the admissible angle box, and the
operating constraints above are anchored to the pose actually achieved.

Everything derived from one geometry lives in one FingertipModel, which
the geometry owns (CavsGeometry.model, built on first use and freed with
the geometry): the rest pose, the branch end and the d_sc reference strip
on construction, the deformation limits, found on the branch parameter, on
first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPOKE_HALF_ANGLE = math.pi / 6
# admissible angle box: pillar hangs to the left, elbow opens to the right
THETA1_BOX = (-math.pi, 0.0)
THETA2_BOX = (0.0, math.pi)

_REST_CAP = 30
# points per side of the grid whose argmin seeds the rest fit; the basin it
# picks is part of the rest-pose contract (tests/oracles.py keeps the finer
# grid this one was checked against)
_REST_GRID = 100
_SOLVE_CAP = 100
_DEPTH_TOL = 1e-12  # mm, well inside the 1e-9 contract
_SCAN = 0.05  # step in q of the scans for the branch end and for d_max
# cos(pi/6) = sin(pi/3); sin(pi/6) = cos(pi/3) = 1/2 (the spoke offset, and
# the pi/3 in gamma)
_COS_SPOKE = math.sqrt(3.0) / 2.0


class GeometryInfeasible(ValueError):
    """Geometry cannot produce a rest configuration, or no usable sensing
    reference at d_sc."""


class SolverFailure(RuntimeError):
    """Depth past the end of the followed branch, or the branch solve
    exceeded its iteration cap."""


@dataclass(frozen=True)
class CavsGeometry:
    """Link lengths and frame anchors, all in mm."""

    l1: float = 4.33
    l2: float = 5.77
    l3: float = 5.0
    l_r: float = 5.0
    p_ax: float = -5.0
    p_ay: float = 2.72
    p_cx0: float = 0.0
    p_ex0: float = 2.5
    p_ey0: float = 8.66
    d_sc: float = 3.5

    def __post_init__(self) -> None:
        for name in ("l1", "l2", "l3", "l_r"):
            if not getattr(self, name) > 0.0:
                raise GeometryInfeasible(f"{name} must be positive, got {getattr(self, name)}")
        if not self.d_sc > 0.0:
            raise GeometryInfeasible(f"d_sc must be positive, got {self.d_sc}")

    @cached_property
    def model(self) -> FingertipModel:
        """This geometry's FingertipModel, built on first use.  Threads that
        build it together hold the same values."""
        return FingertipModel(self)


@dataclass(frozen=True)
class JointState:
    theta1: float
    theta2: float
    d: float
    p_C: tuple[float, float]
    p_D: tuple[float, float]
    p_E: tuple[float, float]
    gamma: float


@dataclass(frozen=True)
class RestPose:
    """Least-squares rest configuration and the effective anchors derived
    from it (the operating constraints are measured against these, not the
    nominal p_ey0/p_cx0, which are not exactly reachable)."""

    theta1: float
    theta2: float
    p_ey0_eff: float
    p_cx0_eff: float
    residual: tuple[float, float, float]  # (Ex, Ey, Cx) misfit at rest, mm


def _points(geom: CavsGeometry, theta1: float, theta2: float):
    """Raw endpoint coordinates for the given angles."""
    a = theta1 + theta2
    ex = geom.p_ax - (geom.l1 * math.sin(theta1) + geom.l3 * math.sin(a + SPOKE_HALF_ANGLE))
    ey = geom.p_ay + (geom.l1 * math.cos(theta1) + geom.l3 * math.cos(a + SPOKE_HALF_ANGLE))
    cx = geom.p_ax - (geom.l1 * math.sin(theta1) + geom.l2 * math.sin(a))
    cy = geom.p_ay + (geom.l1 * math.cos(theta1) + geom.l2 * math.cos(a))
    dx = geom.p_ax - (geom.l1 * math.sin(theta1) + geom.l3 * math.sin(a - SPOKE_HALF_ANGLE))
    dy = geom.p_ay + (geom.l1 * math.cos(theta1) + geom.l3 * math.cos(a - SPOKE_HALF_ANGLE))
    gamma = math.pi / 3 + theta1 + theta2
    return (cx, cy), (dx, dy), (ex, ey), gamma


def _partials(geom: CavsGeometry, t1: float, t2: float):
    """Analytic partials of the (Ex, Ey, Cx) coordinates: (d/dt1, d/dt2,
    d2/dt1^2, d2/dt2^2).  theta2 enters only through t1 + t2, so the mixed
    second partial equals d2/dt2^2."""
    a = t1 + t2
    s1, c1 = geom.l1 * math.sin(t1), geom.l1 * math.cos(t1)
    se, ce = geom.l3 * math.sin(a + SPOKE_HALF_ANGLE), geom.l3 * math.cos(a + SPOKE_HALF_ANGLE)
    sc, cc = geom.l2 * math.sin(a), geom.l2 * math.cos(a)
    return ((-(c1 + ce), -(s1 + se), -(c1 + cc)),
            (-ce, -se, -cc),
            (s1 + se, -(c1 + ce), s1 + sc),
            (se, -ce, sc))


def _rest_residual(geom: CavsGeometry, t1: float, t2: float) -> tuple[float, float, float]:
    (cx, _), _, (ex, ey), _ = _points(geom, t1, t2)
    return ex - geom.p_ex0, ey - geom.p_ey0, cx - geom.p_cx0


def _fit_rest(geom: CavsGeometry) -> RestPose:
    """Argmin of the rest misfit on a 100 x 100 grid over the angle box,
    then Newton on the normal equations with analytic second derivatives
    (the misfit at rest is comparable to the link lengths, so Gauss-Newton
    would drop a term that matters).
    Raises GeometryInfeasible unless Newton converges to an interior
    minimum."""
    t1g = np.linspace(THETA1_BOX[0] + 1e-6, THETA1_BOX[1] - 1e-6, _REST_GRID)
    t2g = np.linspace(THETA2_BOX[0] + 1e-6, THETA2_BOX[1] - 1e-6, _REST_GRID)
    T1, T2 = np.meshgrid(t1g, t2g, indexing="ij")
    A = T1 + T2
    ex = geom.p_ax - (geom.l1 * np.sin(T1) + geom.l3 * np.sin(A + SPOKE_HALF_ANGLE))
    ey = geom.p_ay + (geom.l1 * np.cos(T1) + geom.l3 * np.cos(A + SPOKE_HALF_ANGLE))
    cx = geom.p_ax - (geom.l1 * np.sin(T1) + geom.l2 * np.sin(A))
    S = (ex - geom.p_ex0) ** 2 + (ey - geom.p_ey0) ** 2 + (cx - geom.p_cx0) ** 2
    i, j = np.unravel_index(int(np.argmin(S)), S.shape)
    t1, t2 = float(t1g[i]), float(t2g[j])

    converged = False
    for _ in range(_REST_CAP):
        r = _rest_residual(geom, t1, t2)
        j1, j2, h11, h22 = _partials(geom, t1, t2)
        g1 = sum(x * y for x, y in zip(j1, r))
        g2 = sum(x * y for x, y in zip(j2, r))
        a11 = sum(x * x + y * z for x, y, z in zip(j1, r, h11))
        a12 = sum(x * w + y * z for x, w, y, z in zip(j1, j2, r, h22))
        a22 = sum(x * x + y * z for x, y, z in zip(j2, r, h22))
        det = a11 * a22 - a12 * a12
        if det == 0.0:
            break
        s1 = (a12 * g2 - a22 * g1) / det
        s2 = (a12 * g1 - a11 * g2) / det
        t1 += s1
        t2 += s2
        if max(abs(s1), abs(s2)) < 1e-12:
            converged = det > 0.0 and a11 > 0.0  # a minimum, not a saddle or a maximum
            break
    if not converged:
        raise GeometryInfeasible("rest-pose fit did not converge to a minimum in the angle box")

    margin = 1e-6
    if (t1 - THETA1_BOX[0] < margin or THETA1_BOX[1] - t1 < margin
            or t2 - THETA2_BOX[0] < margin or THETA2_BOX[1] - t2 < margin):
        raise GeometryInfeasible("no interior rest configuration in the angle box")

    (cx0, _), _, (ex0, ey0), _ = _points(geom, t1, t2)
    return RestPose(
        theta1=t1,
        theta2=t2,
        p_ey0_eff=ey0,
        p_cx0_eff=cx0,
        residual=(ex0 - geom.p_ex0, ey0 - geom.p_ey0, cx0 - geom.p_cx0),
    )


def _joint_state(geom: CavsGeometry, pose: RestPose, theta1: float, theta2: float) -> JointState:
    p_c, p_d, p_e, gamma = _points(geom, theta1, theta2)
    return JointState(
        theta1=theta1,
        theta2=theta2,
        d=pose.p_ey0_eff - p_e[1],
        p_C=p_c,
        p_D=p_d,
        p_E=p_e,
        gamma=gamma,
    )


def _in_view(state: JointState) -> bool:
    """The sensing bounds: the strip faces the camera (cos(gamma) >= 0)
    and its end is in front of it (p_Dy > 0)."""
    return math.cos(state.gamma) >= 0.0 and state.p_D[1] > 0.0


def _last_true(pred, x: float, step: float) -> float:
    """The last point where pred holds, scanning from x (where it holds) in
    steps of step to the first point where it fails, then bisecting that
    step 60 times."""
    while pred(x + step):
        x += step
    off = x + step
    for _ in range(60):
        mid = 0.5 * (x + off)
        if pred(mid):
            x = mid
        else:
            off = mid
    return x


class FingertipModel:
    """What kinematics derives from one geometry, each part built once.

    The rest pose is fitted on construction (GeometryInfeasible when there
    is none, or when it lies at the edge of C's reach), and so are the end
    of the followed branch and, when d_sc lies on the branch, the d_sc
    state and its strip, the sensing reference.  The branch is
    parametrized by the height of C on the rail.  That height moves one
    way along the branch, at a rate proportional to sin(theta2), as long
    as theta2 stays inside (0, pi); given it, the chain A-B-C has one pose with theta2 in that box, and the
    apex depth d follows from the pose.  The parameter is
    q = sqrt(w_edge - w), where w is C's height above A, signed so that
    pressing raises it, and w_edge is where C runs out of reach (theta2 = 0
    or pi); the square root keeps d(q) smooth up to that edge.  d grows as
    q falls from the rest pose to the branch end, where d stops growing,
    theta2 reaches the edge of its box or theta1 leaves its box.

    Every solve after the d_sc state starts Newton from one seed fixed on
    construction, the cubic Hermite inverse of d(q) through the rest pose
    and the d_sc state, so a solve is a pure function of (geometry, d).
    The deformation limits are found on q on first use, so a rest pose that
    breaks the sensing bounds still solves; threads that race there compute
    the same values.
    """

    def __init__(self, geom: CavsGeometry) -> None:
        self.geom = geom
        self.rest = _fit_rest(geom)
        t1, a = self.rest.theta1, self.rest.theta1 + self.rest.theta2
        # dd/dy of C's height y has the sign of this at rest
        slope = math.sin(t1) * math.cos(a) - geom.l3 / geom.l2 * math.sin(a + SPOKE_HALF_ANGLE) * math.cos(t1)
        self._dir = math.copysign(1.0, slope)
        self._u = self.rest.p_cx0_eff - geom.p_ax
        w_rest = self._dir * (_points(geom, t1, a - t1)[0][1] - geom.p_ay)
        # C runs out of reach at |AC| = l1 + l2 (theta2 = 0) or, when the
        # rail passes closer to A than |l1 - l2| and w rises to 0 from
        # below, at |AC| = |l1 - l2| (theta2 = pi)
        inner = (geom.l1 - geom.l2) ** 2 - self._u ** 2
        if w_rest < 0.0 and inner > 0.0:
            self._w_edge = -math.sqrt(inner)
        else:
            self._w_edge = math.sqrt((geom.l1 + geom.l2) ** 2 - self._u ** 2)
        if not self._w_edge - w_rest > 0.0:
            raise GeometryInfeasible("the rest pose lies at the edge of the rail joint's reach")
        self._q_rest = math.sqrt(self._w_edge - w_rest)

        def on_branch(q: float) -> bool:
            b = self._branch(q)
            return b is not None and b[1] < 0.0 and THETA1_BOX[0] < math.atan2(b[2], b[3]) < THETA1_BOX[1]

        self._q_end = _last_true(on_branch, self._q_rest, -_SCAN)
        self._d_end = self._branch(self._q_end)[0]
        self._limits: tuple[float, float] | None = None
        # (q, branch point) at d_sc; solved from the rest pose, since the
        # seed of every later solve is built from it, as are the seed's
        # slopes dq/dd at the rest pose and at d_sc, and the strip there
        self._sc: tuple[float, tuple] | None = None
        self._sc_strip: tuple[float, float] | None = None
        if geom.d_sc <= self._d_end:
            self._sc = self._invert(geom.d_sc)
            self._sc_strip = self._strip(self._sc[1])
            self._m_rest = 1.0 / self._branch(self._q_rest)[1]
            self._m_sc = 1.0 / self._sc[1][1]

    def _branch(self, q: float) -> tuple | None:
        """(d, dd/dq, sin theta1, cos theta1, sin theta2, cos theta2,
        sin a, cos a) at branch parameter q, a = theta1 + theta2, or None
        where C is out of reach or theta2 is on the edge of its box.

        No angle is formed.  theta1 = phi - psi, where phi is the direction
        of AC and psi that of l1 + l2 e^(i theta2) in the frame of link l1;
        both vectors are AC, so their sines and cosines share the
        hypotenuse |AC| and theta1's follow from products over |AC|^2."""
        geom = self.geom
        l1, l2, u = geom.l1, geom.l2, self._u
        w = self._w_edge - q * q
        # (w_edge^2 - w^2) / (2 l1 l2), exact in q near the edge: it is
        # 1 - cos(theta2) at the outer edge and -(1 + cos(theta2)) at the inner
        gap = q * q * (self._w_edge + w) / (2.0 * l1 * l2)
        lo, hi = (gap, 2.0 - gap) if self._w_edge > 0.0 else (2.0 + gap, -gap)
        if not (lo > 0.0 and hi > 0.0):
            return None
        s2, c2 = math.sqrt(lo * hi), 1.0 - lo
        y, x, z = self._dir * w, l1 + l2 * c2, l2 * s2
        r2 = u * u + w * w
        s1, c1 = -(u * x + y * z) / r2, (y * x - u * z) / r2
        sa, ca = s1 * c2 + c1 * s2, c1 * c2 - s1 * s2
        # cos and sin of a + pi/6, the apex spoke
        ce, se = ca * _COS_SPOKE - 0.5 * sa, sa * _COS_SPOKE + 0.5 * ca
        ey = geom.p_ay + (l1 * c1 + geom.l3 * ce)
        # d = p_ey0_eff - Ey, y = p_ay + dir * w and dy/dq = -2 q dir
        dd_dy = (s1 * ca - geom.l3 / l2 * se * c1) / s2
        return self.rest.p_ey0_eff - ey, -2.0 * self._dir * q * dd_dy, s1, c1, s2, c2, sa, ca

    def _strip(self, b: tuple) -> tuple[float, float]:
        """(p_Dy, cos gamma) at branch point b: how far the strip end lies
        in front of the camera plane, and the cosine of gamma = a + pi/3."""
        sa, ca = b[6], b[7]
        p_dy = self.geom.p_ay + (self.geom.l1 * b[3] + self.geom.l3 * (ca * _COS_SPOKE + 0.5 * sa))
        return p_dy, 0.5 * ca - _COS_SPOKE * sa

    def _pose(self, b: tuple) -> JointState:
        return _joint_state(self.geom, self.rest, math.atan2(b[2], b[3]), math.atan2(b[4], b[5]))

    def _seed(self, d: float) -> float:
        """Where Newton starts for depth d: the cubic Hermite inverse of
        d(q) through (0, q_rest) and (d_sc, q_sc) with the branch's
        slopes there, extended linearly past d_sc; the rest pose before
        the d_sc state exists."""
        if self._sc is None:
            return self._q_rest
        q_sc, d_sc = self._sc[0], self.geom.d_sc
        if d >= d_sc:
            return q_sc + (d - d_sc) * self._m_sc
        t = d / d_sc
        s = 1.0 - t
        return ((self._q_rest * (1.0 + 2.0 * t) + d * self._m_rest) * s * s
                + (q_sc * (3.0 - 2.0 * t) - (d_sc - d) * self._m_sc) * t * t)

    def _invert(self, d: float) -> tuple[float, tuple]:
        """(q, branch point) where the depth is within 1e-12 mm of d."""
        if not math.isfinite(d) or d < 0.0:
            raise ValueError(f"deformation must be finite and >= 0, got {d!r}")
        if d > self._d_end:
            raise SolverFailure(f"d={d:g} is past the branch end at {self._d_end:g} mm")
        # Newton on d(q) = d from the seed, or from the rest pose when the
        # seed is not strictly inside the bracket (deep, shallow); bisect
        # the bracket whenever a step leaves it
        deep, shallow = self._q_end, self._q_rest
        q = self._seed(d)
        if not deep < q < shallow:
            q = shallow
        for _ in range(_SOLVE_CAP):
            b = self._branch(q)
            f = b[0] - d
            if abs(f) <= _DEPTH_TOL:
                return q, b
            if f > 0.0:
                deep = q
            else:
                shallow = q
            q -= f / b[1]
            if not (q - deep) * (q - shallow) < 0.0:
                q = 0.5 * (deep + shallow)
        raise SolverFailure(f"iteration cap {_SOLVE_CAP} exceeded at d={d:g}")

    def solve(self, d: float) -> JointState:
        """See solve_joint_angles."""
        return self._pose(self._invert(d)[1])

    def strip(self, d: float) -> tuple[float, float]:
        """(p_Dy, cos gamma) at depth d, without forming the pose."""
        return self._strip(self._invert(d)[1])

    def reference_strip(self) -> tuple[float, float]:
        """strip(d_sc), the full-contact sensing reference, kept from
        construction.  Raises GeometryInfeasible when d_sc is past the
        branch end or the strip is edge-on to the camera there."""
        if self._sc_strip is None:
            raise GeometryInfeasible(f"d_sc={self.geom.d_sc:g} is past the branch end "
                                     f"at {self._d_end:g} mm")
        if not self._sc_strip[1] > 0.0:
            raise GeometryInfeasible(f"the strip is edge-on to the camera at d_sc={self.geom.d_sc:g}")
        return self._sc_strip

    def limits(self) -> tuple[float, float]:
        """See deformation_limits."""
        if self._limits is not None:
            return self._limits

        def ok(q: float) -> bool:
            if q < self._q_end:
                return False
            p_dy, cos_g = self._strip(self._branch(q))
            return cos_g >= 0.0 and p_dy > 0.0

        if not ok(self._q_rest):
            raise GeometryInfeasible("rest configuration violates the sensing bounds")
        # the scan ends by the branch end at the latest
        d_max = max(0.0, self._branch(_last_true(ok, self._q_rest, -_SCAN))[0])
        # a solve lands within 1e-12 mm of d_max, on either side of the
        # bound; step back until the pose it returns meets the bounds
        while d_max > 0.0 and not _in_view(self.solve(d_max)):
            d_max = max(0.0, d_max - _DEPTH_TOL)
        self._limits = (0.0, d_max)
        return self._limits


def rest_pose(geom: CavsGeometry) -> RestPose:
    """Least-squares root of the three rest endpoint conditions
    {p_Ex = p_ex0, p_Ey = p_ey0, p_Cx = p_cx0} over the angle box.

    The argmin of a 100 x 100 grid over the box (its resolution picks the
    basin; a coarser grid picks another basin on some geometries), polished
    by Newton on the normal equations with analytic derivatives;
    deterministic for a given geometry.  Raises
    GeometryInfeasible when the fit does not converge or ends on the box
    edge.
    """
    return geom.model.rest


def forward_points(geom: CavsGeometry, theta1: float, theta2: float) -> JointState:
    """Endpoint positions, contact half-angle gamma, and deformation d for
    the given joint angles.  d is the drop of the apex E below its rest
    height.  Total over admissible angles."""
    return _joint_state(geom, rest_pose(geom), theta1, theta2)


def solve_joint_angles(geom: CavsGeometry, d: float) -> JointState:
    """Branch-followed solution of the deformation constraints at depth d.

    Inverts the monotone depth of the followed branch as a function of C's
    height on the rail (see FingertipModel) by Newton steps, bisecting
    whenever a step leaves the bracket between the rest pose and the branch
    end, until the depth residual is below 1e-12 mm.  Newton starts from a
    seed fixed when the model is built (the cubic Hermite inverse through
    the rest pose and the d_sc state), so the result depends on (geom, d)
    alone, not on earlier solves; the steps form no angle, and atan2 runs
    once, for the returned pose.  The rail constraint holds by
    construction.  Raises SolverFailure for d past the branch end (9.57 mm
    on the default geometry, where theta2 reaches 0; beyond its d_max).
    """
    return geom.model.solve(d)


def projected_width_wx(state: JointState, geom: CavsGeometry) -> float:
    """Horizontal extent of the red strip: l_r * cos(gamma), clamped to
    [0, l_r]."""
    return geom.l_r * max(0.0, math.cos(state.gamma))


def deformation_limits(geom: CavsGeometry) -> tuple[float, float]:
    """(d_min, d_max) for the followed branch.

    d_min = 0.  d_max is the largest depth at which the branch still solves
    with cos(gamma) >= 0 and the strip end stays in front of the camera
    (p_Dy > 0, the sensing validity bound).  It is found on the branch
    parameter, one branch evaluation per point: a 0.05 scan in q from the
    rest pose to the branch end and one bisection.  One
    solve_joint_angles(geom, d_max) then confirms the bounds on the pose
    it returns, and d_max steps back by 1e-12 mm until they hold there.
    Raises GeometryInfeasible when the rest pose breaks the bounds.
    """
    return geom.model.limits()
