"""Contact-state classification, press-force curve, and anisotropic friction.

The fingertip contacts in a line at small deformation (LC), buckles through
a transition band, and settles into surface contact (SC).  The press-force
curve rises to a local maximum at the end of the LC range, dips to a local
minimum where SC begins, and rises again — the dip is what makes the
gripper snap through under a soft enough object.

The maximum resistible tangential force is linear in the slipping-onset
normal force with a small adhesion intercept, f_MAX = mu * f_nslip +
adhesion, with separate coefficients per contact state and pull direction.
The equivalent coefficient of maximum static friction (ECMSF) is just
f_MAX / f_nslip; the intercept makes it blow up at small loads.

Coefficient magnitudes are an assumed configuration: only the ratios
(SC more than twice LC; longitudinal about twice lateral) are contractual,
and they are enforced at construction.
"""
from __future__ import annotations

import enum
import types
from dataclasses import dataclass, field

import numpy as np


class ContactState(enum.Enum):
    LC = "LC"
    Transition = "Transition"
    SC = "SC"


class Direction(enum.Enum):
    lateral = "lateral"
    longitudinal = "longitudinal"


class DivisionDomain(ValueError):
    """f_nslip must be positive to form an ECMSF quotient."""


_Key = tuple[ContactState, Direction]
_COEFF_KEYS: tuple[_Key, ...] = (
    (ContactState.LC, Direction.lateral),
    (ContactState.LC, Direction.longitudinal),
    (ContactState.SC, Direction.lateral),
    (ContactState.SC, Direction.longitudinal),
)


def _default_mu() -> dict[_Key, float]:
    return {
        (ContactState.LC, Direction.lateral): 0.5,
        (ContactState.LC, Direction.longitudinal): 1.0,
        (ContactState.SC, Direction.lateral): 1.1,
        (ContactState.SC, Direction.longitudinal): 2.2,
    }


def _default_adhesion() -> dict[_Key, float]:
    return {k: 0.15 for k in _COEFF_KEYS}


@dataclass(frozen=True)
class FrictionParams:
    d_LC_end: float = 1.9
    d_SC_start: float = 3.3
    f_local_max: float = 1.43
    f_local_min: float = 0.97
    mu: dict[_Key, float] = field(default_factory=_default_mu)
    adhesion: dict[_Key, float] = field(default_factory=_default_adhesion)

    def __post_init__(self) -> None:
        if not 0 < self.d_LC_end < self.d_SC_start:
            raise ValueError("need 0 < d_LC_end < d_SC_start")
        if not self.f_local_max > self.f_local_min > 0:
            raise ValueError("need f_local_max > f_local_min > 0")
        for table, name in ((self.mu, "mu"), (self.adhesion, "adhesion")):
            if set(table) != set(_COEFF_KEYS):
                raise ValueError(f"{name} table must cover LC/SC x lateral/longitudinal")
        for key, val in self.mu.items():
            if not val > 0:
                raise ValueError(f"mu{key} must be positive")
        for key, val in self.adhesion.items():
            if val < 0:
                raise ValueError(f"adhesion{key} must be >= 0")
        for direction in Direction:
            lc = self.mu[(ContactState.LC, direction)]
            sc = self.mu[(ContactState.SC, direction)]
            if not sc > 2 * lc:
                raise ValueError(f"mu[SC,{direction.value}] must exceed twice mu[LC,{direction.value}]")
        for state in (ContactState.LC, ContactState.SC):
            ratio = self.mu[(state, Direction.longitudinal)] / self.mu[(state, Direction.lateral)]
            if not 1.6 <= ratio <= 2.4:
                raise ValueError(
                    f"longitudinal/lateral slope ratio {ratio:.3f} for {state.value} outside [1.6, 2.4]")
        # freeze the tables against accidental mutation
        object.__setattr__(self, "mu", types.MappingProxyType(dict(self.mu)))
        object.__setattr__(self, "adhesion", types.MappingProxyType(dict(self.adhesion)))


def classify_contact_state(params: FrictionParams, d: float) -> ContactState:
    """Total classification of deformation into LC / Transition / SC."""
    if d <= params.d_LC_end:
        return ContactState.LC
    if d >= params.d_SC_start:
        return ContactState.SC
    return ContactState.Transition


def _interp_coeffs(params: FrictionParams, d: float, direction: Direction) -> tuple[float, float]:
    """(mu, adhesion) at deformation d; linear blend across the transition
    band, equal to the LC row at its lower edge and the SC row at its upper."""
    lo, hi = params.d_LC_end, params.d_SC_start
    if d <= lo:
        w = 0.0
    elif d >= hi:
        w = 1.0
    else:
        w = (d - lo) / (hi - lo)
    mu_lc = params.mu[(ContactState.LC, direction)]
    mu_sc = params.mu[(ContactState.SC, direction)]
    ad_lc = params.adhesion[(ContactState.LC, direction)]
    ad_sc = params.adhesion[(ContactState.SC, direction)]
    return (1 - w) * mu_lc + w * mu_sc, (1 - w) * ad_lc + w * ad_sc


def max_resistible_force(params: FrictionParams, state: ContactState,
                         direction: Direction, f_nslip: float) -> float:
    """f_MAX = mu * f_nslip + adhesion for a pure LC or SC contact:
    max_resistible_force_at on that mode's edge of the transition band,
    where the blend weight is exactly 0 or 1.

    Transition contacts are position-dependent; use
    max_resistible_force_at with the deformation instead.
    """
    if state is ContactState.Transition:
        raise ValueError("Transition coefficients depend on d; use max_resistible_force_at")
    edge = params.d_LC_end if state is ContactState.LC else params.d_SC_start
    return max_resistible_force_at(params, edge, direction, f_nslip)


def max_resistible_force_at(params: FrictionParams, d: float,
                            direction: Direction, f_nslip: float) -> float:
    """f_MAX at deformation d, interpolating across the transition band."""
    if f_nslip < 0:
        raise ValueError(f"f_nslip must be >= 0, got {f_nslip!r}")
    mu, adhesion = _interp_coeffs(params, d, direction)
    return mu * f_nslip + adhesion


def ecmsf(f_max: float, f_nslip: float) -> float:
    """Equivalent coefficient of maximum static friction, f_max / f_nslip."""
    if f_nslip <= 0:
        raise DivisionDomain(f"f_nslip must be positive, got {f_nslip!r}")
    return f_max / f_nslip


def _hermite(x, x0, x1, y0, y1, m0, m1):
    h = x1 - x0
    t = (x - x0) / h
    t2 = t * t
    t3 = t2 * t
    return (y0 * (2 * t3 - 3 * t2 + 1) + m0 * h * (t3 - 2 * t2 + t)
            + y1 * (-2 * t3 + 3 * t2) + m1 * h * (t3 - t2))


PressCurve = tuple[float, float, float, float, float, float, float, float]


def press_curve(params: FrictionParams, d_sc: float) -> PressCurve:
    """The knots (x1, x2, x3, y1, y2, y3, m0, s_tail) of the press curve of
    params with its tail knot at d_sc.  A plain tuple: it hashes and
    compares by value, and it unpacks on the interpreter's fast path, which
    a tuple subclass such as a NamedTuple does not."""
    if not d_sc > params.d_SC_start:
        raise ValueError("d_sc must exceed d_SC_start for the rising tail")
    x1, x2, x3 = params.d_LC_end, params.d_SC_start, d_sc
    y1, y2 = params.f_local_max, params.f_local_min
    y3 = 2 * params.f_local_max - params.f_local_min
    s_tail = (y3 - y2) / (x3 - x2)
    # one-sided endpoint slope at d = 0 (standard shape-preserving rule)
    h0, h1 = x1, x2 - x1
    d0, d1 = y1 / x1, (y2 - y1) / h1
    m0 = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if m0 < 0:
        m0 = 0.0
    elif m0 > 3 * d0:
        m0 = 3 * d0
    return x1, x2, x3, y1, y2, y3, m0, s_tail


def press_force_scalar(curve: PressCurve, x: float) -> float:
    """Press force at one deformation x >= 0; the per-point path of
    pressing_force, which hot loops call directly."""
    x1, x2, x3, y1, y2, y3, m0, s_tail = curve
    if x < 0:
        raise ValueError("deformation must be >= 0")
    if x <= x1:
        return float(_hermite(x, 0.0, x1, 0.0, y1, m0, 0.0))
    if x <= x2:
        return float(_hermite(x, x1, x2, y1, y2, 0.0, 0.0))
    if x <= x3:
        return float(_hermite(x, x2, x3, y2, y3, 0.0, s_tail))
    return y3 + s_tail * (x - x3)


def pressing_force(curve: PressCurve, d):
    """Press force as a function of deformation (buckling dip included).

    C1 piecewise cubic through (0, 0), the zero-slope local maximum
    (d_LC_end, f_local_max), the zero-slope local minimum
    (d_SC_start, f_local_min), and a derived tail knot at
    (d_sc, 2*f_local_max - f_local_min); linear beyond the tail knot with
    the matching secant slope.  Each cubic is monotone between its knots
    (Fritsch-Carlson slope limiting), so the only interior extrema are the
    two anchors.  Accepts scalars or numpy arrays; d must be >= 0, and a NaN
    array element comes out as NaN.
    """
    if np.ndim(d) == 0:
        return press_force_scalar(curve, float(d))
    x1, x2, x3, y1, y2, y3, m0, s_tail = curve
    x = np.asarray(d, dtype=float)
    if np.any(x < 0):
        raise ValueError("deformation must be >= 0")
    # each cubic only on its own segment; NaN fails every <= and lands in the tail
    le1, le2, le3 = x <= x1, x <= x2, x <= x3
    seg1, seg2, tail = le2 & ~le1, le3 & ~le2, ~le3
    out = np.empty_like(x)
    out[le1] = _hermite(x[le1], 0.0, x1, 0.0, y1, m0, 0.0)
    out[seg1] = _hermite(x[seg1], x1, x2, y1, y2, 0.0, 0.0)
    out[seg2] = _hermite(x[seg2], x2, x3, y2, y3, 0.0, s_tail)
    out[tail] = y3 + s_tail * (x[tail] - x3)
    return out
