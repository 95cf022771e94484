from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavs_sim.friction import (
    ContactState,
    Direction,
    DivisionDomain,
    FrictionParams,
    classify_contact_state,
    ecmsf,
    max_resistible_force,
    max_resistible_force_at,
    press_curve,
    pressing_force,
)

P = FrictionParams()
CURVE = press_curve(P, 3.5)


def _slope_right(d: float, h: float = 1e-6) -> float:
    # one-sided second-order difference, stays within one cubic segment
    f0 = pressing_force(CURVE, d)
    return (-3 * f0 + 4 * pressing_force(CURVE, d + h) - pressing_force(CURVE, d + 2 * h)) / (2 * h)


def _slope_left(d: float, h: float = 1e-6) -> float:
    f0 = pressing_force(CURVE, d)
    return (3 * f0 - 4 * pressing_force(CURVE, d - h) + pressing_force(CURVE, d - 2 * h)) / (2 * h)


def test_press_curve_anchors():
    assert pressing_force(CURVE, 0.0) == 0.0
    assert pressing_force(CURVE, 1.9) == pytest.approx(1.43, abs=1e-12)
    assert pressing_force(CURVE, 3.3) == pytest.approx(0.97, abs=1e-12)
    assert pressing_force(CURVE, 3.5) == pytest.approx(1.89, abs=1e-12)


def test_press_curve_zero_slope_at_extrema():
    for d in (1.9, 3.3):
        assert abs(_slope_left(d)) < 1e-8
        assert abs(_slope_right(d)) < 1e-8


def test_press_curve_segment_monotonicity():
    d = np.linspace(0.0, 1.9, 400)
    assert (np.diff(pressing_force(CURVE, d)) > 0).all()
    d = np.linspace(1.9, 3.3, 400)
    assert (np.diff(pressing_force(CURVE, d)) < 0).all()
    d = np.linspace(3.3, 4.5, 400)
    assert (np.diff(pressing_force(CURVE, d)) > 0).all()


def test_press_curve_c1_joins():
    for d in (1.9, 3.3, 3.5):
        assert abs(_slope_left(d) - _slope_right(d)) < 1e-7


def test_press_curve_linear_tail():
    # beyond the tail knot the curve is a straight line with the tail secant
    s = (1.89 - 0.97) / (3.5 - 3.3)
    assert pressing_force(CURVE, 4.0) == pytest.approx(1.89 + 0.5 * s, abs=1e-12)
    f = pressing_force(CURVE, np.array([3.5, 3.75, 4.0, 4.25]))
    assert np.allclose(np.diff(f, 2), 0.0, atol=1e-12)


def test_press_curve_frozen_samples():
    assert pressing_force(CURVE, 0.5) == pytest.approx(0.6182774677817686, abs=1e-12)
    assert pressing_force(CURVE, 1.0) == pytest.approx(1.079945204234459, abs=1e-12)
    assert pressing_force(CURVE, 2.5) == pytest.approx(1.2489504373177842, abs=1e-12)
    assert pressing_force(CURVE, 3.4) == pytest.approx(1.315, abs=1e-12)


def test_press_curve_array_matches_scalar():
    d = np.linspace(0.0, 5.0, 173)
    arr = pressing_force(CURVE, d)
    assert arr.shape == d.shape
    for x, y in zip(d, arr):
        assert pressing_force(CURVE, float(x)) == pytest.approx(float(y), abs=1e-14)


def test_press_curve_array_nan_stays_nan():
    f = pressing_force(CURVE, np.array([0.5, np.nan, 2.5, 3.4, 4.0]))
    assert np.isnan(f[1])
    assert not np.isnan(np.delete(f, 1)).any()
    assert f[0] == pressing_force(CURVE, 0.5)
    assert f[4] == pressing_force(CURVE, 4.0)


def test_press_curve_rejects_negative():
    with pytest.raises(ValueError):
        pressing_force(CURVE, -0.01)
    with pytest.raises(ValueError):
        pressing_force(CURVE, np.array([0.5, -0.5]))


def test_classification_boundaries():
    assert classify_contact_state(P, 0.0) is ContactState.LC
    assert classify_contact_state(P, 1.9) is ContactState.LC
    assert classify_contact_state(P, 1.9000001) is ContactState.Transition
    assert classify_contact_state(P, 3.2999999) is ContactState.Transition
    assert classify_contact_state(P, 3.3) is ContactState.SC
    assert classify_contact_state(P, 10.0) is ContactState.SC


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        FrictionParams(d_LC_end=3.3, d_SC_start=3.3)
    with pytest.raises(ValueError):
        FrictionParams(f_local_max=0.9, f_local_min=0.97)
    # SC slope must exceed twice LC for each direction
    mu = {(ContactState.LC, Direction.lateral): 0.5,
          (ContactState.LC, Direction.longitudinal): 1.0,
          (ContactState.SC, Direction.lateral): 1.0,   # exactly 2x: rejected
          (ContactState.SC, Direction.longitudinal): 2.2}
    with pytest.raises(ValueError):
        FrictionParams(mu=mu)
    # longitudinal/lateral ratio outside [1.6, 2.4]
    mu = {(ContactState.LC, Direction.lateral): 0.5,
          (ContactState.LC, Direction.longitudinal): 1.3,
          (ContactState.SC, Direction.lateral): 1.1,
          (ContactState.SC, Direction.longitudinal): 2.2}
    with pytest.raises(ValueError):
        FrictionParams(mu=mu)
    with pytest.raises(ValueError):
        FrictionParams(adhesion={(s, dir_): -0.1 for s in (ContactState.LC, ContactState.SC)
                                 for dir_ in Direction})


def test_mu_table_is_read_only():
    with pytest.raises(TypeError):
        P.mu[(ContactState.LC, Direction.lateral)] = 9.0


def test_max_resistible_force():
    assert max_resistible_force(P, ContactState.LC, Direction.longitudinal, 1.0) \
        == pytest.approx(1.0 * 1.0 + 0.15)
    assert max_resistible_force(P, ContactState.SC, Direction.lateral, 2.0) \
        == pytest.approx(1.1 * 2.0 + 0.15)
    assert max_resistible_force(P, ContactState.SC, Direction.longitudinal, 0.0) \
        == pytest.approx(0.15)  # adhesion survives zero load
    with pytest.raises(ValueError):
        max_resistible_force(P, ContactState.Transition, Direction.lateral, 1.0)
    with pytest.raises(ValueError):
        max_resistible_force(P, ContactState.LC, Direction.lateral, -0.5)


def test_transition_interpolation_endpoints():
    # at and outside the band edges (d_LC_end 1.9, d_SC_start 3.3) the
    # interpolated f_MAX is the pure mode's, bit for bit
    for direction in Direction:
        for f in (0.0, 0.5, 1.7):
            for d in (0.0, 0.7, 1.5, 1.9):
                assert max_resistible_force_at(P, d, direction, f) \
                    == max_resistible_force(P, ContactState.LC, direction, f)
            for d in (3.3, 3.5, 4.2, 9.0):
                assert max_resistible_force_at(P, d, direction, f) \
                    == max_resistible_force(P, ContactState.SC, direction, f)
            mid = max_resistible_force_at(P, 2.6, direction, f)
            lo = max_resistible_force(P, ContactState.LC, direction, f)
            hi = max_resistible_force(P, ContactState.SC, direction, f)
            assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_ecmsf():
    assert ecmsf(2.35, 1.0) == 2.35
    with pytest.raises(DivisionDomain):
        ecmsf(1.0, 0.0)
    with pytest.raises(DivisionDomain):
        ecmsf(1.0, -2.0)


def test_ecmsf_strictly_decreasing_with_adhesion():
    # non-zero intercept means the ratio blows up at small loads
    for state in (ContactState.LC, ContactState.SC):
        for direction in Direction:
            fs = np.linspace(0.05, 5.0, 200)
            vals = [ecmsf(max_resistible_force(P, state, direction, float(f)), float(f))
                    for f in fs]
            assert all(b < a for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_classification_matches_thresholds(d):
    got = classify_contact_state(P, d)
    if d <= P.d_LC_end:
        assert got is ContactState.LC
    elif d >= P.d_SC_start:
        assert got is ContactState.SC
    else:
        assert got is ContactState.Transition


@given(st.floats(min_value=0.0, max_value=5.5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_press_curve_lipschitz(d):
    # no jumps anywhere: steepest interior slope (mid tail segment) is ~6.14
    h = 1e-6
    assert abs(pressing_force(CURVE, d + h) - pressing_force(CURVE, d)) < 7.0 * h
