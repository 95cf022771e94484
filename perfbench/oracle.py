"""Reference computations the benchmark checks the program against.

Nothing here imports the solvers of cavs_sim.  The press curve is rebuilt
from the FrictionParams knots in Bezier form, the linkage endpoints come
from complex rotations, and the equilibria come from a brute-force 1e-4 mm
scan.  The checks run after the timed phase.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

SPOKE = math.pi / 6.0


class PressCurve:
    """Press force F(d) of the fingertip, rebuilt from the FrictionParams knots.

    Four knots: (0, 0), the zero-slope local maximum (d_LC_end, f_local_max),
    the zero-slope local minimum (d_SC_start, f_local_min) and the tail knot
    (d_sc, 2 f_local_max - f_local_min), whose slope is the secant of the last
    segment.  The slope at 0 is the shape-preserving three-point end rule,
    held inside [0, 3 * the first secant].  Each segment is evaluated as a
    cubic Bezier curve; beyond d_sc the curve continues as a straight line.
    """

    def __init__(self, fric, d_sc: float):
        x = (0.0, fric.d_LC_end, fric.d_SC_start, d_sc)
        y = (0.0, fric.f_local_max, fric.f_local_min, 2.0 * fric.f_local_max - fric.f_local_min)
        h0, h1 = x[1] - x[0], x[2] - x[1]
        sec0, sec1 = (y[1] - y[0]) / h0, (y[2] - y[1]) / h1
        m_start = min(max(((2.0 * h0 + h1) * sec0 - h0 * sec1) / (h0 + h1), 0.0), 3.0 * sec0)
        self.tail_slope = (y[3] - y[2]) / (x[3] - x[2])
        slopes = (m_start, 0.0, 0.0, self.tail_slope)
        self.knots = x
        self.y_end = y[3]
        # per segment: start, width and the four Bezier control values
        self.segments = []
        for i in range(3):
            w = x[i + 1] - x[i]
            self.segments.append((x[i], w, y[i], y[i] + slopes[i] * w / 3.0,
                                  y[i + 1] - slopes[i + 1] * w / 3.0, y[i + 1]))

    @staticmethod
    def _bezier(segment, d):
        x0, w, p0, p1, p2, p3 = segment
        t = (d - x0) / w
        s = 1.0 - t
        return s * s * s * p0 + 3.0 * s * s * t * p1 + 3.0 * s * t * t * p2 + t * t * t * p3

    def scalar(self, d: float) -> float:
        if d > self.knots[3]:
            return self.y_end + self.tail_slope * (d - self.knots[3])
        seg = 0 if d <= self.knots[1] else (1 if d <= self.knots[2] else 2)
        return self._bezier(self.segments[seg], d)

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        seg = np.searchsorted(np.asarray(self.knots[1:]), d, side="left")
        out = self.y_end + self.tail_slope * (d - self.knots[3])
        for i, segment in enumerate(self.segments):
            on = seg == i
            out[on] = self._bezier(segment, d[on])
        return out


def equilibria(curve: PressCurve, stiffness: float, squeeze: float,
               step: float = 1e-4) -> list[tuple[float, float]]:
    """Every (d_left, d_right) with F(d_left) = F(d_right) = stiffness * c and
    d_left + d_right + c = squeeze, by a uniform scan over d_left with
    bisection of each sign change of F(d_right) - F(d_left) where d_right >= 0."""

    def implied_right(dl: float) -> float:
        return squeeze - dl - curve.scalar(dl) / stiffness

    def imbalance(dl: float) -> float:
        return curve.scalar(max(0.0, implied_right(dl))) - curve.scalar(dl)

    dl = np.linspace(0.0, squeeze, int(round(squeeze / step)) + 1)
    f_left = curve(dl)
    dr = squeeze - dl - f_left / stiffness
    valid = dr >= 0.0
    g = np.where(valid, curve(np.where(valid, dr, 0.0)) - f_left, np.nan)
    pairs = valid[:-1] & valid[1:] & ((g[:-1] == 0.0) | (np.signbit(g[:-1]) != np.signbit(g[1:])))
    roots: list[float] = []
    for i in np.flatnonzero(pairs):
        a, b, ga = float(dl[i]), float(dl[i + 1]), float(g[i])
        if ga != 0.0:
            for _ in range(60):
                m = 0.5 * (a + b)
                gm = imbalance(m)
                if gm == 0.0:
                    a = b = m
                    break
                if (gm < 0.0) == (ga < 0.0):
                    a, ga = m, gm
                else:
                    b = m
        root = a if ga == 0.0 else 0.5 * (a + b)
        if not roots or root - roots[-1] > 1e-9:
            roots.append(root)
    return [(r, max(0.0, implied_right(r))) for r in roots]


def nearest_to_memory(roots, memory):
    """The branch-following rule: the root nearest the previous solution,
    distances quantized to 1e-9 mm, ties to the smaller total deformation and
    then to the smaller d_left."""
    return min(roots, key=lambda r: (round(math.hypot(r[0] - memory[0], r[1] - memory[1]), 9),
                                     round(r[0] + r[1], 9), r[0]))


def deadband_command(ratio_pct: float, target_pct: float, epsilon: float,
                     step_open: float, step_close: float) -> float:
    """Finger move for one measured ratio: open above the band, close below it."""
    err = (ratio_pct - target_pct) / 100.0
    if err > epsilon:
        return step_open
    if err < -epsilon:
        return step_close
    return 0.0


def linkage(geom, theta1: float, theta2: float):
    """(B, C, D, E) as complex points: elbow B, rail end C, strip end D and
    apex E.  A link of length L at clockwise-from-vertical angle t is the
    vector L * i * exp(i t)."""
    b = complex(geom.p_ax, geom.p_ay) + geom.l1 * 1j * cmath.exp(1j * theta1)
    a = theta1 + theta2
    c = b + geom.l2 * 1j * cmath.exp(1j * a)
    d = b + geom.l3 * 1j * cmath.exp(1j * (a - SPOKE))
    e = b + geom.l3 * 1j * cmath.exp(1j * (a + SPOKE))
    return b, c, d, e


def rest_misfit(geom, theta1: float, theta2: float) -> float:
    """Squared distance of (E_x, E_y, C_x) from the nominal rest anchors."""
    _, c, _, e = linkage(geom, theta1, theta2)
    return (e.real - geom.p_ex0) ** 2 + (e.imag - geom.p_ey0) ** 2 + (c.real - geom.p_cx0) ** 2


def strip_view(geom, theta1: float, theta2: float) -> tuple[float, float]:
    """(horizontal extent of the strip link, depth of its end D in front of
    the camera); the red width the camera sees is proportional to their
    quotient."""
    b, _, d, _ = linkage(geom, theta1, theta2)
    return d.real - b.real, d.imag
