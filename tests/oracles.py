"""Independent oracles used to cross-check the package.

Everything here recomputes results from scratch: exhaustive / windowed grid
searches over the joint-angle box, the rest-pose fit on its earlier
700 x 700 basin grid, a brute-force equilibrium root scan, the plant's
earlier grid-and-bisection enumeration as a reference, and a hand-rolled
symmetric closed-loop simulation.  None of it calls into the
package's Newton solver or plant bracket logic -- where a force or ratio
curve is needed it is passed in as a plain callable.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

BOX_T1 = (-math.pi, 0.0)
BOX_T2 = (0.0, math.pi)


def endpoints(geom, t1, t2):
    """(ex, ey, cx, dx, dy) for the linkage; accepts numpy arrays."""
    a = t1 + t2
    o = math.pi / 6.0
    ex = geom.p_ax - (geom.l1 * np.sin(t1) + geom.l3 * np.sin(a + o))
    ey = geom.p_ay + (geom.l1 * np.cos(t1) + geom.l3 * np.cos(a + o))
    cx = geom.p_ax - (geom.l1 * np.sin(t1) + geom.l2 * np.sin(a))
    dx = geom.p_ax - (geom.l1 * np.sin(t1) + geom.l3 * np.sin(a - o))
    dy = geom.p_ay + (geom.l1 * np.cos(t1) + geom.l3 * np.cos(a - o))
    return ex, ey, cx, dx, dy


def endpoints_complex(geom, t1, t2):
    """Same points via complex rotations: a link at clockwise-from-vertical
    angle t points along i*e^(i*t).  Used to cross-check the trig form."""
    o = math.pi / 6.0
    b = complex(geom.p_ax, geom.p_ay) + geom.l1 * 1j * cmath.exp(1j * t1)
    e = b + geom.l3 * 1j * cmath.exp(1j * (t1 + t2 + o))
    c = b + geom.l2 * 1j * cmath.exp(1j * (t1 + t2))
    d = b + geom.l3 * 1j * cmath.exp(1j * (t1 + t2 - o))
    return c, d, e


def rest_misfit_grid(geom, step, chunk=512):
    """Exhaustive scan of the three-target rest misfit over the angle box;
    returns the best (t1, t2)."""
    t1s = np.arange(BOX_T1[0] + step, BOX_T1[1], step)
    t2s = np.arange(BOX_T2[0] + step, BOX_T2[1], step)
    best = (math.inf, 0.0, 0.0)
    for lo in range(0, len(t1s), chunk):
        t1 = t1s[lo:lo + chunk][:, None]
        ex, ey, cx, _, _ = endpoints(geom, t1, t2s[None, :])
        s = (ex - geom.p_ex0) ** 2 + (ey - geom.p_ey0) ** 2 + (cx - geom.p_cx0) ** 2
        i, j = np.unravel_index(int(np.argmin(s)), s.shape)
        if s[i, j] < best[0]:
            best = (float(s[i, j]), float(t1[i, 0]), float(t2s[j]))
    return best[1], best[2]


def rest_fit_grid700(geom):
    """The package's rest-pose fit as it stood with a 700 x 700 basin grid:
    the argmin of the three-target misfit on that grid over the angle box
    (1e-6 in from its edges), then Newton on the normal equations of the
    misfit with exact second derivatives, at most 30 steps, until a step is
    below 1e-12 rad.  Returns (t1, t2), or None where that fit raised
    GeometryInfeasible: Newton did not converge, converged to a saddle or a
    maximum, or ended within 1e-6 of the box edge."""
    t1g = np.linspace(BOX_T1[0] + 1e-6, BOX_T1[1] - 1e-6, 700)
    t2g = np.linspace(BOX_T2[0] + 1e-6, BOX_T2[1] - 1e-6, 700)
    ex, ey, cx, _, _ = endpoints(geom, t1g[:, None], t2g[None, :])
    s = (ex - geom.p_ex0) ** 2 + (ey - geom.p_ey0) ** 2 + (cx - geom.p_cx0) ** 2
    i, j = np.unravel_index(int(np.argmin(s)), s.shape)
    t1, t2 = float(t1g[i]), float(t2g[j])

    o = math.pi / 6.0
    for _ in range(30):
        a = t1 + t2
        s1, c1 = geom.l1 * math.sin(t1), geom.l1 * math.cos(t1)
        se, ce = geom.l3 * math.sin(a + o), geom.l3 * math.cos(a + o)
        sc, cc = geom.l2 * math.sin(a), geom.l2 * math.cos(a)
        # residuals of (Ex, Ey, Cx), their partials in t1 and t2, and the
        # second partials (t2 enters only through a, so d2/dt1dt2 = d2/dt2^2)
        r = (geom.p_ax - (s1 + se) - geom.p_ex0, geom.p_ay + (c1 + ce) - geom.p_ey0,
             geom.p_ax - (s1 + sc) - geom.p_cx0)
        j1, j2 = (-(c1 + ce), -(s1 + se), -(c1 + cc)), (-ce, -se, -cc)
        h11, h22 = (s1 + se, -(c1 + ce), s1 + sc), (se, -ce, sc)
        g1 = sum(x * y for x, y in zip(j1, r))
        g2 = sum(x * y for x, y in zip(j2, r))
        a11 = sum(x * x + y * z for x, y, z in zip(j1, r, h11))
        a12 = sum(x * w + y * z for x, w, y, z in zip(j1, j2, r, h22))
        a22 = sum(x * x + y * z for x, y, z in zip(j2, r, h22))
        det = a11 * a22 - a12 * a12
        if det == 0.0:
            return None
        d1 = (a12 * g2 - a22 * g1) / det
        d2 = (a12 * g1 - a11 * g2) / det
        t1 += d1
        t2 += d2
        if max(abs(d1), abs(d2)) < 1e-12:
            break
    else:
        return None
    if not (det > 0.0 and a11 > 0.0):
        return None
    margin = 1e-6
    if (t1 - BOX_T1[0] < margin or BOX_T1[1] - t1 < margin
            or t2 - BOX_T2[0] < margin or BOX_T2[1] - t2 < margin):
        return None
    return t1, t2


def solve_misfit_grid(geom, ey_target, cx_target, step, chunk=512, window=None):
    """Grid argmin of the two operating constraints at one deformation.

    window = ((t1, t2), radius) restricts the scan; None scans the whole
    box.  Also returns the node set below `loose` misfit for uniqueness
    checks: (t1_best, t2_best, low_nodes).
    """
    if window is None:
        t1s = np.arange(BOX_T1[0] + step, BOX_T1[1], step)
        t2s = np.arange(BOX_T2[0] + step, BOX_T2[1], step)
    else:
        (c1, c2), r = window
        t1s = np.arange(max(BOX_T1[0] + step, c1 - r), min(BOX_T1[1] - step, c1 + r), step)
        t2s = np.arange(max(BOX_T2[0] + step, c2 - r), min(BOX_T2[1] - step, c2 + r), step)
    loose = (10.0 * step) ** 2  # residual ~ |J| * dist, |J| <= ~10 mm/rad here
    best = (math.inf, 0.0, 0.0)
    low: list[tuple[float, float]] = []
    for lo in range(0, len(t1s), chunk):
        t1 = t1s[lo:lo + chunk][:, None]
        _, ey, cx, _, _ = endpoints(geom, t1, t2s[None, :])
        s = (ey - ey_target) ** 2 + (cx - cx_target) ** 2
        i, j = np.unravel_index(int(np.argmin(s)), s.shape)
        if s[i, j] < best[0]:
            best = (float(s[i, j]), float(t1[i, 0]), float(t2s[j]))
        for ii, jj in zip(*np.nonzero(s < loose)):
            low.append((float(t1[ii, 0]), float(t2s[jj])))
    return best[1], best[2], low


def compass(fn, t1, t2, step, tol):
    """Pattern search (8 directions) shrinking step to tol."""
    best = fn(t1, t2)
    dirs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    while step > tol:
        moved = False
        for d1, d2 in dirs:
            v = fn(t1 + d1 * step, t2 + d2 * step)
            if v < best:
                t1, t2, best = t1 + d1 * step, t2 + d2 * step, v
                moved = True
        if not moved:
            step *= 0.5
    return t1, t2


def equilibria_scan(force, stiffness, squeeze, step=1e-4):
    """Brute-force enumeration of (d_left, d_right) force-balance roots.

    Closure: d_left + d_right + force/stiffness = squeeze.  Scans d_left on
    a uniform grid, bisects every sign change of force(d_right_implied) -
    force(d_left) within the d_right >= 0 region.
    """
    def g(dl: float) -> float:
        dr = squeeze - dl - force(dl) / stiffness
        if dr < 0:
            return math.nan
        return force(dr) - force(dl)

    n = int(squeeze / step) + 2
    dls = np.linspace(0.0, squeeze, n)
    fs = force(dls)
    drs = squeeze - dls - fs / stiffness
    ok = drs >= 0
    gs = np.where(ok, force(np.where(ok, drs, 0.0)) - fs, np.nan)
    cross = ok[:-1] & ok[1:] & ((gs[:-1] == 0) | (np.sign(gs[:-1]) != np.sign(gs[1:])))
    roots: list[float] = []
    for i in np.nonzero(cross)[0]:
        a, b, ga = float(dls[i]), float(dls[i + 1]), float(gs[i])
        if ga == 0.0:
            root = a
        else:
            for _ in range(60):
                m = 0.5 * (a + b)
                gm = g(m)
                if gm == 0.0:
                    a = b = m
                    break
                if (gm < 0) == (ga < 0):
                    a, ga = m, gm
                else:
                    b = m
            root = 0.5 * (a + b)
        if not roots or abs(root - roots[-1]) > 1e-8:
            roots.append(root)
    return [(r, max(0.0, squeeze - r - force(r) / stiffness)) for r in roots]


def equilibria_grid_bisection(force, stiffness, squeeze, step=1e-3):
    """The package's root enumeration as it stood before its scan stopped at
    the clamp point and its refinement became a secant: the residual

        force(max(0, squeeze - dl - force(dl)/stiffness)) - force(dl)

    on the whole linspace(0, squeeze) grid at `step`, the nodes where it is
    exactly zero, and 60 bisection steps per strict sign change.  Returns
    the sorted (d_left, d_right) pairs."""
    def balance(dl: float) -> float:
        f = force(dl)
        return force(max(0.0, squeeze - dl - f / stiffness)) - f

    n = max(3, int(squeeze / step) + 2)
    dl = np.linspace(0.0, squeeze, n)
    f_dl = force(dl)
    h = force(np.maximum(squeeze - dl - f_dl / stiffness, 0.0)) - f_dl
    found = dl[h == 0.0].tolist()
    for i in np.nonzero(h[:-1] * h[1:] < 0.0)[0]:
        lo, hi, flo = float(dl[i]), float(dl[i + 1]), float(h[i])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = balance(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    found.sort()
    return [(d, max(0.0, squeeze - d - force(d) / stiffness)) for d in found]


def symmetric_depth(force, stiffness, squeeze):
    """Unique root of 2 d + force(d)/stiffness = squeeze by bisection.

    Valid only when the left side is strictly increasing in d (true for the
    default object stiffness; soft objects fold and need the full scan)."""
    lo, hi = 0.0, squeeze / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid + force(mid) / stiffness < squeeze:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hand_loop(ratio, force, stiffness, width, target, eps, step_open, step_close,
              gap0, n_ticks):
    """Hand simulation of the symmetric deadband loop.

    Both fingers see the same ratio, so one position suffices.  Returns the
    per-tick (measured_ratio, depth_after_move) pairs.
    """
    pos = gap0 / 2.0
    out = []
    for _ in range(n_ticks):
        gap = 2.0 * pos
        d = 0.0 if gap >= width else symmetric_depth(force, stiffness, width - gap)
        r = ratio(d)
        if r > target + eps:
            cmd = step_open
        elif r < target - eps:
            cmd = step_close
        else:
            cmd = 0.0
        pos = max(0.0, pos + cmd)
        gap = 2.0 * pos
        d_after = 0.0 if gap >= width else symmetric_depth(force, stiffness, width - gap)
        out.append((r, d_after))
    return out


def widened_band(ratio, force, stiffness, eps, target, step_open, step_close,
                 d_lo, d_hi, n=300):
    """Deadband plus the largest one-tick ratio change the controller can
    cause over [d_lo, d_hi].

    Controller-consistent: dual closes only fire below the deadband, dual
    opens only above it, nothing moves inside.  A negative gap command
    grows the squeeze, hence `s - 2 * cmd`.
    """
    worst = 0.0
    for d in np.linspace(d_lo, d_hi, n):
        d = float(d)
        r = ratio(d)
        if abs(r - target) <= eps:
            continue
        cmd = step_open if r > target else step_close
        s = 2.0 * d + force(d) / stiffness
        d2 = symmetric_depth(force, stiffness, max(0.0, s - 2.0 * cmd))
        worst = max(worst, abs(ratio(d2) - r))
    return eps + worst
