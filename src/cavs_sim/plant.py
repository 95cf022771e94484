"""Two-finger parallel gripper squeezing a compliant object.

Each finger carries one fingertip whose press-force curve is non-monotonic
in deformation, and the object is a linear spring in series between them.
For finger faces at pos_left/pos_right (distance from object center,
opening positive) the equilibrium satisfies

    F(d_left) = F(d_right) = stiffness * c
    d_left + d_right + c = nominal_width - (pos_left + pos_right)

With a soft enough object the dip in F folds the equilibrium branch, so a
gap sweep shows snap-through hysteresis; the solver therefore enumerates
all equilibria on a fine grid and keeps the one nearest the previous
solution (ties toward smaller deformation), which reproduces the physical
branch-following behavior.  The closure gives d_right from d_left, clamped
at zero, so the enumeration is one sign scan of one continuous residual;
the clamp adds no root, because where it acts the residual is -F(d_left).

The scenario runner closes the loop: measure ratios, decide per-finger
deadband commands, move fingers, re-solve equilibrium, log one CSV record
per finger per tick.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControllerConfig, dual_finger_step
from .friction import (ContactState, Direction, FrictionParams, classify_contact_state,
                       max_resistible_force, max_resistible_force_at, press_curve_knots,
                       press_force_scalar, pressing_force)
from .kinematics import CavsGeometry, SolverFailure, solve_joint_angles
from .sensing import CameraModel, calibrate_sc_reference, red_area_ratio, reported_ratio


class NoContact(Exception):
    """Gap at or beyond the object width: zero forces, zero deformation."""


@dataclass(frozen=True)
class ObjectModel:
    nominal_width: float = 8.0
    stiffness: float = 2.0
    required_hold_force: float = 0.3
    slide_demand: float | None = None  # resolved at world construction when unset

    def __post_init__(self) -> None:
        if not self.nominal_width > 0:
            raise ValueError("nominal_width must be positive")
        if not self.stiffness > 0:
            raise ValueError("stiffness must be positive")
        if self.required_hold_force < 0:
            raise ValueError("required_hold_force must be >= 0")
        if self.slide_demand is not None and self.slide_demand < 0:
            raise ValueError("slide_demand must be >= 0")


@dataclass(frozen=True)
class PlantState:
    finger_pos_left: float
    finger_pos_right: float
    d_left: float
    d_right: float
    f_n_left: float
    f_n_right: float
    branch_memory: tuple[float, float]
    contact: bool = True
    snapped: bool = False


@dataclass(frozen=True)
class Disturbance:
    finger: str  # "left" | "right"
    kind: str  # "ratio_pct" | "force_N"
    magnitude: float
    t_offset_s: float = 0.0
    duration_s: float | None = None  # None = a single tick

    def __post_init__(self) -> None:
        if self.finger not in ("left", "right"):
            raise ValueError(f"finger must be left or right, got {self.finger!r}")
        if self.kind not in ("ratio_pct", "force_N"):
            raise ValueError(f"kind must be ratio_pct or force_N, got {self.kind!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")
        if self.t_offset_s < 0:
            raise ValueError("t_offset_s must be >= 0")
        if self.duration_s is not None and not self.duration_s > 0:
            raise ValueError("duration_s must be positive when given")

    def active(self, t_in_step: float, tick_dt: float) -> bool:
        span = tick_dt if self.duration_s is None else self.duration_s
        return self.t_offset_s - 1e-12 <= t_in_step < self.t_offset_s + span - 1e-12


@dataclass(frozen=True)
class ScenarioStep:
    name: str
    target_mode: ContactState
    duration_s: float
    disturbance: Disturbance | None = None

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ValueError(f"step {self.name!r}: duration must be positive")
        if self.target_mode not in (ContactState.LC, ContactState.SC):
            raise ValueError(f"step {self.name!r}: target mode must be LC or SC")


@dataclass(frozen=True)
class TimeSeriesRecord:
    time_s: float
    finger: str
    desired_state: ContactState
    r_img_pct: float
    r_target_pct: float
    delta_df_mm: float
    finger_pos_mm: float
    deformation_mm: float
    contact_state: ContactState
    f_n_N: float
    f_max_long_N: float
    slide_flag: bool


@dataclass(frozen=True)
class StepSummary:
    name: str
    target_mode: ContactState
    n_ticks: int
    entered_band_tick: int | None
    grasp_maintained: bool
    slide_achieved: bool
    band_occupancy: float


@dataclass(frozen=True)
class SlideOutcome:
    holds_left: bool
    holds_right: bool
    capacity_left: float
    capacity_right: float
    grasp_maintained: bool


_SCAN_STEP = 1e-3  # mm, equilibrium enumeration grid


def _enumerate_equilibria(fric: FrictionParams, obj: ObjectModel, squeeze: float,
                          d_sc: float) -> list[tuple[float, float]]:
    """All (d_left, d_right) roots of the force balance at the given squeeze
    (= d_left + d_right + compression).  d_right is eliminated through the
    closure and clamped at zero, leaving one continuous residual in d_left,

        balance(d_l) = F(max(0, squeeze - d_l - F(d_l)/k)) - F(d_l),

    whose roots are the grid nodes where it is exactly zero plus one
    bisection per strict sign change between adjacent nodes.  The clamp
    adds no root: wherever it acts the residual is F(0) - F(d_l) = -F(d_l),
    negative for d_l > 0, and it is continuous where the clamp sets in."""
    k = obj.stiffness
    knots = press_curve_knots(fric, d_sc)

    def balance(dl: float) -> float:
        f = press_force_scalar(knots, dl)
        return press_force_scalar(knots, max(0.0, squeeze - dl - f / k)) - f

    n = max(3, int(squeeze / _SCAN_STEP) + 2)
    dl = np.linspace(0.0, squeeze, n)
    f_dl = pressing_force(fric, dl, d_sc=d_sc)
    h = pressing_force(fric, np.maximum(squeeze - dl - f_dl / k, 0.0), d_sc=d_sc) - f_dl

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
    return [(d, max(0.0, squeeze - d - press_force_scalar(knots, d) / k)) for d in found]


def equilibrium_solve(fric: FrictionParams, obj: ObjectModel,
                      finger_pos_left: float, finger_pos_right: float,
                      branch_memory: tuple[float, float] = (0.0, 0.0),
                      *, d_sc: float = 3.5) -> PlantState:
    """Deformations and normal forces at the current finger positions.

    Enumerates every equilibrium of the non-monotonic force balance and
    keeps the root nearest branch_memory (path continuity across folds),
    breaking ties toward smaller total deformation.  Raises NoContact when
    the gap meets or exceeds the object width.
    """
    gap = finger_pos_left + finger_pos_right
    if gap < 0:
        raise ValueError(f"total gap must be >= 0, got {gap:g}")
    if gap >= obj.nominal_width:
        raise NoContact(f"gap {gap:g} mm >= object width {obj.nominal_width:g} mm")
    squeeze = obj.nominal_width - gap
    roots = _enumerate_equilibria(fric, obj, squeeze, d_sc)
    if not roots:
        raise SolverFailure(f"no equilibrium found at squeeze {squeeze:g} mm")
    m_l, m_r = branch_memory

    def rank(root: tuple[float, float]) -> tuple[float, float, float]:
        # quantize so mirrored root pairs tie exactly and fall through to d_left
        dist = math.hypot(root[0] - m_l, root[1] - m_r)
        return (round(dist, 9), round(root[0] + root[1], 9), root[0])

    d_l, d_r = min(roots, key=rank)
    f_l = float(pressing_force(fric, d_l, d_sc=d_sc))
    f_r = float(pressing_force(fric, d_r, d_sc=d_sc))
    snapped = math.hypot(d_l - m_l, d_r - m_r) > 1.0 and branch_memory != (0.0, 0.0)
    return PlantState(
        finger_pos_left=finger_pos_left,
        finger_pos_right=finger_pos_right,
        d_left=d_l,
        d_right=d_r,
        f_n_left=f_l,
        f_n_right=f_r,
        branch_memory=(d_l, d_r),
        contact=True,
        snapped=snapped,
    )


def no_contact_state(finger_pos_left: float, finger_pos_right: float) -> PlantState:
    return PlantState(finger_pos_left, finger_pos_right, 0.0, 0.0, 0.0, 0.0,
                      branch_memory=(0.0, 0.0), contact=False)


def slide_check(fric: FrictionParams, obj: ObjectModel, state: PlantState,
                direction: Direction, applied_tangential: float) -> SlideOutcome:
    """Hold/slide outcome per finger under the applied tangential force.

    A finger holds iff the demand does not exceed its maximum resistible
    force at its current deformation and normal force; the grasp is
    maintained iff the combined capacity covers required_hold_force.
    """
    cap_l = max_resistible_force_at(fric, state.d_left, direction, state.f_n_left)
    cap_r = max_resistible_force_at(fric, state.d_right, direction, state.f_n_right)
    return SlideOutcome(
        holds_left=applied_tangential <= cap_l,
        holds_right=applied_tangential <= cap_r,
        capacity_left=cap_l,
        capacity_right=cap_r,
        grasp_maintained=cap_l + cap_r >= obj.required_hold_force,
    )


def default_slide_demand(geom: CavsGeometry, fric: FrictionParams,
                         ctrl: ControllerConfig) -> float:
    """Midpoint between the LC and SC longitudinal f_MAX at their typical
    normal forces: the press force at the LC ratio target's deformation and
    at d_sc respectively.  Slides in LC, holds in SC by construction."""
    cam = calibrate_sc_reference(CameraModel(), geom)

    def ratio(d: float) -> float:
        return red_area_ratio(cam, geom, d)

    target = ctrl.r_target_LC
    lo, hi = 0.0, geom.d_sc
    if ratio(lo) >= target:
        d_lc = fric.d_LC_end  # degenerate curve; fall back to the LC boundary
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ratio(mid) < target:
                lo = mid
            else:
                hi = mid
        d_lc = 0.5 * (lo + hi)
    f_lc = float(pressing_force(fric, d_lc, d_sc=geom.d_sc))
    f_sc = float(pressing_force(fric, geom.d_sc, d_sc=geom.d_sc))
    lc_max = max_resistible_force(fric, ContactState.LC, Direction.longitudinal, f_lc)
    sc_max = max_resistible_force(fric, ContactState.SC, Direction.longitudinal, f_sc)
    return 0.5 * (lc_max + sc_max)


@dataclass
class GripperWorld:
    """Mutable closed-loop state advanced tick-by-tick by one runner."""

    geom: CavsGeometry
    cam: CameraModel  # calibrated
    fric: FrictionParams
    ctrl: ControllerConfig
    obj: ObjectModel
    slide_demand: float
    pos_left: float
    pos_right: float
    plant: PlantState
    rng: np.random.Generator
    time_s: float = 0.0


def make_world(geom: CavsGeometry, cam: CameraModel, fric: FrictionParams,
               ctrl: ControllerConfig, obj: ObjectModel, *,
               initial_gap: float | None = None, seed: int = 0) -> GripperWorld:
    """World at rest with the fingers parted to initial_gap (default: object
    width + 2 mm, i.e. not yet touching)."""
    cam = calibrate_sc_reference(cam, geom)
    gap = obj.nominal_width + 2.0 if initial_gap is None else initial_gap
    if gap < 0:
        raise ValueError("initial gap must be >= 0")
    pos = gap / 2.0
    demand = obj.slide_demand if obj.slide_demand is not None \
        else default_slide_demand(geom, fric, ctrl)
    try:
        plant = equilibrium_solve(fric, obj, pos, pos, (0.0, 0.0), d_sc=geom.d_sc)
    except NoContact:
        plant = no_contact_state(pos, pos)
    return GripperWorld(
        geom=geom, cam=cam, fric=fric, ctrl=ctrl, obj=obj,
        slide_demand=demand, pos_left=pos, pos_right=pos,
        plant=plant, rng=np.random.default_rng(seed),
    )


def scenario_step(world: GripperWorld, step: ScenarioStep,
                  tick_dt: float = 0.1) -> list[TimeSeriesRecord]:
    """Run one scenario step; two records (left, right) per tick.

    Per tick: measure each finger's ratio from its current deformation
    (noise, then any active disturbance), decide the deadband commands,
    move the fingers (floored at the object center), re-solve the
    equilibrium, and log the post-move state.  A force_N disturbance
    perturbs the logged/checked normal force instead of the measurement.
    """
    if not tick_dt > 0:
        raise ValueError("tick_dt must be positive")
    n_ticks = max(1, round(step.duration_s / tick_dt))
    target = world.ctrl.target(step.target_mode)
    records: list[TimeSeriesRecord] = []
    for i in range(n_ticks):
        t_in_step = i * tick_dt
        dist = step.disturbance
        dist_on = dist is not None and dist.active(t_in_step, tick_dt)

        r_l = reported_ratio(world.cam, world.geom, world.plant.d_left, world.rng)
        r_r = reported_ratio(world.cam, world.geom, world.plant.d_right, world.rng)
        if dist_on and dist.kind == "ratio_pct":
            if dist.finger == "left":
                r_l += dist.magnitude / 100.0
            else:
                r_r += dist.magnitude / 100.0

        cmd_l, cmd_r = dual_finger_step(world.ctrl, r_l, r_r, step.target_mode)
        world.pos_left = max(0.0, world.pos_left + cmd_l.delta_d_f)
        world.pos_right = max(0.0, world.pos_right + cmd_r.delta_d_f)

        try:
            plant = equilibrium_solve(world.fric, world.obj, world.pos_left,
                                      world.pos_right, world.plant.branch_memory,
                                      d_sc=world.geom.d_sc)
        except NoContact:
            plant = no_contact_state(world.pos_left, world.pos_right)
        except SolverFailure as exc:
            raise SolverFailure(f"tick {i} of step {step.name!r}: {exc}") from exc
        world.plant = plant

        checked = plant
        if dist_on and dist.kind == "force_N":
            if dist.finger == "left":
                checked = replace(plant, f_n_left=max(0.0, plant.f_n_left + dist.magnitude))
            else:
                checked = replace(plant, f_n_right=max(0.0, plant.f_n_right + dist.magnitude))

        applied = world.slide_demand if step.target_mode is ContactState.LC \
            else world.obj.required_hold_force
        outcome = slide_check(world.fric, world.obj, checked, Direction.longitudinal, applied)

        for finger, r_meas, cmd, pos, d, f_n, cap, holds in (
            ("left", r_l, cmd_l, world.pos_left, plant.d_left,
             checked.f_n_left, outcome.capacity_left, outcome.holds_left),
            ("right", r_r, cmd_r, world.pos_right, plant.d_right,
             checked.f_n_right, outcome.capacity_right, outcome.holds_right),
        ):
            records.append(TimeSeriesRecord(
                time_s=world.time_s,
                finger=finger,
                desired_state=step.target_mode,
                r_img_pct=r_meas * 100.0,
                r_target_pct=target * 100.0,
                delta_df_mm=cmd.delta_d_f,
                finger_pos_mm=pos,
                deformation_mm=d,
                contact_state=classify_contact_state(world.fric, d),
                f_n_N=f_n,
                f_max_long_N=cap,
                slide_flag=not holds,
            ))
        world.time_s += tick_dt
    return records


def run_scenario(world: GripperWorld, steps: list[ScenarioStep],
                 tick_dt: float = 0.1) -> tuple[list[TimeSeriesRecord], list[StepSummary]]:
    """Run all steps in order; per-step summaries alongside the records.

    The quantized steps usually overshoot the raw deadband, so the loop
    converges to a bounded limit cycle rather than a fixed point; a step
    therefore counts as settled from its first tick with both measured
    ratios inside the deadband widened by the step's largest observed
    per-tick ratio change.  grasp_maintained: combined hold capacity covers
    required_hold_force at every settled tick.  slide_achieved: both
    fingers slide at every settled tick.  band_occupancy: fraction of
    settled ticks inside the widened band."""
    if not steps:
        raise ValueError("scenario must contain at least one step")
    all_records: list[TimeSeriesRecord] = []
    summaries: list[StepSummary] = []
    for step in steps:
        recs = scenario_step(world, step, tick_dt)
        all_records.extend(recs)
        summaries.append(_summarize(world, step, recs))
    return all_records, summaries


def _summarize(world: GripperWorld, step: ScenarioStep,
               recs: list[TimeSeriesRecord]) -> StepSummary:
    target_pct = world.ctrl.target(step.target_mode) * 100.0
    eps_pct = world.ctrl.epsilon * 100.0
    n_ticks = len(recs) // 2
    left = recs[0::2]
    right = recs[1::2]

    jump = 0.0
    for series in (left, right):
        for i in range(1, n_ticks):
            jump = max(jump, abs(series[i].r_img_pct - series[i - 1].r_img_pct))
    band = eps_pct + jump

    entered: int | None = None
    for i in range(n_ticks):
        if (abs(left[i].r_img_pct - target_pct) <= band
                and abs(right[i].r_img_pct - target_pct) <= band):
            entered = i
            break

    if entered is None:
        return StepSummary(step.name, step.target_mode, n_ticks, None,
                           grasp_maintained=False, slide_achieved=False,
                           band_occupancy=0.0)

    settled = range(entered, n_ticks)
    grasp = all(left[i].f_max_long_N + right[i].f_max_long_N
                >= world.obj.required_hold_force for i in settled)
    slide = all(left[i].slide_flag and right[i].slide_flag for i in settled)
    occupied = sum(1 for i in settled
                   if abs(left[i].r_img_pct - target_pct) <= band
                   and abs(right[i].r_img_pct - target_pct) <= band)
    occupancy = occupied / max(1, len(settled))
    return StepSummary(step.name, step.target_mode, n_ticks, entered,
                       grasp_maintained=grasp, slide_achieved=slide,
                       band_occupancy=occupancy)


CSV_COLUMNS = ("time_s", "finger", "desired_state", "r_img_pct", "r_target_pct",
               "delta_df_mm", "finger_pos_mm", "deformation_mm", "contact_state",
               "f_n_N", "f_max_long_N", "slide_flag")


def _fmt6(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.6g}"


def records_to_csv(records: list[TimeSeriesRecord]) -> str:
    """CSV text with the fixed column order, 6-significant-digit numbers,
    3-decimal times, and LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow((
            f"{r.time_s:.3f}",
            r.finger,
            r.desired_state.value,
            _fmt6(r.r_img_pct),
            _fmt6(r.r_target_pct),
            _fmt6(r.delta_df_mm),
            _fmt6(r.finger_pos_mm),
            _fmt6(r.deformation_mm),
            r.contact_state.value,
            _fmt6(r.f_n_N),
            _fmt6(r.f_max_long_N),
            "1" if r.slide_flag else "0",
        ))
    return buf.getvalue()
