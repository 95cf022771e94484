"""Timing spans and call counters, installed from outside the package.

The traced run replaces module-level names that `plant` and `sensing`
imported (and the one `sensing` defines and calls itself, red_area_ratio)
with wrappers that record a span per call or count calls; nothing under
src/ changes.  The benchmark's own calls into the package are recorded as
spans too.  Spans stay in memory and are summarised per round.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from cavs_sim import plant, sensing

import harness

# (module, attribute, span name); each module looks the attribute up at call time
TIMED = (
    (plant, "equilibrium_solve", "plant.equilibrium_solve"),
    (plant, "reported_ratio", "sensing.reported_ratio"),
    (plant, "dual_finger_step", "control.dual_finger_step"),
    (plant, "slide_check", "plant.slide_check"),
    (plant, "calibrate_sc_reference", "sensing.calibrate_sc_reference"),
    (plant, "red_area_ratio", "sensing.red_area_ratio"),
    (sensing, "red_area_ratio", "sensing.red_area_ratio"),
    (sensing, "solve_joint_angles", "kinematics.solve_joint_angles"),
)
COUNTED = (
    (plant, "press_force_scalar", "friction.press_force_scalar"),
    (plant, "pressing_force", "friction.pressing_force"),
)

# every per-layer metric, in BENCHMARK.json order; a layer a workload never
# calls reads 0
PER_LAYER = (
    ("plant.equilibrium_solve.calls", "count"),
    ("plant.equilibrium_solve.busy_s", "s"),
    ("plant.equilibrium_solve.us_p50", "us"),
    ("friction.press_force_scalar.calls", "count"),
    ("friction.pressing_force.calls", "count"),
    ("kinematics.solve_joint_angles.calls", "count"),
    ("kinematics.solve_joint_angles.us_p50", "us"),
    ("sensing.reported_ratio.busy_s", "s"),
    ("sensing.red_area_ratio.us_p50", "us"),
    ("kinematics.rest_pose.ms", "ms"),
    ("sensing.calibrate_sc_reference.ms", "ms"),
    ("kinematics.deformation_limits.ms", "ms"),
    ("control.dual_finger_step.busy_s", "s"),
    ("plant.slide_check.busy_s", "s"),
    ("config.load_config.ms", "ms"),
    ("plant.make_world.ms", "ms"),
    ("plant.records_to_csv.ms", "ms"),
    ("plant.run_scenario.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def direct(name, fn, *args, **kwargs):
    """Untraced stand-in for Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans (id, parent id, name, start, end) and call counts of one round."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts = {name: 0 for _, _, name in COUNTED}
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _timed(self, name, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the imported names for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TIMED + COUNTED]
        try:
            for mod, attr, name in TIMED:
                setattr(mod, attr, self._timed(name, getattr(mod, attr)))
            for mod, attr, name in COUNTED:
                setattr(mod, attr, self._counted(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def cut(self) -> "Round":
        """Close the current round and start an empty one."""
        done = Round(self.spans, self.counts)
        self.spans = []
        self.counts = {name: 0 for name in self.counts}
        return done


class Round:
    def __init__(self, spans, counts) -> None:
        self.spans = spans
        self.counts = dict(counts)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]

    def self_time(self, name: str) -> list[float]:
        """Duration of each `name` span minus the spans directly inside it."""
        children: dict[int, float] = {}
        for _, parent, _, t0, t1 in self.spans:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
        return [t1 - t0 - children.get(sid, 0.0)
                for sid, _, n, t0, t1 in self.spans if n == name]

    def write_jsonl(self, fh, label: str) -> None:
        base = min((t0 for *_, t0, _ in self.spans), default=0.0)
        for sid, parent, name, t0, t1 in self.spans:
            fh.write(json.dumps({"round": label, "id": sid, "parent": parent, "name": name,
                                 "start_us": (t0 - base) * 1e6, "end_us": (t1 - base) * 1e6})
                     + "\n")
        fh.write(json.dumps({"round": label, "counts": self.counts}) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(setup: Round, rounds: list[Round], overhead_s: float) -> dict:
    """Every PER_LAYER metric from the traced set-up and the traced rounds.

    calls: in the first traced round (they repeat exactly round to round);
    busy_s: median over rounds of the time spent in the calls; us_p50:
    median call over all rounds; ms: the cold call, which is the set-up's
    first call where the set-up made one, and otherwise the median over
    rounds of each round's first call (a round of geometry_calibration
    starts on a new geometry).
    """
    first = rounds[0]
    out = {}
    for metric, unit in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            value = first.counts[name] if name in first.counts else len(first.durations(name))
        elif kind == "busy_s":
            value = _median([sum(r.durations(name)) for r in rounds])
        elif kind == "us_p50":
            value = _median([d for r in rounds for d in r.durations(name)]) * 1e6
        elif kind == "ms":
            cold = setup.durations(name)[:1] or [r.durations(name)[0] for r in rounds
                                                 if r.durations(name)]
            value = _median(cold) * 1e3
        elif kind == "self_s":
            value = _median([t for r in rounds for t in r.self_time(name)])
        else:  # trace.overhead_s
            value = overhead_s
        out[metric] = {"value": float(value), "unit": unit}
    return out


def traced_phase(workload: str, tracer: Tracer, seconds: float, min_rounds: int,
                 do_round) -> dict:
    """Alternate untraced and traced rounds for `seconds`; returns every
    per-layer metric and writes the spans of the set-up and the first
    traced round to out/trace-<workload>.jsonl.

    do_round(call) runs one round, calling the package through `call`
    (spans.direct or tracer.call).  The spans recorded so far are the
    traced set-up.  The overhead is the median traced round minus the
    median untraced one.
    """
    setup = tracer.cut()
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        do_round(direct)
        plain.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer.installed():
            do_round(tracer.call)
        traced.append(time.perf_counter() - t0)
        rounds.append(tracer.cut())
    harness.OUT_DIR.mkdir(exist_ok=True)
    with open(harness.OUT_DIR / f"trace-{workload}.jsonl", "w", encoding="utf-8") as fh:
        setup.write_jsonl(fh, "setup")
        rounds[0].write_jsonl(fh, "round")
    overhead = statistics.median(traced) - statistics.median(plain)
    return per_layer_metrics(setup, rounds, overhead)
