"""Config and scenario document parsing: defaults, overrides, rejection."""
from __future__ import annotations

import json

import pytest

from cavs_sim.config import (Config, ConfigError, load_config, load_scenario,
                             parse_config, parse_scenario)
from cavs_sim.friction import ContactState, Direction


def _mu(lc_lat=0.5, lc_long=1.0, sc_lat=1.1, sc_long=2.2):
    return {"LC": {"lateral": lc_lat, "longitudinal": lc_long},
            "SC": {"lateral": sc_lat, "longitudinal": sc_long}}


def test_empty_document_is_defaults():
    assert parse_config({}) == Config()
    assert parse_config({"geometry": {}, "camera": {}, "friction": {},
                         "controller": {}, "object": {}, "seed": 0}) == Config()


def test_overrides_land_in_the_right_sections():
    cfg = parse_config({
        "geometry": {"l_r": 6.0, "d_sc": 3.4},
        "camera": {"focal_px": 100.0, "image_width_px": 640, "noise_std_pct": 0.5},
        "friction": {"d_LC_end": 1.8, "mu": _mu()},
        "controller": {"epsilon": 0.01},
        "object": {"stiffness": 0.5, "slide_demand": 2.0},
        "seed": 42,
    })
    assert cfg.geometry.l_r == 6.0 and cfg.geometry.d_sc == 3.4
    assert cfg.camera.focal_px == 100.0 and cfg.camera.image_width_px == 640
    assert cfg.friction.d_LC_end == 1.8
    assert cfg.friction.mu[(ContactState.SC, Direction.longitudinal)] == 2.2
    assert cfg.controller.epsilon == 0.01
    assert cfg.object.stiffness == 0.5 and cfg.object.slide_demand == 2.0
    assert cfg.seed == 42


@pytest.mark.parametrize("doc", [
    {"extra": 1},
    {"geometry": {"l9": 1.0}},
    {"camera": {"fov": 90}},
    {"friction": {"mu_table": {}}},
    {"controller": {"gain": 2.0}},
    {"object": {"mass": 1.0}},
    {"friction": {"mu": _mu() | {"XC": {}}}},
    {"friction": {"mu": {"LC": {"lateral": 0.5, "longitudinal": 1.0, "up": 1.0},
                         "SC": {"lateral": 1.1, "longitudinal": 2.2}}}},
    {"friction": {"kinetic_fraction": 0.8}},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"geometry": {"l1": True}},
    {"geometry": {"l1": "4.33"}},
    {"geometry": []},
    {"camera": {"image_width_px": 320.0}},
    {"camera": {"image_width_px": True}},
    {"friction": {"mu": {"LC": {"lateral": 0.5}, "SC": {}}}},
    {"seed": 1.5},
    {"seed": True},
    {"seed": -1},
    {"controller": {"epsilon": None}},
    {"object": {"stiffness": float("inf")}},
    {"object": {"nominal_width": float("inf")}},
    {"geometry": {"d_sc": float("inf")}},
    {"geometry": {"p_ay": float("nan")}},
    {"camera": {"noise_std_pct": float("nan")}},
    {"friction": {"f_local_max": float("inf")}},
    {"geometry": {"p_ax": -float("inf")}},
    {"geometry": {"l2": 10 ** 400}},
])
def test_type_errors_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_domain_errors_arrive_as_config_errors():
    with pytest.raises(ConfigError, match="geometry"):
        parse_config({"geometry": {"l1": -1.0}})
    with pytest.raises(ConfigError, match="friction"):
        parse_config({"friction": {"f_local_max": 0.5}})  # below f_local_min
    with pytest.raises(ConfigError, match="twice"):
        parse_config({"friction": {"mu": _mu(sc_long=2.0)}})  # exactly 2x is out
    with pytest.raises(ConfigError, match="ratio"):
        parse_config({"friction": {"mu": _mu(lc_lat=0.4)}})  # long/lat 2.5
    with pytest.raises(ConfigError, match="adhesion"):
        parse_config({"friction": {"adhesion": _mu(lc_lat=-0.1)}})
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config({"controller": {"epsilon": 0.0}})
    with pytest.raises(ConfigError, match="stiffness"):
        parse_config({"object": {"stiffness": 0.0}})
    with pytest.raises(ConfigError, match="object: nominal_width"):
        parse_config({"object": {"nominal_width": 1e6}})  # a 1e9-node root scan


def test_d_sc_must_sit_on_the_rising_tail():
    with pytest.raises(ConfigError, match="d_sc"):
        parse_config({"geometry": {"d_sc": 3.2}})  # below default d_SC_start 3.3
    with pytest.raises(ConfigError, match="d_sc"):
        parse_config({"friction": {"d_SC_start": 3.6}})
    cfg = parse_config({"geometry": {"d_sc": 3.8}, "friction": {"d_SC_start": 3.6}})
    assert cfg.geometry.d_sc == 3.8


def test_load_config_paths(tmp_path):
    assert load_config(None) == Config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    assert load_config(path).seed == 3
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")


def test_scenario_round_trip(tmp_path):
    doc = {
        "steps": [
            {"name": "grab", "target_mode": "SC", "duration_s": 2.0},
            {"target_mode": "LC", "duration_s": 1.0,
             "disturbance": {"finger": "right", "kind": "ratio_pct",
                             "magnitude": -6.0, "t_offset_s": 0.5, "duration_s": 0.2}},
        ],
        "tick_dt_s": 0.05,
        "initial_gap_mm": 9.0,
    }
    sc = parse_scenario(doc)
    assert len(sc.steps) == 2
    assert sc.steps[0].name == "grab"
    assert sc.steps[1].name == "step 2"  # default name
    assert sc.steps[1].target_mode is ContactState.LC
    dist = sc.steps[1].disturbance
    assert dist.finger == "right" and dist.magnitude == -6.0
    assert sc.tick_dt_s == 0.05 and sc.initial_gap_mm == 9.0

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == sc


@pytest.mark.parametrize("doc,msg", [
    ({}, "non-empty"),
    ({"steps": []}, "non-empty"),
    ({"steps": {}}, "non-empty"),
    ({"steps": [{"target_mode": "Transition", "duration_s": 1.0}]}, "LC or SC"),
    ({"steps": [{"target_mode": "sc", "duration_s": 1.0}]}, "LC or SC"),
    ({"steps": [{"target_mode": "SC"}]}, "duration"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0, "speed": 2}]}, "unknown key"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0,
                 "disturbance": {"finger": "top", "kind": "ratio_pct",
                                 "magnitude": 1.0}}]}, "left or right"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0}], "tick_dt_s": 0}, "tick_dt"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0}], "initial_gap_mm": -2}, "gap"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0, "name": 7}]}, "name"),
    ({"steps": [{"target_mode": "SC", "duration_s": float("inf")}]}, "finite"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1.0}], "tick_dt_s": float("nan")}, "finite"),
    # tick counts past the limit are refused before any tick runs
    ({"steps": [{"target_mode": "SC", "duration_s": 1e9}]}, "ticks"),
    ({"steps": [{"target_mode": "SC", "duration_s": 1e300}], "tick_dt_s": 1e-300}, "ticks"),
    ({"steps": [{"target_mode": "SC", "duration_s": 6000.0}] * 2, "tick_dt_s": 0.1}, "ticks"),
])
def test_scenario_rejection(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_scenario(doc)


def test_bundled_scenario_parses():
    import importlib.resources as res
    text = (res.files("cavs_sim") / "scenarios" / "tube_5step.json").read_text()
    sc = parse_scenario(json.loads(text))
    assert len(sc.steps) == 5
    modes = [s.target_mode for s in sc.steps]
    assert ContactState.SC in modes and ContactState.LC in modes
    assert any(s.disturbance is not None for s in sc.steps)
