"""Command-line behavior: outputs, exit codes, atomic writes."""
from __future__ import annotations

import csv
import io
import json
import warnings

import pytest

from cavs_sim import cli
from cavs_sim.cli import main
from cavs_sim.friction import (ContactState, Direction, FrictionParams,
                               max_resistible_force, pressing_force)
from cavs_sim.kinematics import CavsGeometry, solve_joint_angles
from cavs_sim.sensing import CameraModel, calibrate_sc_reference, ppm_to_frame, red_area_ratio


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_ratio_curve_stdout(capsys):
    assert main(["ratio-curve"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 351
    assert rows[0]["d_mm"] == "0" and rows[-1]["d_mm"] == "3.5"
    assert rows[-1]["r_img_pct"] == "100"
    vals = [float(r["r_img_pct"]) for r in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    states = [r["contact_state"] for r in rows]
    assert states[0] == "LC" and states[-1] == "SC" and "Transition" in states


def test_ratio_curve_matches_library_row_for_row(capsys):
    assert main(["ratio-curve", "--d-min", "1.0", "--d-max", "2.0", "--step", "0.25"]) == 0
    rows = _rows(capsys.readouterr().out)
    cam = calibrate_sc_reference(CameraModel(), CavsGeometry())
    assert [r["d_mm"] for r in rows] == ["1", "1.25", "1.5", "1.75", "2"]
    for row in rows:
        expect = red_area_ratio(cam, CavsGeometry(), float(row["d_mm"])) * 100.0
        assert float(row["r_img_pct"]) == pytest.approx(expect, rel=1e-5)


def test_press_curve_anchors(capsys):
    assert main(["press-curve", "--step", "0.1"]) == 0
    rows = {r["d_mm"]: r["force_N"] for r in _rows(capsys.readouterr().out)}
    assert rows["0"] == "0"
    assert rows["1.9"] == "1.43"
    assert rows["3.3"] == "0.97"
    assert rows["3.5"] == "1.89"


def test_anisotropy_table(capsys):
    assert main(["anisotropy", "--f-min", "0.5", "--f-max", "2.5", "--step", "0.5"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 20  # 2 directions x 2 states x 5 loads
    fric = FrictionParams()
    for row in rows[:5]:
        assert row["direction"] == "lateral" and row["state"] == "LC"
    spot = rows[7]
    expect = max_resistible_force(fric, ContactState[spot["state"]],
                                  Direction[spot["direction"]], float(spot["f_nslip_N"]))
    assert float(spot["f_max_N"]) == pytest.approx(expect, rel=1e-5)
    for i in range(0, 20, 5):
        block = [float(r["ecmsf"]) for r in rows[i:i + 5]]
        assert all(a > b for a, b in zip(block, block[1:]))


def test_solve_report(capsys):
    assert main(["solve", "--d", "1.9"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    state = solve_joint_angles(CavsGeometry(), 1.9)
    assert float(out["theta1_rad"]) == pytest.approx(state.theta1, abs=1e-9)
    assert float(out["theta2_rad"]) == pytest.approx(state.theta2, abs=1e-9)
    assert out["r_img_pct"] == "41.8971"
    assert float(out["p_dy_mm"]) > 0


def test_out_file_matches_stdout(tmp_path, capsys):
    assert main(["press-curve"]) == 0
    piped = capsys.readouterr().out
    path = tmp_path / "curve.csv"
    assert main(["press-curve", "--out", str(path)]) == 0
    assert path.read_text() == piped
    assert capsys.readouterr().out == ""


def test_control_demo_bundled(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    assert main(["control-demo", "--out", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert "entered_band_tick=never" not in line
        assert "target=SC" in line or "target=LC" in line
    assert all("grasp_maintained=yes" in l for l in lines if "target=SC" in l)
    assert all("slide_achieved=yes" in l for l in lines if "target=LC" in l)
    text = path.read_text()
    assert text.startswith("time_s,finger,desired_state,")
    assert text.endswith("\n")


def test_control_demo_seed_determinism(tmp_path, capsys):
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({"camera": {"noise_std_pct": 0.5}}))
    scn = tmp_path / "one.json"
    scn.write_text(json.dumps(
        {"steps": [{"name": "grab", "target_mode": "SC", "duration_s": 2.0}]}))

    def run(seed, name):
        path = tmp_path / name
        rc = main(["control-demo", "--config", str(cfg), "--scenario", str(scn),
                   "--out", str(path), "--seed", str(seed)])
        capsys.readouterr()
        assert rc == 0
        return path.read_bytes()

    assert run(5, "a.csv") == run(5, "b.csv")
    assert run(5, "c.csv") != run(6, "d.csv")


def test_render_ppm(tmp_path):
    path = tmp_path / "frame.ppm"
    assert main(["render", "--d", "1.9", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert data.startswith(b"P6")
    frame = ppm_to_frame(data)
    assert (frame.width, frame.height) == (320, 240)
    px = memoryview(frame.pixels)
    red = [i for i in range(0, len(px), 3)
           if px[i] >= 200 and px[i + 1] <= 50 and px[i + 2] <= 50]
    assert red


@pytest.mark.parametrize("argv,code,prefix", [
    (["ratio-curve", "--d-max", "10"], 2, "error:"),
    (["ratio-curve", "--d-min", "1.0", "--d-max", "0.5"], 2, "error:"),
    (["ratio-curve", "--step", "0"], 2, "error:"),
    (["press-curve", "--d-max", "-1"], 2, "error:"),
    (["anisotropy", "--f-min", "0"], 2, "error:"),
    (["control-demo"], 2, "error:"),
    (["render", "--out", "x.ppm"], 2, "error:"),
    (["render", "--d", "4.6", "--out", "x.ppm"], 2, "error:"),
    (["solve"], 2, "error:"),
    (["solve", "--d", "50"], 2, "error:"),
    (["ratio-curve", "--seed", "-1"], 2, "error:"),
    (["solve", "--d", "nan"], 2, "error:"),
    (["solve", "--d", "inf"], 2, "error:"),
    (["render", "--d", "nan", "--out", "x.ppm"], 2, "error:"),
    (["press-curve", "--d-max", "inf"], 2, "error:"),
    (["anisotropy", "--f-max", "inf"], 2, "error:"),
    (["ratio-curve", "--step", "nan"], 2, "error:"),
    (["render", "--d", "50", "--out", "x.ppm"], 2, "error:"),
    # grids past the step limit are refused before numpy allocates them
    (["ratio-curve", "--step", "1e-9"], 2, "error:"),
    (["press-curve", "--step", "1e-9", "--out", "x.csv"], 2, "error:"),
    (["press-curve", "--step", "5e-324"], 2, "error:"),
    (["anisotropy", "--step", "1e-9"], 2, "error:"),
    # one positive-step check in the shared grid builder
    (["press-curve", "--step", "0"], 2, "error:"),
    (["anisotropy", "--step", "-1"], 2, "error:"),
])
def test_exit_codes_and_single_line_stderr(argv, code, prefix, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any --out side effects stay here
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config,argv", [
    # overflowed in the rest-fit grid: a RuntimeWarning before the error line
    ({"geometry": {"l1": 1e300}}, ["solve", "--d", "1"]),
    # printed inf forces with exit 0
    (None, ["press-curve", "--d-max", "1e308", "--step", "1e307"]),
    # overflowed in the equilibrium scan and ran on with exit 0
    ({"friction": {"f_local_max": 1e300, "f_local_min": 1}}, ["control-demo", "--out", "run.csv"]),
], ids=["geometry-l1", "press-curve-d-max", "friction-f-local-max"])
def test_extreme_finite_inputs_exit_2_with_one_line(config, argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would be a second stderr line
        assert main(argv) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1000" in err
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if config else [])


@pytest.mark.parametrize("config,argv,message", [
    # d_sc past the branch end: solve exited 2, the commands that calibrate
    # at d_sc first exited 3
    ({"geometry": {"p_ey0": 1e-300}}, ["ratio-curve"], "past the branch end"),
    ({"geometry": {"p_ey0": 1e-300}}, ["control-demo", "--out", "run.csv"], "past the branch end"),
    ({"geometry": {"l1": 1000}}, ["ratio-curve"], "past the branch end"),
    ({"geometry": {"l1": 1000}}, ["control-demo", "--out", "run.csv"], "past the branch end"),
    ({"geometry": {"d_sc": 1000}}, ["solve", "--d", "1"], "past the branch end"),
    ({"geometry": {"d_sc": 1000}}, ["ratio-curve"], "past the branch end"),
    ({"geometry": {"d_sc": 1000}}, ["control-demo", "--out", "run.csv"], "past the branch end"),
    # the strip is edge-on at d_sc: a traceback from the camera's check
    ({"geometry": {"l2": 0.001}}, ["solve", "--d", "1"], "edge-on"),
    ({"geometry": {"l2": 0.001}}, ["ratio-curve"], "edge-on"),
    ({"geometry": {"l2": 0.001}}, ["control-demo", "--out", "run.csv"], "edge-on"),
    # the rest pose at the edge of C's reach: a math domain error
    ({"geometry": {"l2": 1e-300}}, ["solve", "--d", "1"], "reach"),
    ({"geometry": {"l2": 1e-300}}, ["ratio-curve"], "reach"),
    ({"geometry": {"l2": 1e-300}}, ["control-demo", "--out", "run.csv"], "reach"),
    # a reference width that underflows to 0: the same camera check
    ({"camera": {"focal_px": 1e-300}, "geometry": {"l_r": 1e-300}}, ["solve", "--d", "1"],
     "no width"),
    # subnormal values overflowed in numpy and ran on with exit 0
    ({"object": {"stiffness": 5e-324}}, ["control-demo", "--out", "run.csv"], "1e-300"),
    ({"friction": {"d_LC_end": 5e-324}}, ["control-demo", "--out", "run.csv"], "1e-300"),
    ({"friction": {"d_LC_end": 5e-324}}, ["press-curve"], "1e-300"),
], ids=["p_ey0-ratio-curve", "p_ey0-control-demo", "l1-ratio-curve", "l1-control-demo",
        "d_sc-solve", "d_sc-ratio-curve", "d_sc-control-demo",
        "l2-edge-on-solve", "l2-edge-on-ratio-curve", "l2-edge-on-control-demo",
        "l2-reach-solve", "l2-reach-ratio-curve", "l2-reach-control-demo", "width-underflow",
        "stiffness-subnormal", "d_LC_end-subnormal-control-demo", "d_LC_end-subnormal-press-curve"])
def test_unusable_geometries_and_tiny_values_exit_2_with_one_line(config, argv, message, capsys,
                                                                   tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would be a second stderr line
        assert main(argv + ["--config", "cfg.json"]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_render_refuses_a_huge_camera_before_allocating(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"camera": {"image_width_px": 100_000, "image_height_px": 100_000}}))

    def render(*args):
        raise AssertionError("a 100,000 x 100,000 frame reached the renderer")

    monkeypatch.setattr(cli, "render_synthetic_frame", render)
    assert main(["render", "--d", "1", "--config", "cfg.json", "--out", "frame.ppm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: camera.image_width_px") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_memory_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    # a request the caps let through can still exhaust memory; it must end
    # like any refused request, not with a traceback
    monkeypatch.chdir(tmp_path)

    def exhausted(cfg, args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_anisotropy", exhausted)
    assert main(["anisotropy", "--out", "table.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_config_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["ratio-curve", "--config", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    bad.write_text(json.dumps({"geometry": {"warp": 1}}))
    assert main(["ratio-curve", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
    # deep infeasibility surfaces at solve time, still a config problem
    bad.write_text(json.dumps({"geometry": {"p_ay": -20.0}}))
    assert main(["ratio-curve", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_io_error_exits(tmp_path, capsys):
    missing = tmp_path / "nope" / "out.csv"
    assert main(["press-curve", "--out", str(missing)]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    assert main(["press-curve", "--config", str(tmp_path / "absent.json")]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")


def test_failed_run_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["ratio-curve", "--d-max", "10", "--out", str(out)]) == 2
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


def test_argparse_rejects_unknown_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
