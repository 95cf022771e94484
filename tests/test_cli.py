"""Command-line behavior: outputs, exit codes, atomic writes."""
from __future__ import annotations

import csv
import io
import json

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
