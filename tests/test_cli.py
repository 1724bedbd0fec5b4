"""End-to-end tests of the command-line front end."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from charfred.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config() -> dict:
    return json.loads((CONFIGS / "cyclic.json").read_text(encoding="utf-8"))


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_ok_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["validate", "--config", str(CONFIGS / "cyclic.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert capsys.readouterr().err == ""


def test_validate_degenerate_spec_fails(capsys):
    rc = main(["validate", "--config", str(CONFIGS / "degenerate.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "nondegeneracy" in captured.err
    # The report still goes to stdout for inspection.
    assert json.loads(captured.out)["ok"] is False


def test_validate_missing_file(capsys):
    rc = main(["validate", "--config", "/nonexistent/nowhere.json"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config: no such file")


def test_validate_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["validate", "--config", str(path)])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_config_problems_are_all_reported(tmp_path, capsys):
    doc = base_config()
    doc["solver"]["method"] = "magic"
    doc["solver"]["tol"] = -1.0
    doc["rhs"][0] = "sin("
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(lines) == 3
    assert all(ln.startswith("config: ") for ln in lines)


def test_solve_reports_and_determinism(tmp_path, capsys):
    cfg = str(CONFIGS / "cyclic.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert "method=neumann iterations=9" in stdout
    for name in ("solution.csv", "outcome.json", "timings.json"):
        assert (out1 / name).is_file()
    # Byte-identical reruns; timings.json is exempt from that promise.
    assert (out1 / "solution.csv").read_bytes() == \
        (out2 / "solution.csv").read_bytes()
    assert (out1 / "outcome.json").read_bytes() == \
        (out2 / "outcome.json").read_bytes()
    doc = json.loads((out1 / "outcome.json").read_text(encoding="utf-8"))
    assert doc["method"] == "neumann"
    assert doc["iterations"] == 9
    assert doc["residual_sup"] < 1e-10
    header = (out1 / "solution.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "component,ix,iy,it,x,y,t,value"


def test_solve_uncoupled_single_iteration(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(CONFIGS / "uncoupled.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert doc["iterations"] == 1
    assert doc["residual_sup"] == 0.0


def test_solve_method_override_discrete(tmp_path):
    doc = base_config()
    doc["grid"] = {"nx": 6, "ny": 5, "nt": 5}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    rc = main(["solve", "--config", cfg, "--out", str(out),
               "--method", "discrete"])
    assert rc == 0
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert outcome["method"] == "discrete"
    assert outcome["kernel_dimension_estimate"] == 0


def test_solve_nonconvergent_iteration(tmp_path, capsys):
    doc = base_config()
    doc["grid"] = {"nx": 8, "ny": 9, "nt": 9}
    doc["solver"] = {"method": "neumann", "tol": 1e-10, "max_iter": 8}
    for i, j in ((0, 2), (1, 0), (2, 1)):
        doc["system"]["b"][i][j] = "4"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "no convergence" in capsys.readouterr().err
    assert not (tmp_path / "run" / "solution.csv").exists()


@pytest.mark.parametrize("method", ["neumann", "auto"])
def test_solve_overflowing_iteration(method, tmp_path, capsys):
    # coupling scaled by 1e3: the iterates overflow before max_iter
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["b"] = [["0", "0", "400*cos(2*pi*y)"], ["300", "0", "0"],
                          ["0", "200*sin(2*pi*t)", "0"]]
    out = tmp_path / "run"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(out), "--method", method])
    captured = capsys.readouterr()
    if method == "neumann":
        assert rc == 3
        assert "no convergence" in captured.err
        assert not (out / "solution.csv").exists()
    else:
        assert rc == 0
        assert "iteration diverged" in captured.err
        assert "falling back to the dense section" in captured.err
        assert "method=discrete" in captured.out


@pytest.mark.parametrize("size", [6.9, 8.0, "8", True])
def test_config_rejects_non_integer_grid_size(size, tmp_path, capsys):
    doc = base_config()
    doc["grid"]["ny"] = size
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"config: grid.ny: expected an integer, got {size!r}\n"


def test_solve_rejects_invalid_spec(tmp_path, capsys):
    rc = main(["solve", "--config", str(CONFIGS / "degenerate.json"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "validation:" in capsys.readouterr().err


def test_diagnose_reports(tmp_path, capsys):
    out = tmp_path / "diag"
    rc = main(["diagnose", "--config", str(CONFIGS / "cyclic.json"),
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rows=" in stdout and "max_route_difference=" in stdout
    csv_lines = (out / "diagnostics.csv").read_text(
        encoding="utf-8").splitlines()
    assert csv_lines[0] == "power,omega,h,modulus,normalized"
    assert len(csv_lines) > 1
    doc = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    assert doc["feeding_component"] == 3
    assert len(doc["jacobians"]) == 1
    assert (out / "timings.json").is_file()


def test_diagnose_rejects_unresolvable_frequency(tmp_path, capsys):
    rc = main(["diagnose", "--config", str(CONFIGS / "cyclic.json"),
               "--out", str(tmp_path / "diag"), "--frequencies", "32"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("diagnose:")


def test_testbed_clean_run(tmp_path, capsys):
    out = tmp_path / "testbed.json"
    rc = main(["testbed", "--count", "50", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["violations"] == []
    # 50 random draws plus 20 crafted cases, 3 powers each.
    assert doc["checks"] == 210
    assert "checks=210 violations=0" in capsys.readouterr().out


def test_testbed_deterministic_report(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["testbed", "--count", "10", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["testbed", "--powers", "1,2"],
    ["testbed", "--powers", ""],
    ["testbed", "--count", "-1"],
])
def test_testbed_rejects_bad_requests(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("testbed:")
