"""End-to-end tests of the command-line front end."""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charfred
from charfred import characteristics, cli, fredholm
from charfred.cli import main
from charfred.config import ConfigError, load_config
from charfred.fredholm import DISCRETE_UNKNOWN_CAP, GMRES_MAX_ITER

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config() -> dict:
    return json.loads((CONFIGS / "cyclic.json").read_text(encoding="utf-8"))


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# couplings that defeat the Neumann iteration: the second also stalls
# restarted GMRES (condition number 7.3e5 on a 4-node grid)
CYCLIC_FOURS = [["0", "0", "4"], ["4", "0", "0"], ["0", "4", "0"]]
THOUSANDFOLD = [["0", "0", "400*cos(2*pi*y)"], ["300", "0", "0"],
                ["0", "200*sin(2*pi*t)", "0"]]
# THOUSANDFOLD at 4 nodes: GMRES on I + S converges in 33 iterations and
# on two refinement steps in 32 more each; the second step does not
# lower the full relative residual, which stays at 1.586e-13, above
# GMRES_RTOL
THOUSANDFOLD_STALL = "97 iterations (relative residual 1.586e-13)"


def test_validate_ok_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["validate", "--config", str(CONFIGS / "cyclic.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["cyclic", "degenerate"])
def test_validate_writes_the_same_bytes_to_stdout_and_out(name, tmp_path,
                                                          capsys):
    cfg = str(CONFIGS / f"{name}.json")
    rc = main(["validate", "--config", cfg])
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == rc
    assert out.read_bytes() == stdout.encode("utf-8")


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


@pytest.mark.parametrize("fault", [
    pytest.param(lambda doc: doc["system"].pop("gamma"), id="no-gamma"),
    pytest.param(lambda doc: doc["system"].pop("b"), id="no-b"),
    pytest.param(lambda doc: doc.pop("rhs"), id="no-rhs"),
    pytest.param(lambda doc: doc["system"].update(gamma="0"),
                 id="gamma-str"),
    pytest.param(lambda doc: doc["system"].update(b=3), id="b-number"),
    pytest.param(lambda doc: doc["system"]["b"].__setitem__(0, "0"),
                 id="b-row-str"),
    pytest.param(lambda doc: doc.update(rhs={}), id="rhs-object"),
    pytest.param(lambda doc: doc.pop("system"), id="no-system"),
    pytest.param(lambda doc: doc.update(system=5), id="system-number"),
    pytest.param(lambda doc: doc.pop("grid"), id="no-grid"),
    pytest.param(lambda doc: doc.update(grid=[4, 4, 4]), id="grid-list"),
])
def test_a_missing_or_malformed_value_is_one_line(fault, tmp_path, capsys):
    # nothing that reads the value afterwards reports it a second time
    doc = base_config()
    fault(doc)
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config: ")


def test_solve_reports_and_determinism(tmp_path, capsys):
    cfg = str(CONFIGS / "cyclic.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert "method=neumann iterations=5" in stdout
    for name in ("solution.csv", "outcome.json", "timings.json"):
        assert (out1 / name).is_file()
    # Byte-identical reruns; timings.json is exempt from that promise.
    assert (out1 / "solution.csv").read_bytes() == \
        (out2 / "solution.csv").read_bytes()
    assert (out1 / "outcome.json").read_bytes() == \
        (out2 / "outcome.json").read_bytes()
    doc = json.loads((out1 / "outcome.json").read_text(encoding="utf-8"))
    assert doc["method"] == "neumann"
    assert doc["iterations"] == 5
    assert doc["residual_sup"] < 1e-10
    header = (out1 / "solution.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "component,ix,iy,it,x,y,t,value"


def test_neumann_sweeps_a_mirrored_cycle_in_its_order(tmp_path, capsys):
    # the same couplings in the mirrored cycle, swept 1 -> 3 -> 2; the
    # forward order 1 -> 2 -> 3 would take 7 sweeps here
    doc = base_config()
    b = doc["system"]["b"]
    doc["system"]["b"] = [["0", b[0][2], "0"], ["0", "0", b[1][0]],
                          [b[2][1], "0", "0"]]
    doc["system"]["orientation"] = "mirrored"
    out = tmp_path / "run"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--method", "neumann"]) == 0
    assert "method=neumann iterations=5" in capsys.readouterr().out
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert outcome["iterations"] == 5
    assert outcome["residual_sup"] <= 1e-10


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
        assert "falling back to the discrete method" in captured.err
        assert "method=discrete" in captured.out


def test_timing_phases_sum_to_the_total_after_a_fallback(tmp_path):
    # the failed Neumann attempt counts towards solve_seconds
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["b"] = THOUSANDFOLD
    out = tmp_path / "run"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--method", "auto"]) == 0
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    phases = (timings["sample_seconds"] + timings["solve_seconds"]
              + timings["write_seconds"])
    assert phases == pytest.approx(timings["total_seconds"], abs=1e-9)


def test_solve_reports_a_gmres_stall(tmp_path, capsys):
    # refinement of GMRES on I + S stops short of GMRES_RTOL on the full
    # residual; the kernel count is 0, so LU solves the section of I + S
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["b"] = THOUSANDFOLD
    out = tmp_path / "run"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(out), "--method", "discrete"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (f"solve: GMRES stalled after {THOUSANDFOLD_STALL}"
                            f", solved the dense section directly\n")
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert outcome["iterations"] == 97
    assert f"{outcome['stalled_residual']:.3e}" == "1.586e-13"
    assert outcome["refinements"] == 1
    assert outcome["kernel_dimension_estimate"] == 0
    assert outcome["residual_sup"] < 1e-10


def test_solve_discrete_above_the_cap_certifies_the_kernel_estimate(
        tmp_path, capsys):
    doc = base_config()
    doc["grid"] = {"nx": 30, "ny": 16, "nt": 16}
    assert 3 * 31 * 16 * 16 > DISCRETE_UNKNOWN_CAP
    out = tmp_path / "run"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(out), "--method", "discrete"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert outcome["kernel_dimension_estimate"] == 0
    assert 0 < outcome["iterations"] < GMRES_MAX_ITER
    assert outcome["residual_sup"] < 1e-10


@pytest.mark.parametrize("coupling", [CYCLIC_FOURS, THOUSANDFOLD],
                         ids=["gmres-converges", "gmres-stalls"])
def test_auto_fallback_runs_above_the_cap(coupling, tmp_path, capsys,
                                          monkeypatch):
    # a cap below the 240 unknowns of a 4-node grid
    monkeypatch.setattr(fredholm, "DISCRETE_UNKNOWN_CAP", 100)
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["solver"]["max_iter"] = 8
    doc["system"]["b"] = coupling
    out = tmp_path / "run"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert "falling back to the discrete method" in err
    if coupling is CYCLIC_FOURS:
        assert rc == 0
        outcome = json.loads((out / "outcome.json").read_text(
            encoding="utf-8"))
        assert outcome["kernel_dimension_estimate"] is None
        assert outcome["residual_sup"] < 1e-10
    else:
        assert rc == 3
        assert err.endswith(
            f"solve: no convergence after {THOUSANDFOLD_STALL}\n")
        assert not (out / "solution.csv").exists()


def test_gmres_stall_above_the_cap_names_its_residual(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(fredholm, "DISCRETE_UNKNOWN_CAP", 100)
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["b"] = THOUSANDFOLD
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "run"), "--method", "discrete"])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"solve: no convergence after {THOUSANDFOLD_STALL}\n")


@pytest.mark.parametrize("nodes", [13, 25])
def test_discrete_solves_the_x30_coupling_without_the_full_section(
        nodes, tmp_path, capsys, monkeypatch):
    # every coupling x30: the certificate declines. At 13 nodes (6,591
    # unknowns) the kernel count and any direct solve run on the
    # 2,197-row section of I + S; 25 nodes (46,875 unknowns) are above
    # the dense cap, where a stall would exit 3
    def no_full_section(*args, **kwargs):
        raise AssertionError("full dense section assembled")

    monkeypatch.setattr(fredholm, "assemble_dense", no_full_section)
    doc = base_config()
    doc["grid"] = {"nx": nodes - 1, "ny": nodes, "nt": nodes}
    doc["system"]["b"] = [[e if e == "0" else f"30*({e})" for e in row]
                          for row in doc["system"]["b"]]
    out = tmp_path / "run"
    start = time.perf_counter()
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(out), "--method", "discrete"])
    assert time.perf_counter() - start < 30.0
    assert rc == 0
    assert capsys.readouterr().err == ""
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    assert outcome["kernel_dimension_estimate"] == (0 if nodes == 13
                                                    else None)
    assert outcome["stalled_residual"] is None
    # sup |f| is 1 for cyclic.json's right-hand side
    assert outcome["residual_sup"] <= 1e-9


def test_import_loads_no_scipy():
    # scipy loads inside the solvers that use it, not on import
    code = ("import sys, charfred, charfred.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(charfred.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_certified_discrete_solve_loads_no_scipy(tmp_path):
    # the certificate decides the kernel count and GMRES converges, so
    # neither solve_discrete nor the CLI's discrete solve needs scipy
    doc = base_config()
    doc["grid"] = {"nx": 6, "ny": 7, "nt": 7}
    cfg = write_config(tmp_path, doc)
    code = (
        "import sys\n"
        "import charfred as cf\n"
        "from charfred.cli import main\n"
        f"c = cf.load_config({cfg!r})\n"
        "out = cf.solve_discrete(c.spec, cf.sample(c.rhs, c.grid),\n"
        "                        kernel_estimate=True)\n"
        "assert out.kernel_dimension_estimate == 0, out\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
        f"rc = main(['solve', '--config', {cfg!r}, '--out',\n"
        f"           {str(tmp_path / 'run')!r}, '--method', 'discrete'])\n"
        "assert rc == 0, rc\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n")
    src = str(Path(charfred.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, check=True)
    # the CLI prints its summary line between the two
    lines = done.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]" and len(lines) == 3


@pytest.mark.parametrize("key,size", [
    *(pytest.param("grid.ny", size, id=str(size))
      for size in (6.9, 8.0, "8", True)),
    pytest.param("system.n", 3.0, id="system.n-3.0"),
    pytest.param("system.k", True, id="system.k-True"),
    pytest.param("system.l", "1", id="system.l-str"),
    pytest.param("grid.nx", 16.0, id="grid.nx-16.0"),
    pytest.param("grid.nt", False, id="grid.nt-False"),
    pytest.param("solver.max_iter", True, id="solver.max_iter-True"),
    pytest.param("solver.max_iter", 200.0, id="solver.max_iter-200.0"),
])
def test_config_rejects_non_integer_grid_size(key, size, tmp_path, capsys):
    doc = base_config()
    section, name = key.split(".")
    doc[section][name] = size
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"config: {key}: expected an integer, got {size!r}\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value,expected", [
    ("solver.tol", INF, "a finite number, got inf"),
    ("solver.tol", True, "a finite number, got True"),
    ("system.alpha", [NAN, 1, -1], "finite numbers, got [nan, 1, -1]"),
    ("system.beta", [1, -INF, 0.5], "finite numbers, got [1, -inf, 0.5]"),
    ("system.a1", [[NAN]], "finite numbers, got [[nan]]"),
    ("system.a3", [[INF]], "finite numbers, got [[inf]]"),
    ("system.period_y", NAN, "a finite number, got nan"),
    ("system.period_y", True, "a finite number, got True"),
    ("system.period_t", -INF, "a finite number, got -inf"),
    ("system.period_t", False, "a finite number, got False"),
    ("system.alpha", [True, 1, -1], "finite numbers, got [True, 1, -1]"),
    ("system.beta", [1, 0, False], "finite numbers, got [1, 0, False]"),
    ("system.a2", [[True]], "finite numbers, got [[True]]"),
])
def test_config_rejects_non_finite_numbers(key, value, expected, tmp_path,
                                           capsys):
    # JSON readers accept NaN and Infinity; neither may reach a solver
    doc = base_config()
    section, name = key.split(".")
    doc[section][name] = value
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"config: {key}: expected {expected}\n"
    assert not (tmp_path / "run").exists()


def test_solve_rejects_invalid_spec(tmp_path, capsys):
    rc = main(["solve", "--config", str(CONFIGS / "degenerate.json"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "validation:" in capsys.readouterr().err


# undefined at the node y = 0, which validation's sample points miss
POLE = "1/sin(2*pi*y)"


@pytest.mark.parametrize("where,label", [
    (("rhs", 0), "rhs[1]"), (("system", "b", 1, 0), "b[2][1]"),
    (("system", "gamma", 0), "gamma[1]")], ids=["rhs", "b", "gamma"])
def test_coefficient_undefined_at_a_node_is_one_line(where, label, tmp_path,
                                                       capsys):
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = POLE
    path = write_config(tmp_path, doc)
    for command in ("validate", "solve", "diagnose"):
        rc = main([command, "--config", path,
                   "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"validation: expr-eval: {label} at node "
                              f"(0,0,0): division by zero")
        assert err.count("\n") == 1 and err.count(POLE) == 1
    # solve and diagnose stop before making their --out directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "validate"]


def test_gamma_failing_at_a_panel_node_is_one_line(tmp_path, capsys):
    # finite at every node and every validation sample, but exp overflows
    # at the first panel node of row 1's line from (1, 0, t), which sits
    # at y = tau_0 - 1; the plan's integrating factor reads it there
    tau0 = float(characteristics._fused_rule()[0][0])
    doc = base_config()
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["gamma"][0] = f"exp(800 - 1e8*sin(pi*(y - {tau0!r}))^2)"
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", path]) == 0
    capsys.readouterr()
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == ("solve: gamma[1] at a panel node of "
                                       "x level 4: exp out of range\n")


def test_gamma_whose_line_integral_overflows_is_one_line(tmp_path, capsys):
    # row 3's Gamma spans more than log(max float) over the grid, so
    # e^Gamma or its inverse would overflow; the spec is refused
    doc = json.loads((CONFIGS / "uncoupled.json").read_text(encoding="utf-8"))
    doc["system"]["gamma"][2] = "800*cos(2*pi*y)"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "solve: gamma[3]: its integral along the lines, less its constant "
        "part, spans 1006 over the grid, more than the 709.78 within which "
        "e^Gamma stays finite\n")


def test_constant_gamma_whose_kernel_weight_overflows_is_one_line(tmp_path,
                                                                  capsys):
    # row 3 is backward, so its weight e^{c (xi - x)} reaches e^800 on a
    # line of length 1; the spec is refused by name, with no warnings
    doc = json.loads((CONFIGS / "uncoupled.json").read_text(encoding="utf-8"))
    doc["system"]["gamma"][2] = "800"
    rc = main(["solve", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "solve: gamma[3]: its constant part 800 weighs the line integrals "
        "by up to e^800, more than the e^709.78 within which the weight "
        "stays finite\n")


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_out_naming_a_file_stops_before_any_work(command, tmp_path, capsys,
                                                  monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "sample", no_work)
    monkeypatch.setattr(cli, "smoothing_profile", no_work)
    out = tmp_path / "report.json"
    out.write_text("{}", encoding="utf-8")
    rc = main([command, "--config", str(CONFIGS / "cyclic.json"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"{command}: cannot write {str(out)!r}: File exists\n"
    assert out.read_text(encoding="utf-8") == "{}"


def _not_utf8(tmp_path: Path) -> str:
    path = tmp_path / "latin1.json"
    path.write_bytes('{"rhs": ["\u00e9"]}'.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("argv,first", [
    (["validate", "--config", str(CONFIGS)],
     f"config: cannot read {str(CONFIGS)!r}: Is a directory"),
    (["validate", "--config", "{tmp}/latin1.json"],
     "config: invalid JSON: 'utf-8' codec can't decode byte 0xe9"),
    (["validate", "--config", str(CONFIGS / "cyclic.json"),
      "--out", "{tmp}/missing/r.json"], "validate: cannot write "),
    (["testbed", "--count", "1", "--out", "{tmp}/missing/r.json"],
     "testbed: cannot write "),
], ids=["config-is-a-directory", "config-not-utf8", "validate-out",
        "testbed-out"])
def test_unreadable_input_or_unwritable_output_is_one_line(argv, first,
                                                           tmp_path, capsys):
    _not_utf8(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(first)
    if argv[-1].endswith("r.json"):
        assert err.endswith(f"{argv[-1]!r}: No such file or directory\n")


def test_load_config_reports_an_unreadable_source(tmp_path):
    for source, problem in [
            (str(tmp_path / "absent.json"), "no such file: "),
            (str(tmp_path), "cannot read "),
            (_not_utf8(tmp_path), "invalid JSON: ")]:
        with pytest.raises(ConfigError) as caught:
            load_config(source)
        assert len(caught.value.problems) == 1
        assert caught.value.problems[0].startswith(problem)


@pytest.mark.parametrize("entries", [2, 4])
def test_config_rejects_a_gamma_of_the_wrong_length(entries, tmp_path,
                                                    capsys):
    doc = base_config()
    doc["system"]["gamma"] = ["0.3", "0", "-0.2", "0"][:entries]
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"config: system.gamma: expected 3 entries, got {entries}\n"


def test_a_malformed_n_adds_no_length_lines(tmp_path, capsys):
    # gamma and rhs fit n = 2, so n is the one fault
    doc = base_config()
    doc["system"]["n"] = 2.0
    doc["system"]["gamma"] = doc["system"]["gamma"][:2]
    doc["rhs"] = doc["rhs"][:2]
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err == \
        "config: system.n: expected an integer, got 2.0\n"


@pytest.mark.parametrize("n", [-1, 0])
def test_a_nonpositive_n_is_named_once(n, tmp_path, capsys):
    # gamma and rhs keep their three entries; only n is named
    doc = base_config()
    doc["system"]["n"] = n
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"config: system.n: expected a positive integer, got {n}\n"


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


def test_diagnose_default_keeps_the_frequencies_ny_resolves(tmp_path, capsys):
    # uncoupled.json has ny = 9: omega = 4 would leave 2.25 nodes per
    # wavelength, so the default measures omega = 2 alone; the default
    # powers are 0 to 3
    cfg = str(CONFIGS / "uncoupled.json")
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    assert main(["diagnose", "--config", cfg, "--out", str(default)]) == 0
    assert main(["diagnose", "--config", cfg, "--out", str(explicit),
                 "--frequencies", "2", "--powers", "0,1,2,3"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and first.startswith("rows=12 ")
    for name in ("diagnostics.csv", "diagnostics.json"):
        assert (default / name).read_bytes() == (explicit / name).read_bytes()
    assert main(["diagnose", "--config", cfg, "--out", str(explicit),
                 "--frequencies", "4"]) == 1


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
    ["testbed", "--powers", "a"],
    ["testbed", "--powers", "2.5"],
])
def test_testbed_rejects_bad_requests(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("testbed:")
