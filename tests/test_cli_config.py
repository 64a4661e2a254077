import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polylat.cli import main
from polylat.config import load_config, parse_sections
from polylat.currents import g_grade
from polylat.errors import ConfigError, ConfigNotFound

TAU_I = """
[lattice]
d = 1
J = [[0, -1], [1, 0]]
E = [[0, -1], [1, 0]]

[defaults]
tol = 1e-10
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EUCLID = """
[lattice]
mode = "euclidean"
rank = 2
q = [[1, 0], [0, 1]]
"""


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "polylat.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_parse_sections_grammar():
    sections = parse_sections(TAU_I)
    assert sections["lattice"]["d"] == 1
    assert sections["defaults"]["tol"] == 1e-10


def test_parse_rejects_stray_keys():
    with pytest.raises(ConfigError):
        parse_sections("x = 1")
    with pytest.raises(ConfigError):
        parse_sections("[a]\nbroken line")


def test_load_abelian(tmp_path):
    cfg = load_config(write(tmp_path, "a.cfg", TAU_I))
    assert cfg.lattice_kind == "abelian"
    assert cfg.data.d == 1
    assert cfg.tol() == 1e-10


def test_load_fraction_entries(tmp_path):
    text = """
[lattice]
d = 1
J = [["-2/5", "-29/20"], ["4/5", "2/5"]]
E = [[0, -1], [1, 0]]
"""
    cfg = load_config(write(tmp_path, "f.cfg", text))
    assert cfg.data.J[0][0] == Fraction(-2, 5)


def test_load_period_matrix(tmp_path):
    text = """
[lattice]
d = 1
period_matrix = [[[1, 0], [0, 1]]]
E = [[0, -1], [1, 0]]
"""
    cfg = load_config(write(tmp_path, "p.cfg", text))
    assert cfg.data.J == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def test_load_euclidean(tmp_path):
    cfg = load_config(write(tmp_path, "e.cfg", EUCLID))
    assert cfg.lattice_kind == "euclidean"
    assert cfg.frame().rank == 2


def test_missing_file_raises():
    with pytest.raises(ConfigNotFound):
        load_config("/nonexistent/path.cfg")


def test_cli_missing_config_exit2():
    proc = run_cli("lattice", "info", "/nonexistent/path.cfg")
    assert proc.returncode == 2
    assert "CONFIG_NOT_FOUND" in proc.stderr


def test_cli_lattice_info(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("lattice", "info", path)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["d"] == 1 and rec["kappa"] == 1 and rec["det_e"] == 1
    assert abs(rec["min_nonzero_q"] - 3.141592653589793) < 1e-12
    assert rec["convention_checks"]["positivity"]


def test_cli_zeta_eval_reference_value(tmp_path):
    path = write(tmp_path, "e.cfg", EUCLID)
    proc = run_cli("zeta", "eval", path, "--s", "2,0", "--mode", "accel")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert abs(rec["value"][0]["re"] - 6.02681204) <= 1e-8
    assert rec["regime"] == "accelerated"


def test_cli_theta_eval_jacobi(tmp_path):
    text = """
[lattice]
mode = "euclidean"
rank = 1
q = [["3.141592653589793"]]
"""
    path = write(tmp_path, "j.cfg", text)
    proc = run_cli("theta", "eval", path, "--t", "1.0")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert abs(rec["value"][0]["re"] - 1.0864348112) <= 1e-9


def test_cli_theta_check_transform(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("theta", "check-transform", path, "--t", "0.7", "--u", "0.3,0.4")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["status"] == "pass"
    assert rec["relative_discrepancy"] <= 1e-10


def test_cli_zeta_check(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("zeta", "check", path, "--s", "3.5,0", "--u", "0.25,0.375")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["status"] == "pass"
    assert rec["relative_spread"] <= 1e-9
    assert rec["direct_gap"] <= 1e-8


@pytest.mark.parametrize("u", ["0.5,0", "0.25,0.375"])
@pytest.mark.parametrize("side", ["dual", "primal"])
@pytest.mark.parametrize("cfg", ["tau_i.cfg", "kappa4.cfg"])
def test_cli_zeta_check_bundled_configs(capsys, cfg, side, u):
    # kappa4's dual lattice is (Z/2)^2, so u = (1/2, 0) is on the zero section of its primal frame
    assert main(["zeta", "check", str(CONFIGS / cfg), "--side", side, "--s", "3,0", "--u", u]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_cli_zeta_scan_csv(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("zeta", "scan", path, "--s", "2,0", "--grid-n", "2", "--fd-step", "0.008")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "u1,u2,component,value_re,value_im,grad_norm"
    assert len(lines) == 5


def test_cli_current_scan_csv(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("current", "scan", path, "--grade", "3", "--grid-n", "2", "--tol", "1e-8")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "u1,u2,component,value_re,value_im"
    data = load_config(path).data
    expected = []
    for u in [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]:
        cv = g_grade(data, u, 3, tol=1e-8)
        for (word, ext), v in sorted(cv.components.items()):
            expected.append(f"{u[0]:.12g},{u[1]:.12g},{list(word)}|{list(ext)},{v.real:.15g},{v.imag:.15g}")
    assert len(lines) == 1 + len(expected) == 1 + 4 * 2
    assert lines[1:] == expected


def test_cli_current_and_eisenstein(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("current", "eval", path, "--u", "0.31,0.47", "--grade-max", "3", "--tol", "1e-8")
    assert proc.returncode == 0
    recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [r["inputs"]["grade"] for r in recs] == [2, 3]
    proc = run_cli("eisenstein", "eval", path, "--torsion", "1/3,0", "--l", "2")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["inputs"]["order"] == 3
    vals = [abs(complex(v["re"], v["im"])) for v in rec["components"].values()]
    assert max(vals) > 1e-4


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "eval", "CFG", "--t", "1.0", "--u", "abc"],
        ["zeta", "eval", "CFG", "--s", "3,0", "--u", "0.5"],
        ["zeta", "eval", "CFG", "--s", "abc"],
        ["theta", "eval", "CFG", "--t", "1.0", "--p", "{bad"],
        ["theta", "eval", "CFG", "--t", "1.0", "--p", '{"a": [1]}'],
        ["eisenstein", "eval", "CFG", "--torsion", "1/0,0", "--l", "2"],
        ["eisenstein", "eval", "CFG", "--torsion", "1/3", "--l", "2"],
        ["theta", "eval", "CFG", "--t", "-1"],
        ["zeta", "eval", "CFG", "--s", "3,0", "--tol", "0"],
        ["zeta", "eval", "CFG", "--s", "3,0", "--mode", "accel", "--A", "0"],
        ["theta", "check-transform", "CFG", "--t", "0.7", "--threshold", "0"],
        ["algebra", "verify", "--m", "0"],
        ["algebra", "verify", "--n", "-1"],
        ["algebra", "verify", "--hdim", "-1"],
        ["algebra", "verify", "--nmax", "-1"],
        ["zeta", "scan", "CFG", "--s", "2,0", "--grid-n", "-2"],
        ["zeta", "scan", "CFG", "--s", "2,0", "--grid-n", "0"],
        ["current", "scan", "CFG", "--grid-n", "0"],
        ["bm", "verify", "--r", "2"],
        ["bm", "verify", "--r", "-0.5"],
        ["theta", "eval", "CFG", "--t", "inf"],
        ["zeta", "eval", "CFG", "--s", "3,0", "--mode", "accel", "--A", "inf"],
        ["zeta", "eval", "CFG", "--s", "3,0", "--tol", "inf"],
        ["zeta", "scan", "CFG", "--s", "2,0", "--fd-step", "inf"],
        ["theta", "eval", "CFG", "--t", "1", "--u", "1e400,0"],
        ["current", "eval", "CFG", "--u", "1e400,0"],
        ["eisenstein", "eval", "CFG", "--torsion", "1/3,1e400", "--l", "2"],
        ["zeta", "eval", "CFG", "--s", "nan,0", "--mode", "accel"],
        ["zeta", "eval", "CFG", "--s", "inf,0", "--mode", "direct"],
        ["zeta", "check", "CFG", "--s", "3,nan"],
        ["zeta", "scan", "CFG", "--s", "nan,0"],
        pytest.param(["theta", "eval", "CFG", "--t", "1.0", "--p", '{"0,0": [1' + "0" * 400 + "]}"], id="--p 10^400"),
        ["zeta", "eval", "CFG", "--s", "3,0,5", "--mode", "accel"],
        ["zeta", "eval", "CFG", "--s", "3,0,5", "--mode", "direct"],
        ["zeta", "scan", "CFG", "--s", "2,0,1"],
    ],
    ids=lambda argv: " ".join(a for a in argv[2:] if a != "CFG"),
)
def test_cli_malformed_input_exit2(tmp_path, capsys, argv):
    path = write(tmp_path, "a.cfg", TAU_I)
    assert main([path if a == "CFG" else a for a in argv]) == 2
    rec = json.loads(capsys.readouterr().err)
    assert rec["error"] == "CONFIG_ERROR"


def test_cli_threads_is_a_usage_error():
    proc = run_cli("--threads", "1", "lattice", "info", str(CONFIGS / "tau_i.cfg"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: polylat") and "polylat: error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "eval", "--t", "0.7"],
        ["theta", "check-transform", "--t", "0.7"],
        ["zeta", "eval", "--s", "3,0"],
        ["zeta", "check", "--s", "3,0"],
        ["zeta", "scan", "--s", "3,0", "--grid-n", "2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_frame_commands_take_shared_options(argv):
    proc = run_cli(*argv[:2], str(CONFIGS / "tau_i.cfg"), *argv[2:], "--side", "primal", "--tol", "1e-8", "--p", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("line", ["tol = 0", "tol = -1e-10", "split_a = 0", "A = -2", 'tol = "abc"', "split_a = [1]"])
def test_config_bad_defaults_exit2(tmp_path, capsys, line):
    path = write(tmp_path, "a.cfg", TAU_I.replace("tol = 1e-10", line))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["zeta", "eval", path, "--s", "3,0", "--mode", "accel"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_ERROR"


@pytest.mark.parametrize(
    "old, new, argv",
    [
        pytest.param('J = [[0, -1]', 'J = [["abc", -1]', ["lattice", "info"], id="J entry abc"),
        pytest.param('J = [[0, -1]', 'J = [["1/0", -1]', ["lattice", "info"], id="J entry 1/0"),
        pytest.param("d = 1", 'd = "x"', ["lattice", "info"], id="d x"),
        pytest.param("E = [[0, -1], [1, 0]]", "E = [[0, -1], [1]]", ["lattice", "info"], id="ragged E"),
        pytest.param("E = [[0, -1], [1, 0]]", "E = [[0, -1.5], [1.5, 0]]", ["lattice", "info"], id="E entry 1.5"),
        pytest.param("tol = 1e-10", 'grade_max = "x"', ["current", "eval", "--u", "0.31,0.47"], id="grade_max x"),
        pytest.param(
            "J = [[0, -1], [1, 0]]", 'period_matrix = [[[1, "a"], [0, 1]]]', ["lattice", "info"], id="period_matrix entry a"
        ),
    ],
)
def test_config_bad_lattice_exit2(tmp_path, capsys, old, new, argv):
    assert old in TAU_I
    path = write(tmp_path, "a.cfg", TAU_I.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(argv[:2] + [path] + argv[2:]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_ERROR"


@pytest.mark.parametrize("entry", ['"abc"', "1" + "0" * 400], ids=["abc", "10^400"])
def test_config_bad_euclidean_q_exit2(tmp_path, capsys, entry):
    path = write(tmp_path, "e.cfg", EUCLID.replace("q = [[1, 0]", f"q = [[{entry}, 0]"))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["lattice", "info", path]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_ERROR"


def test_cli_import_leaves_scipy_out():
    # a cold CLI command must not pay for importing scipy
    code = "import polylat.cli, sys; assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _loaded_after(*statements):
    """(stdout before the last line, set of modules) of a fresh interpreter
    that runs the statements."""
    code = "\n".join(("import sys",) + statements + ("print(' '.join(sys.modules))",))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    return out, set(modules.split())


ENGINES = ("theta", "zeta", "currents", "verify", "symalg", "torus", "bm")


def test_cli_import_loads_no_engine():
    _, modules = _loaded_after("import polylat.cli")
    assert "numpy" not in modules
    assert not {f"polylat.{m}" for m in ENGINES} & modules


def test_cli_algebra_verify_without_numpy():
    argv = ["algebra", "verify", "--m", "4", "--n", "4", "--hdim", "2", "--nmax", "5"]  # the README command
    out, modules = _loaded_after("import polylat.cli", f"print(polylat.cli.main({argv!r}))")
    assert out[-1] == "0"
    assert all(json.loads(line)["status"] == "pass" for line in out[:-1])
    assert "numpy" not in modules


def test_cli_lattice_info_loads_no_zeta(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    out, modules = _loaded_after("import polylat.cli", f"print(polylat.cli.main(['lattice', 'info', {path!r}]))")
    assert out[-1] == "0"
    assert not {"polylat.currents", "polylat.zeta"} & modules


def test_package_reexports_resolve_lazily():
    import polylat
    import polylat.lattice

    assert polylat.PolarizedAbelianData is polylat.lattice.PolarizedAbelianData
    with pytest.raises(AttributeError):
        polylat.no_such_name


def test_cli_closed_stdout_exit_code(tmp_path):
    # the reader has gone before anything is flushed, as with `| head -1`
    path = write(tmp_path, "a.cfg", TAU_I)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "polylat.cli", "current", "scan", path, "--grade", "3", "--grid-n", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("s", ["200,0", "200,1", "-200,0"])
def test_cli_gamma_overflow_exit1(tmp_path, s):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("zeta", "eval", path, f"--s={s}", "--mode", "accel")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "GAMMA_OVERFLOW"


@pytest.mark.parametrize("A", ["1e200", "1e-200"])
def test_cli_extreme_split_point_exceeds_budget(tmp_path, capsys, A):
    # the tail factors A^(Re s - 1) and A^(1 - Re rho) leave double range;
    # that is an infinite tail, so the radius solver reports the budget
    path = write(tmp_path, "a.cfg", TAU_I)
    assert main(["zeta", "eval", path, "--s", "2,0", "--mode", "accel", "--A", A, "--u", "0.3,0.1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "BUDGET_EXCEEDED"


def test_cli_negative_real_s(tmp_path, capsys):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("zeta", "eval", path, "--s=-1,0", "--mode", "accel")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["s"] == {"im": 0.0, "re": -1.0}
    # without the = form argparse takes "-1,0" for an option (README CLI notes)
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "eval", path, "--s", "-1,0", "--mode", "accel"])
    assert exc.value.code == 2


def test_cli_eisenstein_zero_section_exit1(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("eisenstein", "eval", path, "--torsion", "0,0", "--l", "2")
    assert proc.returncode == 1
    assert "ZERO_SECTION_SINGULARITY" in proc.stderr


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_cli_eisenstein_nmax_below_grade_exit1(tmp_path, capsys, nmax):
    # a given --nmax is used as given, 0 included: grade l + 3 = 5 lies beyond it
    path = write(tmp_path, "a.cfg", TAU_I)
    assert main(["eisenstein", "eval", path, "--torsion", "1/3,0", "--l", "2", "--nmax", nmax]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "OUT_OF_RANGE"


def test_cli_algebra_verify():
    proc = run_cli("algebra", "verify", "--m", "2", "--n", "3", "--hdim", "2", "--nmax", "3")
    assert proc.returncode == 0
    recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert all(r["status"] == "pass" for r in recs)


def test_cli_bm_verify():
    proc = run_cli("bm", "verify", "--d", "1", "--r", "0.5")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert abs(rec["integral"] - 1.0) <= 1e-10
    assert "convention" in rec


def test_cli_no_raw_tracebacks_on_engine_error(tmp_path):
    path = write(tmp_path, "a.cfg", TAU_I)
    proc = run_cli("zeta", "eval", path, "--s", "1,0", "--u", "0,0", "--mode", "accel")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "ZERO_SECTION_SINGULARITY" in proc.stderr
    # a grade below 2 fails before the CSV header is written
    proc = run_cli("current", "scan", path, "--grade", "1", "--grid-n", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "OUT_OF_RANGE"
