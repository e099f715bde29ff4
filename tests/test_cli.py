"""Command-line interface behavior and exit codes."""

import json
from pathlib import Path

from floersplice.cfk import serialize_complex, staircase
from floersplice.cli import main
from test_cfk import filtered_change

DATA = Path(__file__).parent / "data"
TREFOIL = str(DATA / "trefoil.cfk")
MIRROR = str(DATA / "mirror_trefoil.cfk")
FIG8 = str(DATA / "figure_eight.cfk")
UNKNOT = str(DATA / "unknot.cfk")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", TREFOIL)
    assert code == 0
    assert "d_squared_zero: PASS" in out
    assert "tau=1" in out


def test_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("gen x 0\ngen y 0\nd x = y\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "reduced: FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("jen x 0\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 1" in err


def test_cfd_text(capsys):
    code, out, _ = run(capsys, "cfd", TREFOIL, "--framing", "2")
    assert code == 0
    assert "x0 --D12--> x2" in out
    assert "bounded=True" in out


def test_cfd_dot(capsys):
    code, out, _ = run(capsys, "cfd", TREFOIL, "--framing", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_cfa_text(capsys):
    code, out, _ = run(capsys, "cfa", TREFOIL, "--framing", "2")
    assert code == 0
    assert "m2(x1, rho3) = kap1_1" in out


def test_side_commands_refuse_bad_input(tmp_path, capsys):
    """cfd, cfa, durable and predict refuse an unreduced complex, and cfa
    refuses the 0-framed unknot, whose walk only a bounded partner would end."""
    bad = tmp_path / "bad.cfk"
    bad.write_text("gen x 0\ngen y 0\nd x = y\n")
    for command in (
        ("cfd", str(bad), "--framing", "1"),
        ("cfa", str(bad), "--framing", "1"),
        ("durable", str(bad), "--framing", "1"),
        ("predict", TREFOIL, "3", str(bad), "1"),
    ):
        code, out, err = run(capsys, *command)
        assert code == 1, command
        assert "reduced" in err and not out
    code, out, err = run(capsys, "cfa", UNKNOT, "--framing", "0")
    assert code == 1
    assert "only a bounded partner ends its walk" in err and not out


def test_splice_json(capsys):
    code, out, _ = run(capsys, "splice", TREFOIL, "3", TREFOIL, "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["euler_abs"] == 5


def test_splice_text(capsys):
    code, out, _ = run(capsys, "splice", TREFOIL, "0", TREFOIL, "0")
    assert code == 0
    assert "L-space: False" in out
    assert "durable pair shortcut" in out


def test_survey(capsys):
    code, out, _ = run(capsys, "survey", TREFOIL, MIRROR,
                       "--range1", "1..3", "--range2=-3..-1")
    assert code == 0
    assert out.count("n1=") == 9


def test_survey_json(capsys):
    code, out, _ = run(capsys, "survey", TREFOIL, TREFOIL,
                       "--range1", "2..3", "--range2", "2..3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["rows"] == 4
    assert len(payload["rows"]) == 4


def test_durable(capsys):
    code, out, _ = run(capsys, "durable", FIG8, "--framing", "1")
    assert code == 0
    assert "durable: x = x4, D123(x) = kap2_1" in out


def test_durable_weak_only(capsys):
    code, out, _ = run(capsys, "durable", TREFOIL, "--framing", "5")
    assert code == 0
    assert "weak:" in out
    assert "durable: " not in out.replace("weakly durable", "")


def test_predict(capsys):
    code, out, _ = run(capsys, "predict", TREFOIL, "2", TREFOIL, "3")
    assert code == 0
    assert out.strip() == "True"
    code, out, _ = run(capsys, "predict", TREFOIL, "1", UNKNOT, "0")
    assert out.strip() == "out-of-scope"


def test_incompatible_bases_refused(tmp_path, capsys):
    """A trefoil re-presented so its reductions give filtration-incompatible
    bases would read lspace_form=False and predict False at (3, 2), where the
    true answer is True; both commands refuse it instead."""
    path = tmp_path / "retrefoil.cfk"
    path.write_text(serialize_complex(filtered_change(staircase([1, 1], "+"), [(2, 1, 0)])))
    for argv in (("validate", str(path)), ("predict", str(path), "3", TREFOIL, "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "not filtration compatible" in err
        assert "lspace_form" not in out and "False" not in out


def test_simplify_refusal_names_the_complex(tmp_path, capsys):
    """A complex that passes validate's checks but whose horizontal reduction
    leaves three unpaired generators is refused under its file's stem."""
    path = tmp_path / "h.cfk"
    path.write_text("gen a 0\ngen b 1\ngen c 1\nd b = a\n")
    code, _, err = run(capsys, "splice", str(path), "1", TREFOIL, "3")
    assert code == 1
    assert err == "error: h: horizontal reduction left 3 unpaired generators (expected 1)\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.cfk")
    assert code == 1
    assert "cannot read" in err


def test_bad_range(capsys):
    code, _, err = run(capsys, "survey", TREFOIL, TREFOIL,
                       "--range1", "3..1", "--range2", "0..1")
    assert code == 1
    assert "empty range '3..1'" in err
    # An end that is missing or not an integer is refused naming the range.
    for bad in ("3..", "..3", "3", "a..3", "1..2..3"):
        code, _, err = run(capsys, "survey", TREFOIL, TREFOIL, f"--range1={bad}", "--range2=0..1")
        assert code == 1
        assert f"range must look like a..b with integer ends, got {bad!r}" in err, bad
