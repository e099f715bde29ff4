"""Command-line interface behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("sign, dot", [("+", False), ("-", True)], ids=["trefoil-text", "mirror-dot"])
def test_cfd_lines_stream_a_run(sign, dot):
    """The cfd text and DOT are written a line at a time, a run's edges read
    in order without a list of them: the tracemalloc peak while writing the
    lines of the side at 10^5 is within 256 KiB of the peak at 10^3."""
    import tracemalloc
    from collections import deque

    from floersplice.cli import _cfd_lines
    from floersplice.splice import FramedSide
    from floersplice.typed import dot_lines

    c = staircase([1, 1], sign)

    def peak(n):
        d = FramedSide(c, n if sign == "+" else -n).d
        d.bounded, d.gradings
        tracemalloc.start()
        try:
            deque((dot_lines if dot else _cfd_lines)(d), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**5) <= peak(10**3) + 256 * 1024


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


def test_re_presented_complexes_accepted(tmp_path, capsys):
    """A trefoil and a T(2,5) re-presented so that a vertical reduction class
    spans two Alexander levels read as their originals: validate finds the
    same invariants, predict and splice give the original's answers."""
    path = tmp_path / "retrefoil.cfk"
    path.write_text(serialize_complex(filtered_change(staircase([1, 1], "+"), [(2, 1, 0)])))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and out.splitlines()[-1] == "tau=1 genus=1 lspace_form=True"
    assert run(capsys, "predict", str(path), "3", TREFOIL, "2") == (0, "True\n", "")
    re_t25 = str(DATA / "t25_represented.cfk")
    code, out, _ = run(capsys, "validate", re_t25)
    assert code == 0 and out.splitlines()[-1] == "tau=2 genus=2 lspace_form=True"
    for n1 in (3, 4, 5):
        computed = []
        for f in (str(DATA / "t25.cfk"), re_t25):
            code, out, _ = run(capsys, "splice", f, str(n1), TREFOIL, "2", "--json")
            assert code == 0
            computed.append(json.loads(out)["computed"])
        assert computed[0] == computed[1], n1


def test_simplify_refusal_names_the_complex(tmp_path, capsys):
    """A complex that passes validate's checks but whose horizontal reduction
    leaves three unpaired generators is refused under its file's stem."""
    path = tmp_path / "h.cfk"
    path.write_text("gen a 0\ngen b 1\ngen c 1\nd b = a\n")
    code, _, err = run(capsys, "splice", str(path), "1", TREFOIL, "3")
    assert code == 1
    assert err == "error: h: horizontal reduction left 3 unpaired generators (expected 1)\n"


@pytest.mark.parametrize("argv, message", [
    (["splice", TREFOIL, "x", TREFOIL, "2"], "argument n1: invalid int value: 'x'"),
    (["cfd", TREFOIL], "the following arguments are required: --framing"),
    (["survey", TREFOIL, TREFOIL, "--range1", "-3..2", "--range2", "0..1"],
     "argument --range1: expected one argument"),
])
def test_usage_error_exit_code(capsys, argv, message):
    """A malformed command line is an input failure: exit 1 with argparse's
    message on stderr, and no SystemExit for an in-process caller."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: floersplice ") and err.endswith(f": error: {message}\n")


def test_help_exit_code(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: floersplice")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.cfk")
    assert code == 1
    assert "cannot read" in err


def test_bad_range(capsys):
    code, _, err = run(capsys, "survey", TREFOIL, TREFOIL,
                       "--range1", "3..1", "--range2", "0..1")
    assert code == 1
    assert "survey range (3, 1) is empty" in err
    # An end that is missing or not an integer is refused naming the range.
    for bad in ("3..", "..3", "3", "a..3", "1..2..3"):
        code, _, err = run(capsys, "survey", TREFOIL, TREFOIL, f"--range1={bad}", "--range2=0..1")
        assert code == 1
        assert f"range must look like a..b with integer ends, got {bad!r}" in err, bad


@pytest.mark.parametrize("argv", [
    ("cfa", TREFOIL, "--framing", "200"),
    ("cfd", TREFOIL, "--framing", "100000"),
    ("survey", TREFOIL, MIRROR, "--range1=-30..30", "--range2=-30..30"),
])
def test_closed_output_pipe_ends_quietly(argv):
    """A reader that stops after one line, as `| head -1` does, ends the
    command with exit code 1 and nothing on stderr: no traceback, and no
    "Exception ignored" line from the interpreter's final flush."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-m", "floersplice", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and first
    assert b"Traceback" not in err and err == b""
