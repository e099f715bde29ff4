"""Command-line interface.

Exit codes: 0 success, 1 validation, input or command-line failure, or
output closed early (the reader of a pipe stopped reading), 2 internal
invariant violation (a structural guarantee of the computation failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .cfk import FormatError, KnotComplex, parse_complex, simplify, validate_complex
from .splice import (
    FramedSide,
    InvariantViolation,
    predict_lspace,
    prepare,
    splice_report,
    survey,
    survey_summary,
)
from .typea import derive_cfa, ops_lines
from .typed import dot_lines, sorted_edges


def _load(path: str) -> KnotComplex:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    return parse_complex(text, name=p.stem)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like a..b with integer ends, got {text!r}") from None


def _cmd_validate(args) -> int:
    c = _load(args.file)
    report = validate_complex(c)
    for name, ok in report.checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    for w in report.warnings:
        print(f"warning: {w}")
    if not report.ok:
        return 1
    s = simplify(c)
    print(f"tau={s.tau} genus={s.genus} lspace_form={s.lspace_form}")
    return 0


def _cfd_lines(d):
    """The cfd text of a type D module, a line at a time: its generators, its
    edges, sorted, and whether it is bounded."""
    for g, gr in zip(d.generators, d.gradings):
        yield f"gen {g.id} iota{g.idempotent} role={g.role} gr={gr}\n"
    names = d.names
    for src, label, dst in sorted_edges(d):
        yield f"{names[src]} --D{label or 'empty'}--> {names[dst]}\n"
    yield f"bounded={d.bounded}\n"


def _cmd_cfd(args) -> int:
    d = FramedSide(_load(args.file), args.framing).d
    sys.stdout.writelines(dot_lines(d) if args.format == "dot" else _cfd_lines(d))
    return 0


def _cmd_cfa(args) -> int:
    sys.stdout.writelines(ops_lines(derive_cfa(FramedSide(_load(args.file), args.framing).d)))
    return 0


def _cmd_splice(args) -> int:
    c1, c2 = _load(args.file1), _load(args.file2)
    report = splice_report(c1, args.n1, c2, args.n2)
    if args.json:
        print(report.to_json())
    else:
        r = report.computed
        print(f"{c1.name}[{args.n1}] spliced with {c2.name}[{args.n2}]")
        print(f"prediction: {report.prediction}")
        print(f"graded ranks: ({r.rank0}, {r.rank1})  |euler| = {r.euler_abs}")
        print(f"L-space: {report.verdict}  agree: {report.agree}")
        if report.durable_fast_path:
            print("durable pair shortcut: not an L-space")
    return 0


def _cmd_survey(args) -> int:
    c1, c2 = _load(args.file1), _load(args.file2)
    reports = survey(c1, _parse_range(args.range1), c2, _parse_range(args.range2))
    if args.json:
        payload = {
            "schema": 1,
            "summary": survey_summary(reports),
            "rows": [r.to_dict() for r in reports],
        }
        # Streamed (no whole string), one write per batch of chunks: stdout may be unbuffered.
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := "".join(islice(chunks, 4096)):
            sys.stdout.write(batch)
        print()
    else:
        for r in reports:
            ranks = r.computed
            print(
                f"n1={r.n1:+d} n2={r.n2:+d} predict={str(r.prediction):5s} "
                f"verdict={str(r.verdict):5s} ranks=({ranks.rank0},{ranks.rank1}) "
                f"agree={r.agree}"
            )
        print(survey_summary(reports))
    return 0


def _cmd_durable(args) -> int:
    side = FramedSide(_load(args.file), args.framing)
    pairs, d = side.durable_pairs, side.d
    if not pairs:
        print("no durable or weakly durable pairs found")
        return 0
    for x, y, strength in pairs:
        print(f"{strength}: x = {d.format_vector(x)}, D123(x) = {d.format_vector(y)}")
    return 0


def _cmd_predict(args) -> int:
    s1, s2 = (prepare(_load(f)) for f in (args.file1, args.file2))
    result = predict_lspace(s1.tau, s1.lspace_form, args.n1, s2.tau, s2.lspace_form, args.n2)
    print(result)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="floersplice",
        description="Bordered invariants of framed knot complements and splice L-space detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cfd", help="type D module of a framed complement")
    p.add_argument("file")
    p.add_argument("--framing", type=int, required=True)
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(func=_cmd_cfd)

    p = sub.add_parser("cfa", help="type A module of a framed complement")
    p.add_argument("file")
    p.add_argument("--framing", type=int, required=True)
    p.set_defaults(func=_cmd_cfa)

    p = sub.add_parser("splice", help="full splice computation")
    p.add_argument("file1")
    p.add_argument("n1", type=int)
    p.add_argument("file2")
    p.add_argument("n2", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("survey", help="sweep framing ranges")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--range1", required=True)
    p.add_argument("--range2", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("durable", help="durable generator pairs of a framed complement")
    p.add_argument("file")
    p.add_argument("--framing", type=int, required=True)
    p.set_defaults(func=_cmd_durable)

    p = sub.add_parser("predict", help="closed-form prediction only")
    p.add_argument("file1")
    p.add_argument("n1", type=int)
    p.add_argument("file2")
    p.add_argument("n2", type=int)
    p.set_defaults(func=_cmd_predict)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a malformed command line, 0 after --help
        return 1 if e.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # Nothing more reaches the reader; writes to devnull keep the
        # interpreter's final flush from reporting the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvariantViolation as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 2
    except (FormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
