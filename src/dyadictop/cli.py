"""Command line front end.

Subcommands take a space or subbase description in JSON and emit text or
JSON. Exit status: 0 when every executed check passed, 2 when a check
produced counterexamples, 1 for bad input or a failed construction.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

from .checks import check_dyadic, check_proper, degree_report
from .coding import decode_word, encode_point
from .construct import ConstructionError, build_proper_subbase
from .lemmas import LemmaError, SubspaceError
from .rational import RationalFormatError, parse_rational
from .sets import SetError
from .space import Space, SpaceError, cb_kernel
from .subbase import DyadicSubbase, SubbaseError
from .words import TernaryWord, WordError

MAX_LEVELS = 15
MAX_DEPTH = 12

_ERRORS = (SpaceError, SetError, SubbaseError, WordError, RationalFormatError,
           LemmaError, SubspaceError, ConstructionError, OSError)


def _load_input(path: str):
    """(kind, object) for a JSON file holding a space or a subbase."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpaceError(f"bad JSON in {path}: {exc}") from None
    if isinstance(data, dict) and "pairs" in data:
        return "subbase", DyadicSubbase.from_dict(data)
    if isinstance(data, dict) and "primitives" in data:
        return "space", Space.from_dict(data)
    raise SpaceError(f'{path}: expected a "primitives" or "pairs" JSON object')


def _emit(args, text, payload) -> None:
    """Write the report as text or JSON to stdout, or to ``--out FILE``.

    ``text`` and ``payload`` are callables; only the chosen format's runs.

    The file is created when missing and otherwise rewritten in place,
    then cut to the new length; a target that is not a regular file
    (``/dev/null``, a pipe) is written without the cut.  Rewriting in
    place keeps the inode, so a symlink still points at the rewritten
    target and the file's mode, owner and hard links stay.
    """
    body = _json_text(payload()) if args.format == "json" else text()
    body = body if body.endswith("\n") else body + "\n"
    if not args.out:
        sys.stdout.write(body)
        return
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        # a buffered write loops until every byte is out
        fh.write(body.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, joined once.

    With an indent the standard library encodes in pure Python; this
    writer walks the value once and quotes each string with the C
    ``encode_basestring_ascii`` that ``json`` itself uses.  As in
    ``json``, tuples are written as lists and any other value raises
    ``TypeError``.  Unlike ``json``, which writes an int, float, bool or
    None key as its JSON text, the quoting refuses any key but a string
    with ``TypeError``; and a value that contains itself recurses until
    Python's recursion limit, where ``json`` would report the cycle.
    """
    parts: list[str] = []
    _json_value(value, "\n", parts)
    return "".join(parts)


def _json_value(o, nl: str, parts: list[str]) -> None:
    """Append the JSON of o to parts; nl starts each line at o's depth."""
    if isinstance(o, str):
        parts.append(_quote(o))
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            parts += (sep, _quote(k), ": ")
            if isinstance(v, str):
                parts.append(_quote(v))
            else:
                _json_value(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            parts.append(sep)
            if isinstance(v, str):
                parts.append(_quote(v))
            else:
                _json_value(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        parts.append(_json_float(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _check_depth(depth: int) -> None:
    if not (0 <= depth <= MAX_DEPTH):
        raise ConstructionError("depth-out-of-range", -1, {"depth": depth, "max": MAX_DEPTH})


def _build_from(args, space: Space):
    if not (0 <= args.levels <= MAX_LEVELS):
        raise ConstructionError("levels-out-of-range", -1,
                                {"levels": args.levels, "max": MAX_LEVELS})
    _check_depth(args.depth)
    epsilon = parse_rational(args.epsilon) if args.epsilon else None
    if epsilon is not None and epsilon <= 0:
        raise ConstructionError("epsilon-out-of-range", -1, {"epsilon": args.epsilon})
    return build_proper_subbase(space, args.levels, degree_mode=args.degree_mode,
                                depth=args.depth, epsilon=epsilon,
                                probe_seed=args.seed)


def _subbase_from(args):
    """A subbase from either input shape, building when given a space."""
    kind, obj = _load_input(args.path)
    if kind == "subbase":
        return obj, None
    result = _build_from(args, obj)
    return result.subbase, result


def _report_lines(reports) -> str:
    return "\n".join(r.render() for r in reports)


def _build_summary(space: Space, kern, result, settings: bool = False) -> str:
    """Text report of a build; ``settings`` adds its degree mode and probe seed."""
    lines = [f"space: {space.render()}", kern.render(),
             f"pairs: {len(result.subbase)} "
             f"({len(result.kernel_subbase)} window + {result.clopen_count} clopen)"]
    if settings:
        lines.append(f"degree mode: {result.degree_mode}")
    lines.append(f"epsilon: {result.epsilon}")
    if settings:
        lines.append(f"probe seed: {result.seed}")
    lines += [_report_lines(result.reports), "PASS" if result.passed else "FAIL"]
    return "\n".join(lines)


def _cmd_kernel(args) -> int:
    kind, obj = _load_input(args.path)
    if kind != "space":
        raise SpaceError("the kernel command needs a space description")
    report = cb_kernel(obj)
    _emit(args, report.render, report.to_dict)
    return 0


def _cmd_build(args) -> int:
    kind, obj = _load_input(args.path)
    if kind != "space":
        raise SpaceError("the build command needs a space description")
    result = _build_from(args, obj)
    _emit(args, lambda: _build_summary(obj, cb_kernel(obj), result),
          lambda: result.to_dict(include_traces=args.emit_trace))
    return 0 if result.passed else 2


def _cmd_check(args) -> int:
    kind, obj = _load_input(args.path)
    if kind == "space":
        result = _build_from(args, obj)
        reports = result.reports
    else:
        _check_depth(args.depth)
        reports = (check_dyadic(obj), check_proper(obj, args.depth),
                   degree_report(obj, len(obj.pairs), ()))
    ok = all(r.passed for r in reports)
    _emit(args, lambda: _report_lines(reports) + ("\nPASS" if ok else "\nFAIL"),
          lambda: {"checks": [r.to_dict() for r in reports], "passed": ok})
    return 0 if ok else 2


def _cmd_encode(args) -> int:
    sb, _ = _subbase_from(args)
    coded = []
    for chunk in args.points.split(","):
        x = parse_rational(chunk.strip())
        coded.append(encode_point(sb, x))
    _emit(args, lambda: "\n".join(f"{c.point} {c.render()}" for c in coded),
          lambda: {"width": len(sb),
                   "points": [{"point": str(c.point),
                               "word": c.render(ascii_bottom=True)} for c in coded]})
    return 0


def _cmd_decode(args) -> int:
    sb, _ = _subbase_from(args)
    word = TernaryWord.from_string(args.word)
    cell = decode_word(sb, word)
    _emit(args, cell.render,
          lambda: {"word": word.to_string(len(sb), ascii_bottom=True),
                   "cell": cell.to_dict(), "empty": cell.is_empty})
    return 0


def _cmd_report(args) -> int:
    kind, obj = _load_input(args.path)
    if kind != "space":
        raise SpaceError("the report command needs a space description")
    kern = cb_kernel(obj)
    result = _build_from(args, obj)
    _emit(args, lambda: _build_summary(obj, kern, result, settings=True),
          lambda: {"space": obj.to_dict(), "kernel_report": kern.to_dict(),
                   "build": result.to_dict(include_traces=args.emit_trace)})
    return 0 if result.passed else 2


def _add_build_flags(p):
    p.add_argument("--levels", type=int, default=4,
                   help="window pairs to build on the kernel (default 4)")
    p.add_argument("--depth", type=int, default=6,
                   help="word depth for the properness check (default 6)")
    p.add_argument("--degree-mode", choices=("unconstrained", "match_dim"),
                   default="unconstrained")
    p.add_argument("--epsilon", default=None,
                   help="resolution radius as p/q (default: achieved resolution)")
    p.add_argument("--seed", type=int, default=0, help="probe seed (default 0)")
    p.add_argument("--emit-trace", action="store_true",
                   help="include per-level construction traces in JSON output")


def _add_io_flags(p):
    p.add_argument("path", help="space or subbase JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for later calls."""
    parser = argparse.ArgumentParser(
        prog="dyadictop",
        description="exact dyadic subbases of symbolic rational spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="perfect kernel and scattered inventory")
    _add_io_flags(p)

    p = sub.add_parser("build", help="construct a proper dyadic subbase")
    _add_io_flags(p)
    _add_build_flags(p)

    p = sub.add_parser("check", help="verify subbase properties to a depth")
    _add_io_flags(p)
    _add_build_flags(p)

    p = sub.add_parser("encode", help="code points as ternary words")
    _add_io_flags(p)
    _add_build_flags(p)
    p.add_argument("--points", required=True,
                   help="comma separated rationals, e.g. 1/3,2/5")

    p = sub.add_parser("decode", help="cell of a ternary word")
    _add_io_flags(p)
    _add_build_flags(p)
    p.add_argument("--word", required=True,
                   help="word over 0/1/_ (or the bottom sign), e.g. 01_")

    p = sub.add_parser("report", help="kernel analysis plus the full check bundle")
    _add_io_flags(p)
    _add_build_flags(p)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"kernel": _cmd_kernel, "build": _cmd_build, "check": _cmd_check,
                "encode": _cmd_encode, "decode": _cmd_decode,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "details", None):
            # the witness of a failed construction: probe point, word, set
            print("details: " + json.dumps(exc.details, separators=(",", ":"), default=str),
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
