"""Command line front end.

Subcommands take a space or subbase description in JSON and emit text or
JSON. Exit status: 0 when every executed check passed, 2 when a check
produced counterexamples, 1 for bad input or a failed construction.
"""
from __future__ import annotations

import argparse
import json
import sys

from .checks import check_dyadic, check_proper, degree_report
from .coding import decode_word, encode_point
from .construct import ConstructionError, build_proper_subbase
from .lemmas import LemmaError, SubspaceError
from .rational import RationalFormatError, parse_rational
from .sets import SetError
from .space import Space, SpaceError, cb_kernel
from .subbase import DyadicSubbase, SubbaseError
from .words import TernaryWord, WordError

MAX_LEVELS = 12
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


def _emit(args, text: str, payload) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _build_from(args, space: Space):
    if not (0 <= args.levels <= MAX_LEVELS):
        raise ConstructionError("levels-out-of-range", -1,
                                {"levels": args.levels, "max": MAX_LEVELS})
    if not (0 <= args.depth <= MAX_DEPTH):
        raise ConstructionError("depth-out-of-range", -1,
                                {"depth": args.depth, "max": MAX_DEPTH})
    epsilon = parse_rational(args.epsilon) if args.epsilon else None
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
    _emit(args, report.render(), report.to_dict())
    return 0


def _cmd_build(args) -> int:
    kind, obj = _load_input(args.path)
    if kind != "space":
        raise SpaceError("the build command needs a space description")
    result = _build_from(args, obj)
    _emit(args, _build_summary(obj, cb_kernel(obj), result),
          result.to_dict(include_traces=args.emit_trace))
    return 0 if result.passed else 2


def _cmd_check(args) -> int:
    kind, obj = _load_input(args.path)
    if kind == "space":
        result = _build_from(args, obj)
        reports = result.reports
    else:
        if not (0 <= args.depth <= MAX_DEPTH):
            raise ConstructionError("depth-out-of-range", -1,
                                    {"depth": args.depth, "max": MAX_DEPTH})
        reports = (check_dyadic(obj), check_proper(obj, args.depth),
                   degree_report(obj, len(obj.pairs), ()))
    ok = all(r.passed for r in reports)
    text = _report_lines(reports) + ("\nPASS" if ok else "\nFAIL")
    _emit(args, text, {"checks": [r.to_dict() for r in reports], "passed": ok})
    return 0 if ok else 2


def _cmd_encode(args) -> int:
    sb, _ = _subbase_from(args)
    coded = []
    for chunk in args.points.split(","):
        x = parse_rational(chunk.strip())
        coded.append(encode_point(sb, x))
    text = "\n".join(f"{c.point} {c.render()}" for c in coded)
    payload = {"width": len(sb),
               "points": [{"point": str(c.point),
                           "word": c.render(ascii_bottom=True)} for c in coded]}
    _emit(args, text, payload)
    return 0


def _cmd_decode(args) -> int:
    sb, _ = _subbase_from(args)
    word = TernaryWord.from_string(args.word)
    cell = decode_word(sb, word)
    payload = {"word": word.to_string(len(sb), ascii_bottom=True),
               "cell": cell.to_dict(), "empty": cell.is_empty}
    _emit(args, cell.render(), payload)
    return 0


def _cmd_report(args) -> int:
    kind, obj = _load_input(args.path)
    if kind != "space":
        raise SpaceError("the report command needs a space description")
    kern = cb_kernel(obj)
    result = _build_from(args, obj)
    payload = {"space": obj.to_dict(), "kernel_report": kern.to_dict(),
               "build": result.to_dict(include_traces=args.emit_trace)}
    _emit(args, _build_summary(obj, kern, result, settings=True), payload)
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
