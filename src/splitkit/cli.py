"""Command-line interface: classify graphs, verify theorems, print the census."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MalformedCorpus, OrderOutOfRange, SplitkitError
from .graphs import Graph, _lines, _read_text, parse_edge_list, parse_graph6_lines
from .harness import (
    THEOREM_IDS,
    census,
    default_jobs,
    render_census_text,
    verify,
    verify_all,
)
from .recognition import ClassificationReport, classify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Split-graph classification and exhaustive theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify graphs given as graph6 lines or an edge list"
    )
    src = p_classify.add_mutually_exclusive_group(required=True)
    src.add_argument("--inline", metavar="STR", help="graph6 line(s) or edge-list text")
    src.add_argument("--file", metavar="PATH", help="file with the same content")

    p_verify = sub.add_parser("verify", help="exhaustively check one or all theorems")
    p_verify.add_argument(
        "--theorem",
        required=True,
        choices=THEOREM_IDS + ("all",),
        help="theorem id, or 'all'",
    )
    p_verify.add_argument(
        "--max-n", type=int, default=7, dest="max_n", help="largest order to sweep"
    )
    p_verify.add_argument(
        "--file", metavar="PATH", help="graph6 corpus to check instead of enumerating"
    )

    p_census = sub.add_parser(
        "census", help="classification counts over connected graphs by order"
    )
    p_census.add_argument(
        "--max-n", type=int, default=7, dest="max_n", help="largest order to tabulate"
    )
    for p in (p_verify, p_census):
        p.add_argument(
            "--jobs", type=_positive_int, default=default_jobs(), help="worker processes"
        )
    for p in (p_classify, p_verify, p_census):
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_classify_input(text: str) -> list[tuple[str, Graph]]:
    """Auto-detect edge-list (first byte is a digit) vs graph6 lines."""
    stripped = text.lstrip()
    if stripped and stripped[0].isdigit():
        g = parse_edge_list(text)
        return [("edge-list", g)]
    lines = [ln.strip() for ln in _lines(text)]
    graphs = parse_graph6_lines(lines)
    return list(zip([ln for ln in lines if ln], graphs))


def _yn(flag) -> str:
    if flag is None:
        return "-"
    return "yes" if flag else "no"


def _render_classification(label: str, r: ClassificationReport) -> str:
    ks = "-" if r.ks is None else f"K{set(r.ks.k) or '{}'}/S{set(r.ks.s) or '{}'}"
    psd = (
        "-"
        if r.psd is None
        else f"A{set(r.psd.a) or '{}'}/B{set(r.psd.b) or '{}'}/C{set(r.psd.c) or '{}'}"
    )
    wit = ", ".join(f"{lbl}=({e.u},{e.v})" for lbl, e in r.witnesses)
    return (
        f"{label}: split={_yn(r.is_split)} balanced={_yn(r.is_balanced_split)} "
        f"pseudo_split={_yn(r.is_pseudo_split)} ng={_yn(r.is_ng)} "
        f"exceptional={r.exceptional or '-'} omega={r.omega} alpha={r.alpha} "
        f"chi={r.chi} chi_complement={r.chi_complement} ks={ks} psd={psd} "
        f"witnesses=[{wit}]"
    )


def _cmd_classify(args) -> int:
    try:
        text = args.inline if args.inline is not None else _read_text(args.file)
        reports = ((label, classify(g)) for label, g in _parse_classify_input(text))
        if args.format == "json":
            items = [r.to_json(label) for label, r in reports]
        else:
            items = [_render_classification(label, r) for label, r in reports]
    except (OSError, SplitkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one print after every report is written, so an error leaves stdout empty
    if args.format == "json":
        print("[\n" + ",\n".join(items) + "\n]" if items else "[]")
    elif items:
        print("\n".join(items))
    return 0


def _cmd_verify(args) -> int:
    source = None
    if args.file is not None:
        try:
            source = parse_graph6_lines(_lines(_read_text(args.file)))
        except (OSError, MalformedCorpus) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        if args.theorem == "all":
            reports = verify_all(args.max_n, jobs=args.jobs, source=source)
        else:
            reports = [verify(args.theorem, args.max_n, source=source, jobs=args.jobs)]
    except OrderOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if source is not None else 2
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload if len(payload) > 1 else payload[0], sort_keys=True, indent=2))
    else:
        for r in reports:
            print(r.render_text())
    return 0 if all(r.verdict == "PASS" for r in reports) else 1


def _cmd_census(args) -> int:
    try:
        rows = census(args.max_n, jobs=args.jobs)
    except OrderOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in rows], sort_keys=True, indent=2))
    else:
        print(render_census_text(rows))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_census(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
