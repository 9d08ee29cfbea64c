"""Command-line interface: rank, check, certify, complement.

Exit codes: 0 on success / all axioms pass / SAT; 1 on a failed axiom or
UNSAT; 2 on usage or input errors; 141 when stdout is closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys
from dataclasses import asdict
from typing import Sequence

from .axioms import AXIOMS_BY_MODE, Axiom, AxiomReport, check
from .certify import CertificateStatus, certify
from .engine import RefinementTrace, rank_graph
from .errors import InputError
from .graphs import ReputationGraph, parse_graph
from .rankings import DEFAULT_ENUMERATION_CAP, Ranking, parse_ranking


def _read_text(path: str) -> str:
    name = "<stdin>" if path == "-" else path
    if path == "-" and sys.stdin is None:  # the process was started with stdin closed
        raise InputError("cannot read <stdin>: stdin is closed")
    try:
        data = sys.stdin.buffer.read() if path == "-" else pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte opens the line after the last break of the valid prefix.
        line_no = len(f"{data[: exc.start].decode('utf-8')}.".splitlines())
        bad = f"byte 0x{data[exc.start]:02x}"
        raise InputError(f"cannot read {name}: line {line_no}: {bad} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # newlines as text mode reads them


def _select_axioms(graph: ReputationGraph, raw: str | None) -> tuple[Axiom, ...]:
    if raw is None:
        return AXIOMS_BY_MODE[graph.mode]
    names = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not names:
        raise InputError("empty axiom list")
    return tuple(dict.fromkeys(map(Axiom.from_name, names)))


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


_escape = json.encoder.encode_basestring_ascii


def _render(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, a ``Ranking`` as its ``{"node", "rank"}``
    list; strings stay in C where indenting moves ``json.dumps`` to Python."""
    if isinstance(value, str):
        return _escape(value)
    inner = indent + "  "
    if isinstance(value, Ranking):
        ranks = value.as_dict()
        head, close = f'{inner}{{\n{inner}  "node": ', f"\n{inner}}}"
        rows = [f'{_escape(n)},\n{inner}  "rank": {ranks[n]}' for n in sorted(ranks)]
        return f"[\n{head}" + f"{close},\n{head}".join(rows) + f"{close}\n{indent}]"
    if isinstance(value, dict):
        items = [f"{inner}{_escape(k)}: {_render(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [inner + _render(v, inner) for v in value]
    else:
        return json.dumps(value)
    start, end = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return start + end
    return f"{start}\n" + ",\n".join(items) + f"\n{indent}{end}"


def _report_json(report: AxiomReport) -> dict[str, object]:
    witness = asdict(report.witness) if report.witness is not None else None
    return {"axiom": report.axiom.value, "passed": report.passed, "witness": witness}


def _trace_json(trace: RefinementTrace) -> dict[str, object]:
    return {
        "initial": trace.initial,
        "steps": [
            {
                "iteration": step.index,
                "chosen": step.chosen,
                "witness": step.witness,
                "moved": step.moved,
                "left_behind": step.left_behind,
                "direction": step.direction,
                "ranking": step.ranking,
            }
            for step in trace.steps
        ],
    }


def _trace_text(trace: RefinementTrace) -> list[str]:
    # Trace lines are '#' comments so the output still parses as a ranking.
    lines = ["# initial"]
    lines += [f"#   {row}" for row in trace.initial.serialize().splitlines()]
    for step in trace.steps:
        moved = ",".join(step.moved)
        left = ",".join(step.left_behind)
        lines.append(
            f"# iteration {step.index}: chose {step.chosen} (witness "
            f"{step.witness}); moved {step.direction}: {moved}; left behind: {left}"
        )
        lines += [f"#   {row}" for row in step.ranking.serialize().splitlines()]
    return lines


def cmd_rank(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_text(args.graph))
    ranking, trace = rank_graph(graph)
    if args.format == "json":
        payload: dict[str, object] = {"mode": graph.mode.value, "ranking": ranking}
        if args.trace:
            payload["trace"] = _trace_json(trace)
        print(_render(payload))
    else:
        if args.trace:
            print("\n".join(_trace_text(trace)))
        print(ranking.serialize(), end="")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.graph == "-" and args.ranking == "-":
        raise InputError("at most one of GRAPH and RANKING may be '-' (stdin)")
    graph = parse_graph(_read_text(args.graph))
    ranking = parse_ranking(_read_text(args.ranking))
    axioms = _select_axioms(graph, args.axioms)
    reports = [check(graph, ranking, axiom) for axiom in axioms]
    all_passed = all(report.passed for report in reports)
    if args.format == "json":
        payload = {
            "reports": [_report_json(r) for r in reports],
            "all_passed": all_passed,
        }
        print(_render(payload))
    else:
        for report in reports:
            print(report.render_text())
    return 0 if all_passed else 1


def cmd_certify(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_text(args.graph))
    axioms = _select_axioms(graph, args.axioms)
    certificate = certify(graph, axioms, cap=args.cap)
    if args.format == "json":
        payload = {
            "status": certificate.status.value,
            "examined": certificate.examined,
            "witness": certificate.witness,
        }
        print(_render(payload))
    else:
        print(certificate.render_text())
    return 0 if certificate.status is CertificateStatus.SAT else 1


def cmd_complement(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_text(args.graph))
    comp = graph.complement()
    if args.format == "json":
        payload = {
            "mode": comp.mode.value,
            "nodes": list(comp.nodes),
            "edges": [
                {"source": src, "sign": kind.value, "target": dst}
                for src, dst, kind in sorted(
                    comp.edges, key=lambda e: (e[0], e[1], e[2].value)
                )
            ],
        }
        print(_render(payload))
    else:
        print(comp.serialize(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprank",
        description=(
            "Axiomatic social rankings over reputation graphs: compute "
            "rankings, check them against axioms, and certify axiom "
            "satisfiability exhaustively."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output rendering (default: text)",
        )

    p_rank = sub.add_parser("rank", help="rank a reputation graph")
    p_rank.add_argument("graph", help="edge-list file, or - for stdin")
    p_rank.add_argument(
        "--trace", action="store_true", help="show each refinement iteration"
    )
    add_format(p_rank)
    p_rank.set_defaults(handler=cmd_rank)

    p_check = sub.add_parser("check", help="check a ranking against axioms")
    p_check.add_argument("graph", help="edge-list file, or - for stdin")
    p_check.add_argument("ranking", help="ranking file (NAME RANK lines), or - for stdin")
    p_check.add_argument(
        "--axioms",
        help="comma-separated axiom names (default: all for the graph's mode)",
    )
    add_format(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_certify = sub.add_parser(
        "certify", help="exhaustively test whether any ranking satisfies the axioms"
    )
    p_certify.add_argument("graph", help="edge-list file, or - for stdin")
    p_certify.add_argument(
        "--axioms",
        help="comma-separated axiom names (default: all for the graph's mode)",
    )
    p_certify.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_ENUMERATION_CAP,
        help="refuse graphs with more nodes than this (default: %(default)s)",
    )
    add_format(p_certify)
    p_certify.set_defaults(handler=cmd_certify)

    p_comp = sub.add_parser(
        "complement", help="negative complement of a positive graph"
    )
    p_comp.add_argument("graph", help="edge-list file, or - for stdin")
    add_format(p_comp)
    p_comp.set_defaults(handler=cmd_complement)

    return parser


_parser = functools.cache(build_parser)  # one per process, built on first use


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`| head`): point it at devnull so the final
        # flush at exit stays silent, and exit as a SIGPIPE death would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
