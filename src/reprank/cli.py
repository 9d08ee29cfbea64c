"""Command-line interface: rank, check, certify, complement.

Exit codes: 0 on success / all axioms pass / SAT; 1 on a failed axiom or
UNSAT; 2 on usage, input or output errors; 141 when stdout is closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys
from typing import Sequence

from .axioms import AXIOMS_BY_MODE, Axiom, AxiomReport, check
from .certify import CertificateStatus, certify
from .engine import RefinementTrace, rank_graph
from .errors import InputError
from .graphs import ReputationGraph, _edge_order, _lines, parse_graph
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
        return data.decode("utf-8")  # line ends are left to the parsers' _lines
    except UnicodeDecodeError as exc:
        # The bad byte opens the line after the last break of the valid prefix.
        line_no = len(_lines(data[: exc.start].decode("utf-8")))
        bad = f"byte 0x{data[exc.start]:02x}"
        raise InputError(f"cannot read {name}: line {line_no}: {bad} is not UTF-8") from None


def _select_axioms(graph: ReputationGraph, raw: str | None) -> tuple[Axiom, ...]:
    if raw is None:
        return AXIOMS_BY_MODE[graph.mode]
    names = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not names:
        raise InputError("empty axiom list")
    return tuple(dict.fromkeys(map(Axiom.from_name, names)))


def _positive_int(text: str) -> int:
    digits = text.strip()  # int() would also take signs, underscores and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(digits)


_escape = json.encoder.encode_basestring_ascii


def _render(value: object) -> str:
    """``json.dumps(value, indent=2)``, a ``Ranking`` as its ``{"node", "rank"}``
    list: every piece goes to one list, joined once, so no nested text is copied again."""
    return "".join(_write(value, "", []))


@functools.lru_cache(maxsize=8)  # a rank --trace output uses three, one per indent
def _ranking_template(names: tuple[str, ...], indent: str) -> str:
    """A ranking over ``names`` at ``indent``, with a ``%d`` for each rank in
    name order and each ``%`` in a name doubled."""
    inner = indent + "  "
    row = f'{inner}{{\n{inner}  "node": %s,\n{inner}  "rank": %%d\n{inner}}}'
    rows = [row % _escape(name).replace("%", "%%") for name in names]
    return "[\n" + ",\n".join(rows) + f"\n{indent}]"


def _write(value: object, indent: str, out: list[str]) -> list[str]:
    if isinstance(value, str):
        out.append(_escape(value))
    elif type(value) is int:  # not a bool
        out.append(repr(value))
    elif isinstance(value, Ranking):
        ranks, names = value.as_dict(), value.nodes
        out.append(_ranking_template(names, indent) % tuple(map(ranks.__getitem__, names)))
    elif isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        head, start = ",\n" + inner, len(out)
        if isinstance(value, dict):
            for key, item in value.items():
                out += head, _escape(key), ": "
                _write(item, inner, out)
        else:
            try:  # only strings: one join in C; any other item raises at once
                out += head, head.join(map(_escape, value))
            except TypeError:
                for item in value:
                    out.append(head)
                    _write(item, inner, out)
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        out[start] = f"{opening}\n{inner}"  # the first item's head
        out.append(f"\n{indent}{closing}")
    else:  # None, a bool, a float or an empty collection
        out.append(json.dumps(value))
    return out


def _report_json(report: AxiomReport) -> dict[str, object]:
    witness = vars(report.witness) if report.witness is not None else None
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


def _trace_text(trace: RefinementTrace) -> str:
    # '#' comment lines, so the output still parses as a ranking; one replace per snapshot.
    heads = ["initial"] + [
        f"iteration {s.index}: chose {s.chosen} (witness {s.witness}); moved "
        f"{s.direction}: {','.join(s.moved)}; left behind: {','.join(s.left_behind)}"
        for s in trace.steps
    ]
    out: list[str] = []
    for head, ranking in zip(heads, trace.rankings()):
        rows = ranking.serialize()  # its last row's newline is left alone
        out += f"# {head}\n#   ", rows.replace("\n", "\n#   ", len(ranking.nodes) - 1)
    return "".join(out)


def cmd_rank(args: argparse.Namespace, graph: ReputationGraph) -> tuple[int, object]:
    ranking, trace = rank_graph(graph)
    if args.format == "text":
        return 0, (_trace_text(trace) if args.trace else "") + ranking.serialize()
    payload: dict[str, object] = {"mode": graph.mode.value, "ranking": ranking}
    if args.trace:
        payload["trace"] = _trace_json(trace)
    return 0, payload


def cmd_check(args: argparse.Namespace, graph: ReputationGraph) -> tuple[int, object]:
    ranking = parse_ranking(_read_text(args.ranking))
    axioms = _select_axioms(graph, args.axioms)
    reports = [check(graph, ranking, axiom) for axiom in axioms]
    code = 0 if all(report.passed for report in reports) else 1
    if args.format == "text":
        return code, "".join(f"{report.render_text()}\n" for report in reports)
    return code, {
        "reports": [_report_json(r) for r in reports],
        "all_passed": code == 0,
    }


def cmd_certify(args: argparse.Namespace, graph: ReputationGraph) -> tuple[int, object]:
    axioms = _select_axioms(graph, args.axioms)
    certificate = certify(graph, axioms, cap=args.cap)
    code = 0 if certificate.status is CertificateStatus.SAT else 1
    if args.format == "text":
        return code, certificate.render_text() + "\n"
    return code, {
        "status": certificate.status.value,
        "examined": certificate.examined,
        "witness": certificate.witness,
    }


def cmd_complement(args: argparse.Namespace, graph: ReputationGraph) -> tuple[int, object]:
    comp = graph.complement()
    if args.format == "text":
        return 0, comp.serialize()
    return 0, {
        "mode": comp.mode.value,
        "nodes": list(comp.nodes),
        "edges": [
            {"source": src, "sign": kind.value, "target": dst}
            for src, dst, kind in sorted(comp.edges, key=_edge_order)
        ],
    }


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
    for name, help_text, handler in (
        ("rank", "rank a reputation graph", cmd_rank),
        ("check", "check a ranking against axioms", cmd_check),
        ("certify", "exhaustively test whether any ranking satisfies the axioms", cmd_certify),
        ("complement", "negative complement of a positive graph", cmd_complement),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("graph", help="edge-list file, or - for stdin")
        command.set_defaults(handler=handler)
    sub.choices["rank"].add_argument(
        "--trace", action="store_true", help="show each refinement iteration"
    )
    sub.choices["check"].add_argument(
        "ranking", help="ranking file (NAME RANK lines), or - for stdin"
    )
    for name in ("check", "certify"):
        sub.choices[name].add_argument(
            "--axioms",
            help="comma-separated axiom names (default: all for the graph's mode)",
        )
    sub.choices["certify"].add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_ENUMERATION_CAP,
        help="refuse graphs with more nodes than this (default: %(default)s)",
    )
    for command in sub.choices.values():  # last: help lists options in the order added
        command.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output rendering (default: text)",
        )

    return parser


_parser = functools.cache(build_parser)  # one per process, built on first use


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        if args.graph == "-" and getattr(args, "ranking", None) == "-":
            raise InputError("at most one of GRAPH and RANKING may be '-' (stdin)")
        # A handler returns its exit code and the JSON payload or the finished text.
        code, result = args.handler(args, parse_graph(_read_text(args.graph)))
        if sys.stdout is None:  # the process was started with stdout closed
            raise InputError("cannot write <stdout>: stdout is closed")
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # A closed pipe cuts the text short silently; print's own "\n" write then fails.
        print(_render(result) if args.format == "json" else result[:-1])
        sys.stdout.flush()
    except (OSError, ValueError) as exc:  # ValueError: an encoding without a name's characters
        # Point stdout at devnull so the final flush at exit stays silent. A
        # reader that closed it (`| head`) gets the exit of a SIGPIPE death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: cannot write <stdout>: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
