"""Command-line front end.

Verbs either compute data (points, facets, dim, matchable, classify, sweep)
or decide a property (check-compressed, check-gorenstein, check-normal).
Exit codes: 0 = true / success, 1 = property false or sweep disagreement,
2 = usage or input error (an unreadable input file included), 3 = budget
exceeded, 70 = internal error (any other exception, reported on one line
of standard error), 141 = standard output closed before the output was
written (the shell's code for a SIGPIPE death).  All output is
deterministic; JSON objects are emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from pathlib import Path

from .budgets import CORPUS_CAPS
from .classify import (
    classify_all,
    compressed_by_theorem,
    gorenstein_decide,
    odd_cycle_condition,
)
from .errors import GraphParseError, PmspError, TooLargeError
from .graph import Graph, connected_components, induced_subgraph, parse_graph, parse_graph_json
from .matchable import matchable_subsets
from .oracle import CorpusSpec, agreement_sweep
from .polytope import dimension, idp_check, inequality_system, lattice_points

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 70
EXIT_PIPE = 141

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: building it
    takes longer than many verbs do.  Every `main` call parses with it;
    parsing writes only the namespace it returns."""
    parser = argparse.ArgumentParser(
        prog="pmsp",
        description="Perfectly matchable subgraph polytopes: points, facets, and property checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help="budget override: reject inputs with more vertices",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="reserved; every computation is deterministic",
        )
        if needs_input:
            p.add_argument(
                "--input",
                default="-",
                help=(
                    "graph source: a file path, '-' for standard input, or inline "
                    "edge text with ';' separating lines (e.g. '1 2; 2 3')"
                ),
            )

    descriptions = {
        "points": "lattice points of the polytope (indicators of matchable sets)",
        "facets": "inequality description with facet flags",
        "dim": "dimension of the polytope",
        "matchable": "perfectly matchable vertex sets",
        "check-compressed": "decide compressedness from the block decomposition",
        "check-gorenstein": "decide Gorensteinness per component",
        "classify": "full per-component classification",
    }
    for verb, help_text in descriptions.items():
        add_common(sub.add_parser(verb, help=help_text))
    normal = sub.add_parser(
        "check-normal",
        help="edge polytope normality (disjoint odd cycle test) plus optional dilate checks",
    )
    add_common(normal)
    normal.add_argument(
        "--k",
        type=int,
        choices=(2, 3),
        default=None,
        help="also verify that the k-th dilate decomposes over the point lattice",
    )
    sweep = sub.add_parser(
        "sweep", help="run theorem-versus-oracle agreement sweeps over a corpus"
    )
    add_common(sweep, needs_input=False)
    sweep.add_argument("--family", choices=tuple(CORPUS_CAPS), default="all")
    sweep.add_argument(
        "--timing", action="store_true", help="include per-record timing (not byte-stable)"
    )
    return parser


def read_graph(args) -> Graph:
    raw = args.input
    if not raw:
        raise PmspError("--input is empty: give a file path, '-' or edge text")
    if raw == "-":
        text = sys.stdin.read()
    else:
        path = Path(raw)
        try:
            is_file = path.exists()
        except OSError:  # not a possible path, e.g. a name over 255 bytes
            is_file = False
        if is_file:
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise GraphParseError(f"cannot read input file {raw}: {exc}") from None
        elif "/" in raw or raw.endswith((".edges", ".json", ".txt")):
            raise GraphParseError(f"input file not found: {raw}")
        else:
            text = raw.replace(";", "\n")
    if text.lstrip().startswith("{"):
        return parse_graph_json(text, args.max_n)
    return parse_graph(text, args.max_n)


def _emit(text: str) -> None:
    """Write `text` and a newline, a buffer's size at a time.  A buffered
    write longer than the buffer that meets a closed pipe can return short
    without raising, and the rest of the text is lost; slices are written
    through the buffer's flush, which raises `BrokenPipeError` instead."""
    text += "\n"
    step = io.DEFAULT_BUFFER_SIZE
    for start in range(0, len(text), step):
        sys.stdout.write(text[start : start + step])


def _verdict_text(verdict) -> list[str]:
    lines = [
        f"{verdict.property_name}: {'yes' if verdict.value else 'no'}"
        f" (method: {verdict.method})"
    ]
    if not verdict.hypothesis_ok:
        lines.append("  hypothesis: not met, fell back to the interior-vector system")
    if verdict.witness is not None:
        lines.append(f"  witness: {_dump(verdict.witness)}")
    if verdict.certificate is not None:
        cert = verdict.certificate
        lines.append(f"  index: {cert.index}")
        vec = " ".join(map(str, cert.interior_point_ambient))
        lines.append(f"  interior vector: {vec}")
    if verdict.caveat:
        lines.append(f"  caveat: {verdict.caveat}")
    return lines


def _run_points(g: Graph, args) -> int:
    pts = lattice_points(g)
    if args.format == "json":
        _emit(_dump(pts.to_json()))
    else:
        rows = (" ".join(map(str, p)) for p in pts.matrix.tolist())
        _emit("\n".join([f"n={g.n} points={len(pts)}", *rows]))
    return EXIT_TRUE


def _run_facets(g: Graph, args) -> int:
    system = inequality_system(g)
    if args.format == "json":
        _emit(system.to_json_text())
    elif len(system):
        _emit(system.to_text())
    return EXIT_TRUE


def _run_dim(g: Graph, args) -> int:
    d = dimension(g)
    if args.format == "json":
        _emit(_dump({"dimension": d}))
    else:
        _emit(f"dimension {d}")
    return EXIT_TRUE


def _run_matchable(g: Graph, args) -> int:
    family = matchable_subsets(g)
    if args.format == "json":
        _emit(_dump({"count": len(family), "subsets": family.as_lists()}))
    else:
        rows = (" ".join(map(str, members)) or "(empty)" for members in family.as_lists())
        _emit("\n".join([f"n={g.n} matchable={len(family)}", *rows]))
    return EXIT_TRUE


def _run_check_compressed(g: Graph, args) -> int:
    verdict = compressed_by_theorem(g)
    if args.format == "json":
        _emit(_dump(verdict.to_json()))
    else:
        for line in _verdict_text(verdict):
            _emit(line)
    return EXIT_TRUE if verdict.value else EXIT_FALSE


def _run_check_gorenstein(g: Graph, args) -> int:
    verdicts = []
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        verdicts.append((comp.members(), gorenstein_decide(sub)))
    value = all(v.value for _, v in verdicts)
    if args.format == "json":
        payload = {
            "property": "gorenstein",
            "value": value,
            "components": [
                {"vertices": list(members), "verdict": v.to_json()}
                for members, v in verdicts
            ],
        }
        _emit(_dump(payload))
    else:
        _emit(f"gorenstein: {'yes' if value else 'no'}")
        for members, v in verdicts:
            _emit(f"component {' '.join(map(str, members))}:")
            for line in _verdict_text(v):
                _emit("  " + line)
    return EXIT_TRUE if value else EXIT_FALSE


def _run_check_normal(g: Graph, args) -> int:
    verdict = odd_cycle_condition(g)
    dilates = []
    if args.k is not None:
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            check = idp_check(sub, args.k, mode="normality")
            dilates.append((comp.members(), check))
    value = verdict.value and all(c.ok for _, c in dilates)
    if args.format == "json":
        payload = {
            "property": "edge-polytope-normal",
            "value": value,
            "odd_cycle": verdict.to_json(),
            "dilate_checks": [
                {"vertices": list(members), "check": c.to_json()}
                for members, c in dilates
            ],
        }
        _emit(_dump(payload))
    else:
        for line in _verdict_text(verdict):
            _emit(line)
        for members, c in dilates:
            status = "ok" if c.ok else f"fails at {list(c.witness)}"
            _emit(
                f"dilate k={c.k} on component {' '.join(map(str, members))}: "
                f"{status} ({c.dilate_point_count} points)"
            )
    return EXIT_TRUE if value else EXIT_FALSE


def _run_classify(g: Graph, args) -> int:
    report = classify_all(g)
    if args.format == "json":
        _emit(_dump(report.to_json()))
    else:
        _emit(
            f"graph: {report.vertex_count} vertices, {report.edge_count} edges, "
            f"{len(report.components)} component(s)"
        )
        _emit(f"compressed: {'yes' if report.compressed else 'no'}")
        _emit(f"gorenstein: {'yes' if report.gorenstein else 'no'}")
        for comp in report.components:
            _emit(f"component {' '.join(map(str, comp.vertices))}:")
            counted = (
                f"{comp.point_count} lattice points"
                if comp.point_count is not None
                else "point count skipped (over budget)"
            )
            _emit(f"  dimension {comp.dimension}, {counted}")
            for line in _verdict_text(comp.compressed):
                _emit("  " + line)
            for line in _verdict_text(comp.gorenstein):
                _emit("  " + line)
            if comp.edge_polytope_normal is not None:
                for line in _verdict_text(comp.edge_polytope_normal):
                    _emit("  " + line)
            for check in comp.dilate_checks:
                status = "ok" if check.ok else f"fails at {list(check.witness)}"
                _emit(f"  dilate k={check.k} ({check.mode}): {status}")
    return EXIT_TRUE


def _run_sweep(args) -> int:
    spec = CorpusSpec(max_n=args.max_n if args.max_n is not None else 6, family=args.family)
    report = agreement_sweep(spec)
    if args.format == "json":
        out = report.to_jsonl(include_timing=args.timing)
        if out:
            _emit(out)
    else:
        _emit(
            f"family={spec.family} max_n={spec.max_n} records={len(report.records)} "
            f"disagreements={len(report.disagreements)}"
        )
        for rec in report.disagreements:
            _emit(
                f"DISAGREE {rec.property_name} on {_dump(rec.graph)}: "
                f"{rec.theorem_value} vs {rec.oracle_value}"
            )
    return EXIT_TRUE if report.ok else EXIT_FALSE


def _dispatch(args) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise PmspError("max_n must be at least 1")
    if args.verb == "sweep":
        return _run_sweep(args)
    g = read_graph(args)
    handlers = {
        "points": _run_points,
        "facets": _run_facets,
        "dim": _run_dim,
        "matchable": _run_matchable,
        "check-compressed": _run_check_compressed,
        "check-gorenstein": _run_check_gorenstein,
        "check-normal": _run_check_normal,
        "classify": _run_classify,
    }
    return handlers[args.verb](g, args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PmspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in pmsp itself, never a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
