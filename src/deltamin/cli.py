"""Batch command-line front end.

Subcommands: solve, verify, analyze, generate, suite.  Graphs stream in as
graph6 lines (or a single edge-list file), reports stream out as JSON lines;
solve also offers CSV and DOT.  Input "-" reads standard input.  The env
var DELTAMIN_LOG sets log verbosity (DEBUG, INFO, ...).

Each command imports the modules it runs at its own top, so that generate,
for one, starts without the solver.

All records are emitted in input order with sorted keys, so output is
byte-stable for a fixed (input, config, seed).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

from . import graphs as graphlib
from .errors import DeltaMinError, DomainError, GraphFormatError
from .graphs import Graph, emit_graph6, enumerate_cubic, make_named, parse_edge_list, parse_graph6, random_subcubic

if TYPE_CHECKING:
    import logging

    from .solver import SolveResult

DEFAULT_EXACT_LIMIT = 14


class RunConfig:
    """The settings of one solve, verify, analyze or suite run."""

    def __init__(
        self,
        command: str,
        input_path: Optional[str] = None,
        format: str = "graph6",
        output: str = "json",
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        seed: int = 0,
        jobs: int = 1,
    ) -> None:
        if exact_limit < 4:
            raise ValueError("--exact-limit must be at least 4")
        if jobs < 1:
            raise ValueError("--jobs must be at least 1")
        self.command = command
        self.input_path = input_path
        self.format = format
        self.output = output
        self.exact_limit = exact_limit
        self.seed = seed
        self.jobs = jobs


def _log() -> logging.Logger:
    """The package logger, logging to standard error at the level DELTAMIN_LOG
    names (WARNING when it is unset or names no level) unless logging is
    configured already.  main calls it at start-up when DELTAMIN_LOG is set;
    otherwise logging is imported and configured at the first line logged."""
    import logging

    level = getattr(logging, os.environ.get("DELTAMIN_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return logging.getLogger("deltamin")


# ---------------------------------------------------------------------------
# input handling


class _Unreadable(Exception):
    """An input that cannot be read (a file, or standard input asked for
    twice): the command exits 2."""


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of standard input for "-".  A byte that is
    not UTF-8 is kept as a surrogate escape, so it fails only its own line."""
    if path == "-":
        raw = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if raw is None else raw.read().decode("utf-8", "surrogateescape")
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    except OSError as exc:
        raise _Unreadable(f"cannot read {path}: {exc.strerror or exc}") from None


# One graph's input: its index, its raw text, and for verify its colouring
# line (None when the colouring file has no line for it, and for the other
# commands).
Item = tuple[int, str, Optional[str]]


def _load_graphs(cfg: RunConfig) -> list[Item]:
    """Raw per-graph items, without colourings.  graph6 inputs hold one graph
    per non-blank line; an edge-list file holds a single graph."""
    text = _read_text(cfg.input_path or "-")
    if cfg.format == "graph6":
        return [(i, line, None) for i, line in enumerate(
            ln for ln in text.splitlines() if ln.strip()
        )]
    return [(0, text, None)]


def _parse_payload(payload: str, fmt: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(payload)
    return parse_edge_list(payload)


# ---------------------------------------------------------------------------
# solve, analyze and verify: one pipeline that parses, solves or verifies, and
# renders each graph

# One graph's output text (empty for a failed graph outside JSON), its error
# message or None, and whether it passed (for analyze: every clause holds).
Output = tuple[str, Optional[str], bool]

# keyed by colour code (Colour.value)
_DOT_EDGE_STYLE = {
    "a": 'color="#1b9e77"',
    "b": 'color="#7570b3"',
    "g": 'color="#66a61e"',
    "d": 'color="#d95f02",style=bold,penwidth=3',
}


def _json_line(rec: dict) -> str:
    import json

    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _dot_block(index: int, g: Graph, result: SolveResult) -> str:
    stats = f"n={g.vertex_count} m={g.edge_count} s={result.s_value} method={result.method.value}"
    edges = zip(g.edges, result.witness.colours)
    body = "".join(f"  {u} -- {v} [{_DOT_EDGE_STYLE[c.value]}];\n" for (u, v), c in edges)
    return f"graph g{index} {{\n  // {stats}\n{body}}}\n"


def _render(cfg: RunConfig, index: int, g: Graph) -> Output:
    # cmd_solve or cmd_analyze has loaded these modules
    from .solver import Method, heuristic_descent, solve_exact

    if g.vertex_count <= cfg.exact_limit:
        result = solve_exact(g)
    else:
        result = heuristic_descent(g, seed=cfg.seed)
    if cfg.output == "csv":
        row = f"g{index},{g.vertex_count},{g.edge_count},{result.s_value},{result.method.value}\n"
        return row, None, True
    if cfg.output == "dot":
        return _dot_block(index, g, result), None, True
    rec = {
        "index": index,
        "n": g.vertex_count,
        "m": g.edge_count,
        "s": result.s_value,
        "method": result.method.value,
        "colours": [c.value for c in result.witness.colours],
    }
    if cfg.command != "analyze":
        return _json_line(rec), None, True
    from .structure import verify_theorem1

    report = verify_theorem1(result.witness)
    rec["verification"] = report.to_dict()
    rec["parity"] = None
    if g.is_cubic() and result.method is Method.EXACT and result.s_value > 0:
        # on a cubic graph every delta edge of a delta-minimum witness lies
        # in exactly one class, so the report's counts partition s
        rec["parity"] = {
            "counts": [report.counts[cls] for cls in "ABC"],
            "parity_ok": report.clause("parity_congruence").passed,
        }
    return _json_line(rec), None, report.all_pass


def _verify_output(cfg: RunConfig, index: int, g: Graph, colouring: Optional[str]) -> Output:
    if colouring is None:
        return _error_output(cfg, index, "no colouring line for this graph", None)
    from .colouring import EdgeColouring
    from .structure import verify_theorem1

    try:
        report = verify_theorem1(EdgeColouring.from_json(g, colouring))
    except DeltaMinError as exc:
        return _error_output(cfg, index, str(exc), None)
    rec = report.to_dict()
    rec["index"] = index
    return _json_line(rec), None, report.all_pass


def _error_output(cfg: RunConfig, index: int, message: str, offset: Optional[int]) -> Output:
    rec: dict = {"index": index, "error": message}
    if cfg.command == "solve":
        rec["offset"] = offset
    return (_json_line(rec) if cfg.output == "json" else ""), message, False


def _graph_output(cfg: RunConfig, index: int, payload: str, colouring: Optional[str]) -> Output:
    try:
        g = _parse_payload(payload, cfg.format)
    except GraphFormatError as exc:
        return _error_output(cfg, index, str(exc), exc.offset)
    except DeltaMinError as exc:
        return _error_output(cfg, index, str(exc), None)
    try:
        if cfg.command == "verify":
            return _verify_output(cfg, index, g, colouring)
        return _render(cfg, index, g)
    except Exception as exc:  # one graph's failure must not lose the rest of the batch
        _log().exception("graph %d", index)
        return _error_output(cfg, index, f"{type(exc).__name__}: {exc}", None)


def _run_chunk(cfg: RunConfig, chunk: list[Item]) -> list[Output]:
    return [_graph_output(cfg, *item) for item in chunk]


def _chunk_outputs(cfg: RunConfig, chunks: list[list[Item]]) -> Iterator[list[Output]]:
    run = functools.partial(_run_chunk, cfg)
    if cfg.jobs == 1 or len(chunks) < 2:
        yield from map(run, chunks)
        return
    # imported here so that runs without a pool do not pay for it
    from concurrent.futures import ProcessPoolExecutor

    # the pool forks all its workers at the first submit, so fewer chunks
    # than jobs must not start idle ones
    with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(chunks))) as pool:
        yield from pool.map(run, chunks)


def _run_batch(cfg: RunConfig, items: list[Item], out: TextIO) -> int:
    """Every graph through parse, solve or verify, and render, in contiguous
    chunks, about four per worker (a process pool when --jobs is above 1).
    Chunks are written in input order and each graph's text depends only on
    its item and the config, so output does not depend on --jobs."""
    size = -(-len(items) // (4 * cfg.jobs)) or 1
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    status = 0
    for chunk, outputs in zip(chunks, _chunk_outputs(cfg, chunks)):
        for (index, _, _), (text, error, passed) in zip(chunk, outputs):
            out.write(text)
            if error is not None:
                _log().error("graph %d: %s", index, error)
            if not passed:
                status = 1
    return status


def cmd_solve(cfg: RunConfig, out: Optional[TextIO] = None) -> int:
    # imported before the pool forks, so that workers do not import it again
    from . import solver  # noqa: F401

    out = out if out is not None else sys.stdout
    payloads = _load_graphs(cfg)
    if cfg.output == "csv":
        out.write("name,n,m,s,method\n")
    return _run_batch(cfg, payloads, out)


def cmd_analyze(cfg: RunConfig, out: Optional[TextIO] = None) -> int:
    """Solve, verify the witness, and report parity in one record per graph."""
    # imported before the pool forks, so that workers do not import them again
    from . import solver, structure  # noqa: F401

    return _run_batch(cfg, _load_graphs(cfg), out if out is not None else sys.stdout)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig, colouring_path: str, out: Optional[TextIO] = None) -> int:
    """Check each graph's colouring, given by the line at the same position
    in the colouring file, against every structural clause."""
    # imported before the pool forks, so that workers do not import them again
    from . import colouring, structure  # noqa: F401

    if cfg.input_path == "-" and colouring_path == "-":
        raise _Unreadable("graphs and colourings cannot both be read from standard input")
    items = _load_graphs(cfg)
    colour_lines = [
        ln for ln in _read_text(colouring_path).splitlines() if ln.strip()
    ]
    # an item's index is its position in the input
    items = [
        (index, payload, colour_lines[index] if index < len(colour_lines) else None)
        for index, payload, _ in items
    ]
    return _run_batch(cfg, items, out if out is not None else sys.stdout)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Write each graph as it is made.  Every argument is checked before the
    first graph, so an error exits 2 with no output."""
    out = out if out is not None else sys.stdout
    emitted: Iterable[Graph]
    try:
        if args.named is not None:
            emitted = [make_named(args.named, args.size)]
        elif args.cubic is not None:
            emitted = enumerate_cubic(args.cubic)
        else:
            if args.count < 0:
                raise DomainError("--count must be non-negative")
            if args.random < 1:
                raise DomainError("need at least one vertex")
            rng = random.Random(f"generate:{args.seed}")
            emitted = (
                random_subcubic(args.random, rng.randrange(2**31))
                for _ in range(args.count)
            )
    except DeltaMinError as exc:
        print(f"deltamin generate: {exc}", file=sys.stderr)
        return 2
    for g in emitted:
        out.write(emit_graph6(g) + "\n")
    return 0


# ---------------------------------------------------------------------------
# suite


def cmd_suite(cfg: RunConfig, out: Optional[TextIO] = None) -> int:
    """Run the property checks over the cubic corpus up to n=10, solved once,
    and seeded random graphs and colourings."""
    # imported here so that the other commands do not load the checks
    from . import checks

    out = out if out is not None else sys.stdout
    out.write(
        "deltamin suite | enumeration: isomorphism-free "
        "(orderly breadth-first generation) | "
        f"seed={cfg.seed} exact-limit={cfg.exact_limit}\n"
    )
    corpus = checks.cubic_corpus()
    needs = max(corpus)
    witnesses = checks.solve_corpus(corpus) if needs <= cfg.exact_limit else {}
    graphs = checks.random_graphs(random.Random(f"suite:{cfg.seed}"), 100, range(4, 11))
    colourings = checks.random_improper_colourings(random.Random(f"suite-properize:{cfg.seed}"), 200, range(2, 13))
    # (name, exact solving needed up to n, check, PASS detail given the count checked)
    suites = (
        ("golden-values", needs, checks.golden_values, "{} named graphs"),
        ("enumeration-counts", 0, lambda: checks.enumeration_counts(corpus), "{} graphs over n=4,6,8"),
        ("two-factor-bound", needs, lambda: checks.two_factor_bound(witnesses),
         f"{len(witnesses)} graphs, {{}} two-factors"),
        ("resistance-equivalence", needs, lambda: checks.resistance_equivalence(witnesses, graphs),
         "{} graphs (enumerated cubic + 100 random subcubic)"),
        ("parity-signature", needs, lambda: checks.parity_signatures(witnesses), "{} witnesses with s >= 1"),
        ("properize-contract", 0, lambda: checks.properize_contract(colourings), "{} random delta-improper colourings"),
    )
    status = 0
    for name, limit, run, detail in suites:
        if limit > cfg.exact_limit:
            out.write(f"suite {name}: SKIPPED (needs exact solving up to n={limit}, exact-limit={cfg.exact_limit})\n")
            continue
        checked, failures = run()
        if failures:
            more = f"; {len(failures) - 1} more" if len(failures) > 1 else ""
            out.write(f"suite {name}: FAIL ({failures[0]}{more})\n")
            status = 1
        else:
            out.write(f"suite {name}: PASS ({detail.format(checked)})\n")
    return status


# ---------------------------------------------------------------------------
# argument parsing / entry point


def _add_common(p: argparse.ArgumentParser, batch: bool = True) -> None:
    """--exact-limit and --seed; a batch command (solve, verify, analyze)
    also takes an input, --format and --jobs."""
    if batch:
        p.add_argument("input", help="input path, or - for standard input")
        p.add_argument(
            "--format", choices=("graph6", "edgelist"), default="graph6",
            help="input encoding (graph6: one graph per line)",
        )
        p.add_argument(
            "--jobs", type=int, default=1, metavar="J",
            help="worker processes for independent graphs",
        )
    p.add_argument(
        "--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT, metavar="N",
        help="largest vertex count solved exactly (minimum 4)",
    )
    p.add_argument("--seed", type=int, default=0, metavar="S", help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamin",
        description="Minimise the fourth colour in edge colourings of graphs "
        "with maximum degree three.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimum delta count per graph")
    _add_common(p_solve)
    p_solve.add_argument(
        "--out", choices=("json", "csv", "dot"), default="json",
        help="report format",
    )

    p_verify = sub.add_parser("verify", help="check structural clauses of witness colourings")
    _add_common(p_verify)
    p_verify.add_argument(
        "--colouring", required=True, metavar="PATH",
        help="JSON-lines colouring file aligned with the input graphs; "
        "colours are positional over the parsed graph's edge order, "
        "which for graph6 input is the solve command's order",
    )

    p_analyze = sub.add_parser("analyze", help="solve, verify, and report parity per graph")
    _add_common(p_analyze)

    p_gen = sub.add_parser("generate", help="emit graph6 corpora")
    what = p_gen.add_mutually_exclusive_group(required=True)
    what.add_argument("--named", metavar="NAME", help=f"one of: {', '.join(graphlib.NAMED_GRAPHS)}")
    what.add_argument("--cubic", type=int, metavar="N", help="all connected cubic graphs on N vertices")
    what.add_argument("--random", type=int, metavar="N", help="random subcubic graphs on N vertices")
    p_gen.add_argument("--size", type=int, default=None, metavar="K", help="parameter for sized named graphs")
    p_gen.add_argument("--count", type=int, default=1, metavar="C", help="number of random graphs")
    p_gen.add_argument("--seed", type=int, default=0, metavar="S")

    p_suite = sub.add_parser("suite", help="run the self-check property suites")
    _add_common(p_suite, batch=False)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        format=getattr(args, "format", "graph6"),
        output=getattr(args, "out", "json"),
        exact_limit=getattr(args, "exact_limit", DEFAULT_EXACT_LIMIT),
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", 1),
    )


def main(argv: Optional[list[str]] = None) -> int:
    if "DELTAMIN_LOG" in os.environ:
        _log()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.colouring)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        return cmd_suite(cfg)
    except _Unreadable as exc:
        print(f"deltamin {args.command}: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: stop quietly, with stdout on devnull so that
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
