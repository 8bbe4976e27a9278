"""Batch command-line front end.

Subcommands: solve, verify, analyze, generate, suite.  Graphs stream in as
graph6 lines (or a single edge-list file), reports stream out as JSON lines;
solve also offers CSV and DOT.  Input "-" reads standard input.  The env
var DELTAMIN_LOG sets log verbosity (DEBUG, INFO, ...).

solve, analyze and verify share one entry, cmd_batch, which maps one
per-graph function over the input, in this process or, with --jobs, in
workers forked with os.fork that are sent chunks of graphs one at a time;
a dead worker, or one that cannot be forked, stops the batch (exit 2), and
without os.fork the batch runs here.  A graph6 file is counted first, so
that the chunk size and verify's check for surplus colourings come before
any output, and is then read line by line as its graphs are run, so
memory does not grow with its length; standard input and FIFOs are read
whole.  Before the workers fork cmd_batch imports the solver unless it
verifies, and the structure layer unless it solves; generate starts
without either, and only suite loads the property checks.

All records are emitted in input order with sorted keys, so output is
byte-stable for a fixed (input, config, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import random
import stat
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

from . import graphs as graphlib
from .errors import BatchError, DeltaMinError, DomainError, GraphFormatError
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
        raise BatchError(f"cannot read {path}: {exc.strerror or exc}") from None


def _nonblank(pieces: Iterable[str]) -> Iterator[str]:
    """The non-blank lines of a text given in pieces that each end at a line
    boundary, as str.splitlines splits the text."""
    for piece in pieces:
        for line in piece.splitlines():
            if line.strip():
                yield line


class _Lines:
    """The non-blank lines of a file, or of standard input for "-", decoded
    as _read_text decodes it and split as str.splitlines splits it.  Their
    number, len(), is known before the first is read: a regular file is read
    once to count them and again, line by line, as they are used; standard
    input and files that cannot be read twice (a FIFO) are read whole.  A
    regular file whose count changes in between stops the batch."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[TextIO] = None
        self._held: Optional[list[str]] = None
        if path == "-":
            self._held = list(_nonblank([_read_text(path)]))
            self._count = len(self._held)
            return
        try:
            # with newline="" a piece ends at "\n", "\r" or "\r\n", never
            # between "\r" and "\n"
            self._file = open(path, encoding="utf-8", errors="surrogateescape", newline="")
            if stat.S_ISREG(os.fstat(self._file.fileno()).st_mode):
                self._count = sum(1 for _ in _nonblank(self._file))
                self._file.seek(0)
            else:
                self._held = list(_nonblank(self._file))
                self._count = len(self._held)
        except OSError as exc:
            self.close()
            raise BatchError(f"cannot read {path}: {exc.strerror or exc}") from None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        if self._held is not None:
            yield from self._held
            return
        read = 0
        for line in _nonblank(self._file):
            read += 1
            if read > self._count:
                break
            yield line
        if read != self._count:
            raise BatchError(f"{self.path} changed while it was read ({self._count} lines when counted)")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> _Lines:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# solve, analyze and verify: one pipeline that parses, solves or verifies, and
# renders each graph

# One graph's output text (empty for a failed graph outside JSON), its error
# message or None, and whether it passed (for analyze: every clause holds).
Output = tuple[str, Optional[str], bool]

# keyed by colour code letter
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
    edges = zip(g.edges, result.witness.codes)
    body = "".join(f"  {u} -- {v} [{_DOT_EDGE_STYLE[k]}];\n" for (u, v), k in edges)
    return f"graph g{index} {{\n  // {stats}\n{body}}}\n"


def _render(cfg: RunConfig, index: int, g: Graph) -> Output:
    # cmd_batch has loaded these modules
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
        "colours": list(result.witness.codes),
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
        g = parse_graph6(payload) if cfg.format == "graph6" else parse_edge_list(payload)
    except DeltaMinError as exc:
        return _error_output(cfg, index, str(exc), exc.offset if isinstance(exc, GraphFormatError) else None)
    try:
        if cfg.command == "verify":
            return _verify_output(cfg, index, g, colouring)
        return _render(cfg, index, g)
    except Exception as exc:  # one graph's failure must not lose the rest of the batch
        _log().exception("graph %d", index)
        return _error_output(cfg, index, f"{type(exc).__name__}: {exc}", None)


# A chunk for a worker closes at this much input text (graph6 is ASCII, so
# bytes), even short of its graph count.  64 KiB, one pipe buffer, is the
# text of one graph of about 900 vertices, whose parse and solve outweigh a
# chunk's round trip (a pickle, a pipe write, a select wake-up: tens of
# microseconds) many times over; a chunk of thousands of small graphs stays
# under it.  The input text held at once is then at most the window of
# 2 * workers chunks times (64 KiB + the longest line).
_CHUNK_TEXT = 1 << 16


def _chunks(n: int, jobs: int) -> tuple[int, int]:
    """The chunk size and the number of workers for n graphs at --jobs jobs;
    no more workers start than there are chunks."""
    size = -(-n // (4 * jobs)) or 1
    return size, min(jobs, -(-n // size))


def _chunked(rows: Iterator[tuple], size: int) -> Iterator[list[tuple]]:
    """The rows in lists of size rows, each closed early once the text of
    its graphs and colourings reaches _CHUNK_TEXT; a row is read only when
    the next list is asked for."""
    chunk: list[tuple] = []
    text = 0
    for row in rows:
        chunk.append(row)
        text += len(row[1]) + len(row[2] or "")
        if len(chunk) == size or text >= _CHUNK_TEXT:
            yield chunk
            chunk, text = [], 0
    if chunk:
        yield chunk


def _outputs(cfg: RunConfig, graphs: _Lines | list[str], colourings: _Lines | list[str]) -> Iterator[Output]:
    """Each graph's output, in input order; verify checks the i-th graph
    against the i-th colouring, or None past the last.  Above --jobs 1
    forked workers are handed contiguous chunks of ceil(n / (4 * jobs))
    graphs (fewer when their text reaches _CHUNK_TEXT) one at a time: about
    four chunks per worker keep the load even when slow graphs bunch
    together, yet cost few round trips.  A chunk's lines are read from the
    input only when a worker takes it (see deltamin.workers), and in this
    process each line only when its graph is run, so the input held does
    not grow with its length.  A dead worker stops the batch after the
    chunks before its own.  A batch that would start fewer than two
    workers, or that runs where os.fork does not exist, runs in this
    process.  A graph's text depends only on its line and the config, so
    output does not depend on --jobs."""
    run = functools.partial(_graph_output, cfg)
    # zip_longest reads both inputs to their end, where _Lines checks its count
    pairs = itertools.zip_longest(graphs, colourings)
    rows = ((index, graph, colouring) for index, (graph, colouring) in enumerate(pairs))
    size, workers = _chunks(len(graphs), cfg.jobs)
    if workers < 2 or not hasattr(os, "fork"):
        yield from itertools.starmap(run, rows)
        return
    # imported here so that a batch without workers does not compile it
    from .workers import fork_map

    for chunk in fork_map(run, _chunked(rows, size), workers):
        yield from chunk


def cmd_batch(cfg: RunConfig, colouring_path: Optional[str] = None, out: Optional[TextIO] = None) -> int:
    """Solve, analyze (solve, verify the witness and report parity) or verify
    each graph, one record per graph.  graph6 input holds one graph per
    non-blank line, an edge-list file a single graph; verify checks each
    graph against the colouring line at its position in colouring_path,
    which may hold fewer lines than there are graphs but not more."""
    # imported before the workers fork, so that they do not import them again
    if cfg.command != "verify":
        from . import solver  # noqa: F401
    if cfg.command != "solve":
        from . import structure  # noqa: F401

    if cfg.input_path == "-" and colouring_path == "-":
        raise BatchError("graphs and colourings cannot both be read from standard input")
    path = cfg.input_path or "-"
    with contextlib.ExitStack() as inputs:
        graphs = inputs.enter_context(_Lines(path)) if cfg.format == "graph6" else [_read_text(path)]
        colourings = inputs.enter_context(_Lines(colouring_path)) if colouring_path is not None else []
        if len(colourings) > len(graphs):
            raise BatchError(f"{colouring_path} holds {len(colourings)} colourings for {len(graphs)} graphs")
        out = out if out is not None else sys.stdout
        if cfg.output == "csv":
            out.write("name,n,m,s,method\n")
        status = 0
        # the loop alone holds the outputs, so an exception that leaves it
        # closes them at once, which stops and reaps any workers
        for index, (text, error, passed) in enumerate(_outputs(cfg, graphs, colourings)):
            out.write(text)
            if error is not None:
                _log().error("graph %d: %s", index, error)
            if not passed:
                status = 1
    return status


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Write each graph as it is made.  Every argument is checked before the
    first graph, so an error exits 2 with no output."""
    out = out if out is not None else sys.stdout
    emitted: Iterable[Graph]
    try:
        if args.named is not None:
            # cycle k has k vertices, flower k has 4k, the fixed graphs few
            n = {"cycle": 1, "flower": 4}.get(args.named.strip().lower(), 0) * (args.size or 0)
            if n > graphlib.G6_MAX_VERTICES:
                raise DomainError(f"graph6 encodes at most {graphlib.G6_MAX_VERTICES} vertices, not {n}")
            emitted = [make_named(args.named, args.size)]
        elif args.cubic is not None:
            emitted = enumerate_cubic(args.cubic)
        else:
            if args.count < 0:
                raise DomainError("--count must be non-negative")
            if args.random < 1:
                raise DomainError("need at least one vertex")
            if args.random > graphlib.G6_MAX_VERTICES:
                raise DomainError(f"graph6 encodes at most {graphlib.G6_MAX_VERTICES} vertices, not {args.random}")
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


def _add_input(p: argparse.ArgumentParser) -> None:
    """A batch command's input, --format and --jobs."""
    p.add_argument("input_path", metavar="input", help="input path, or - for standard input")
    p.add_argument(
        "--format", choices=("graph6", "edgelist"), default="graph6",
        help="input encoding (graph6: one graph per line)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes for independent graphs",
    )


def _add_solving(p: argparse.ArgumentParser) -> None:
    """--exact-limit and --seed, for the commands that solve."""
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
    _add_input(p_solve)
    _add_solving(p_solve)
    p_solve.add_argument(
        "--out", dest="output", choices=("json", "csv", "dot"), default="json",
        help="report format",
    )

    p_verify = sub.add_parser("verify", help="check structural clauses of witness colourings")
    _add_input(p_verify)
    p_verify.add_argument(
        "--colouring", required=True, metavar="PATH",
        help="JSON-lines colouring file aligned with the input graphs; "
        "colours are positional over the parsed graph's edge order, "
        "which for graph6 input is the solve command's order",
    )

    p_analyze = sub.add_parser("analyze", help="solve, verify, and report parity per graph")
    _add_input(p_analyze)
    _add_solving(p_analyze)

    p_gen = sub.add_parser("generate", help="emit graph6 corpora")
    what = p_gen.add_mutually_exclusive_group(required=True)
    what.add_argument("--named", metavar="NAME", help=f"one of: {', '.join(graphlib.NAMED_GRAPHS)}")
    what.add_argument("--cubic", type=int, metavar="N", help="all connected cubic graphs on N vertices")
    what.add_argument("--random", type=int, metavar="N", help="random subcubic graphs on N vertices")
    p_gen.add_argument("--size", type=int, default=None, metavar="K", help="parameter for sized named graphs")
    p_gen.add_argument("--count", type=int, default=1, metavar="C", help="number of random graphs")
    p_gen.add_argument("--seed", type=int, default=0, metavar="S")

    p_suite = sub.add_parser("suite", help="run the self-check property suites")
    _add_solving(p_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if "DELTAMIN_LOG" in os.environ:
        _log()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    # every argument but verify's colouring file is a RunConfig field
    colouring_path = vars(args).pop("colouring", None)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if cfg.command == "suite":
            return cmd_suite(cfg)
        return cmd_batch(cfg, colouring_path)
    except BatchError as exc:
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
