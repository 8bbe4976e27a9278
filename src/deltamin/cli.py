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
any output; each walk of it then opens it again and reads it line by line
as its graphs are run, so memory does not grow with its length.  Standard
input and other inputs that cannot be read twice (a FIFO, <(...)) are read
whole and held as one string.  Before the workers fork cmd_batch imports
the exact search (deltamin.exact) unless it verifies, and the structure
layer unless it solves; the heuristic (deltamin.solver) is imported at the
first graph above --exact-limit, so a solve within the limit never compiles
it, nor the Kempe toolkit of deltamin.colouring.  generate imports the
instance generators (deltamin.generators) and none of the solving modules,
and suite runs the property checks of deltamin.checks, which no other
command loads.

All records are emitted in input order with sorted keys, so output is
byte-stable for a fixed (input, config, seed).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import os
import stat
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

from . import graphs as graphlib
from .errors import BatchError, DeltaMinError, DomainError, GraphFormatError
from .graphs import Graph, parse_edge_list, parse_graph6

if TYPE_CHECKING:
    import logging

    from .exact import SolveResult

DEFAULT_EXACT_LIMIT = 14


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
    once to count them and read again, line by line, by each walk, which
    opens its own reader; standard input and other inputs that cannot be
    read twice (a FIFO, <(...)) are held as one string.  A regular file
    whose count changes before a walk ends stops the batch."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._text: Optional[str] = None
        try:
            if path == "-" or not stat.S_ISREG(os.stat(path).st_mode):
                self._text = _read_text(path)
            with self._reader() as reader:
                self._count = sum(1 for _ in _nonblank(reader))
        except OSError as exc:
            raise BatchError(f"cannot read {path}: {exc.strerror or exc}") from None

    def _reader(self) -> TextIO:
        """A new reader of the input, from its start."""
        # with newline="" a piece ends at "\n", "\r" or "\r\n", never
        # between "\r" and "\n"
        if self._text is not None:
            return io.StringIO(self._text, newline="")
        return open(self.path, encoding="utf-8", errors="surrogateescape", newline="")

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        try:
            reader = self._reader()
        except OSError as exc:
            raise BatchError(f"cannot read {self.path}: {exc.strerror or exc}") from None
        read = 0
        with reader:
            for line in _nonblank(reader):
                read += 1
                if read > self._count:
                    break
                yield line
        if read != self._count:
            raise BatchError(f"{self.path} changed while it was read ({self._count} lines when counted)")


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


def _solve_line(index: int, g: Graph, result: SolveResult) -> str:
    """A solve record, byte for byte as _json_line writes it, from one
    format string with the keys in sorted order: every value is an integer
    or a string that JSON prints as it is."""
    codes = result.witness.codes
    colours = '["' + '","'.join(codes) + '"]' if codes else "[]"
    return (
        f'{{"colours":{colours},"index":{index},"m":{g.edge_count},'
        f'"method":"{result.method.value}","n":{g.vertex_count},"s":{result.s_value}}}\n'
    )


def _dot_block(index: int, g: Graph, result: SolveResult) -> str:
    stats = f"n={g.vertex_count} m={g.edge_count} s={result.s_value} method={result.method.value}"
    edges = zip(g.edges, result.witness.codes)
    body = "".join(f"  {u} -- {v} [{_DOT_EDGE_STYLE[k]}];\n" for (u, v), k in edges)
    return f"graph g{index} {{\n  // {stats}\n{body}}}\n"


def _render(args: argparse.Namespace, index: int, g: Graph) -> Output:
    # cmd_batch has loaded the exact search, so this is a lookup
    from . import exact

    if g.vertex_count <= args.exact_limit:
        result = exact.solve_exact(g)
    else:
        # imported at the first graph above the limit, so that a batch
        # within it never compiles the heuristic
        from . import solver

        result = solver.heuristic_descent(g, seed=args.seed)
    if args.output == "csv":
        row = f"g{index},{g.vertex_count},{g.edge_count},{result.s_value},{result.method.value}\n"
        return row, None, True
    if args.output == "dot":
        return _dot_block(index, g, result), None, True
    if args.command != "analyze":
        return _solve_line(index, g, result), None, True
    from .structure import verify_theorem1

    rec = {
        "index": index,
        "n": g.vertex_count,
        "m": g.edge_count,
        "s": result.s_value,
        "method": result.method.value,
        "colours": list(result.witness.codes),
    }
    report = verify_theorem1(result.witness)
    rec["verification"] = report.to_dict()
    rec["parity"] = None
    if g.is_cubic() and result.method is exact.Method.EXACT and result.s_value > 0:
        # on a cubic graph every delta edge of a delta-minimum witness lies
        # in exactly one class, so the report's counts partition s
        rec["parity"] = {
            "counts": [report.counts[cls] for cls in "ABC"],
            "parity_ok": report.clause("parity_congruence").passed,
        }
    return _json_line(rec), None, report.all_pass


def _verify_output(args: argparse.Namespace, index: int, g: Graph, colouring: Optional[str]) -> Output:
    if colouring is None:
        return _error_output(args, index, "no colouring line for this graph", None)
    from .colouring import EdgeColouring
    from .structure import verify_theorem1

    try:
        report = verify_theorem1(EdgeColouring.from_json(g, colouring))
    except DeltaMinError as exc:
        return _error_output(args, index, str(exc), None)
    rec = report.to_dict()
    rec["index"] = index
    return _json_line(rec), None, report.all_pass


def _error_output(args: argparse.Namespace, index: int, message: str, offset: Optional[int]) -> Output:
    rec: dict = {"index": index, "error": message}
    if args.command == "solve":
        rec["offset"] = offset
    return (_json_line(rec) if args.output == "json" else ""), message, False


def _graph_output(args: argparse.Namespace, index: int, payload: str, colouring: Optional[str]) -> Output:
    try:
        try:
            g = parse_graph6(payload) if args.format == "graph6" else parse_edge_list(payload)
        except DeltaMinError as exc:
            return _error_output(args, index, str(exc), exc.offset if isinstance(exc, GraphFormatError) else None)
        if args.command == "verify":
            return _verify_output(args, index, g, colouring)
        return _render(args, index, g)
    except Exception as exc:  # a failure in one graph, parse included, must not lose the rest of the batch
        _log().exception("graph %d", index)
        return _error_output(args, index, f"{type(exc).__name__}: {exc}", None)


# A chunk for a worker closes at this much input text (graph6 is ASCII, so
# bytes), even short of its graph count.  64 KiB, one pipe buffer, is the
# text of one graph of about 900 vertices, whose parse and solve outweigh a
# chunk's round trip (a marshal frame, a pipe write, a poll wake-up: tens of
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


def _outputs(
    args: argparse.Namespace, graphs: _Lines | list[str], colourings: _Lines | list[str]
) -> Iterator[Output]:
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
    run = functools.partial(_graph_output, args)
    # zip_longest reads both inputs to their end, where _Lines checks its count
    pairs = itertools.zip_longest(graphs, colourings)
    rows = ((index, graph, colouring) for index, (graph, colouring) in enumerate(pairs))
    size, workers = _chunks(len(graphs), args.jobs)
    if workers < 2 or not hasattr(os, "fork"):
        yield from itertools.starmap(run, rows)
        return
    # imported here so that a batch without workers does not compile it
    from .workers import fork_map

    for chunk in fork_map(run, _chunked(rows, size), workers):
        yield from chunk


def cmd_batch(args: argparse.Namespace) -> int:
    """Solve, analyze (solve, verify the witness and report parity) or verify
    each graph, one record per graph.  graph6 input holds one graph per
    non-blank line, an edge-list file a single graph; verify checks each
    graph against the colouring line at its position in args.colouring,
    which may hold fewer lines than there are graphs but not more.  Both
    inputs are counted here, and each is opened again only by its walk,
    which closes it when it ends or is dropped."""
    # imported before the workers fork, so that they do not import them again
    if args.command != "verify":
        from . import exact  # noqa: F401
    if args.command != "solve":
        from . import structure  # noqa: F401

    if args.input_path == "-" and args.colouring == "-":
        raise BatchError("graphs and colourings cannot both be read from standard input")
    graphs = _Lines(args.input_path) if args.format == "graph6" else [_read_text(args.input_path)]
    colourings = _Lines(args.colouring) if args.colouring is not None else []
    if len(colourings) > len(graphs):
        raise BatchError(f"{args.colouring} holds {len(colourings)} colourings for {len(graphs)} graphs")
    out = sys.stdout
    if args.output == "csv":
        out.write("name,n,m,s,method\n")
    status = 0
    # the loop alone holds the outputs, so an exception that leaves it
    # closes them at once, which stops and reaps any workers
    for index, (text, error, passed) in enumerate(_outputs(args, graphs, colourings)):
        out.write(text)
        if error is not None:
            _log().error("graph %d: %s", index, error)
        if not passed:
            status = 1
    return status


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    """Write each graph as it is made.  Every argument is checked before the
    first graph, so an error exits 2 with no output.  Each kind of graph
    imports its own generator, so --cubic compiles neither of the others."""
    out = sys.stdout
    emitted: Iterable[Graph]
    try:
        # each of these sets up one kind of graph, and is refused with another
        for flag, value, kind in (("size", args.size, "named"), ("count", args.count, "random"),
                                  ("seed", args.seed, "random")):
            if value is not None and getattr(args, kind) is None:
                raise DomainError(f"--{flag} applies only to --{kind}")
        if args.named is not None:
            # cycle k has k vertices, flower k has 4k, the fixed graphs few
            n = {"cycle": 1, "flower": 4}.get(args.named.strip().lower(), 0) * (args.size or 0)
            if n > graphlib.G6_MAX_VERTICES:
                raise DomainError(f"graph6 encodes at most {graphlib.G6_MAX_VERTICES} vertices, not {n}")
            from .generators import make_named

            emitted = [make_named(args.named, args.size)]
        elif args.cubic is not None:
            emitted = graphlib.enumerate_cubic(args.cubic)
        else:
            count = 1 if args.count is None else args.count
            if count < 0:
                raise DomainError("--count must be non-negative")
            if args.random < 1:
                raise DomainError("need at least one vertex")
            if args.random > graphlib.G6_MAX_VERTICES:
                raise DomainError(f"graph6 encodes at most {graphlib.G6_MAX_VERTICES} vertices, not {args.random}")
            import random

            from .generators import random_subcubic

            rng = random.Random(f"generate:{args.seed or 0}")
            emitted = (
                random_subcubic(args.random, rng.randrange(2**31))
                for _ in range(count)
            )
    except DeltaMinError as exc:
        print(f"deltamin generate: {exc}", file=sys.stderr)
        return 2
    # block by block, so that a long line is never held whole
    for g in emitted:
        out.writelines(graphlib._g6_blocks(g))
        out.write("\n")
    return 0


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
    p_gen.add_argument("--size", type=int, metavar="K", help="parameter for sized named graphs")
    p_gen.add_argument("--count", type=int, metavar="C", help="number of random graphs")
    p_gen.add_argument("--seed", type=int, metavar="S")

    p_suite = sub.add_parser("suite", help="run the self-check property suites")
    _add_solving(p_suite)

    # for the batch commands whose subparser has no --out or --colouring
    parser.set_defaults(output="json", colouring=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if "DELTAMIN_LOG" in os.environ:
        _log()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    # verify has no --exact-limit and suite no --jobs
    if vars(args).get("exact_limit", DEFAULT_EXACT_LIMIT) < 4:
        parser.error("--exact-limit must be at least 4")
    if vars(args).get("jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    if args.command == "suite":
        # imported here so that the other commands do not load the checks
        from .checks import run_suite

        return run_suite(args.seed, args.exact_limit)
    try:
        return cmd_batch(args)
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
