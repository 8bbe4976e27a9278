"""The traced run: the CLI's per-graph calls replayed in-process, one span
per call into a package layer.

Top-level calls (the ones the CLI makes itself) are traced by calling the
wrapped function directly.  Calls one layer makes into another are caught
by swapping the module attribute the caller looks up, and only while a
traced run is in progress.  Spans stay in memory until the replay ends,
then are written out in one piece.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from corpus import Item

# (module attribute swapped, span name): cross-layer calls made from
# inside the package
CROSS_LAYER = (
    ("solver", "find_two_factor", "solver.find_two_factor"),
    ("solver", "lemma1_colouring", "solver.lemma1_colouring"),
    ("solver", "properize", "colouring.properize"),
    ("solver", "kempe_decompose", "colouring.kempe_decompose"),
    ("solver", "kempe_swap", "colouring.kempe_swap"),
    ("graphs", "isomorphic", "graphs.isomorphic"),
)

# every traced function, by span name; each gets .calls and .busy_s
TRACED = (
    "graphs.parse_graph6",
    "graphs.enumerate_cubic",
    "graphs.isomorphic",
    "graphs.emit_graph6",
    "solver.solve_exact",
    "solver.heuristic_descent",
    "solver.find_two_factor",
    "solver.lemma1_colouring",
    "colouring.properize",
    "colouring.kempe_decompose",
    "colouring.kempe_swap",
    "structure.verify_theorem1",
    "structure.classify_delta_edges",
    "structure.parity_signature",
)
# traced functions with traced children; these also get .self_s
PARENTS = ("solver.heuristic_descent", "graphs.enumerate_cubic")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level call
    graph: int  # corpus index of the graph being processed, -1 if none
    result: object = None  # kept for boolean results only


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.graph = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.graph)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if type(result) is bool:
                span.result = result
            return result

        return traced

    @contextmanager
    def patched(self, dm):
        """Swap the cross-layer module attributes for traced wrappers."""
        saved = []
        try:
            for module, attr, name in CROSS_LAYER:
                mod = getattr(dm, module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def metrics(self) -> dict[str, float]:
        durations: dict[str, list[float]] = {name: [] for name in TRACED}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            durations[span.name].append(span.end - span.start)
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = len(durations[name])
            out[f"{name}.busy_s"] = sum(durations[name])
        for name in PARENTS:
            out[f"{name}.self_s"] = sum(
                s.end - s.start - child_time[i] for i, s in enumerate(self.spans) if s.name == name
            )
        solves = sorted(durations["solver.solve_exact"])
        out["solver.solve_exact.p50_ms"] = 1e3 * solves[len(solves) // 2] if solves else 0.0
        # tail: the highest percentile with at least ten calls beyond it,
        # which is 100 * (calls - 10) / calls; 0 when there are under 11 calls
        out["solver.solve_exact.tail_ms"] = 1e3 * solves[-11] if len(solves) >= 11 else 0.0
        iso = [s.result for s in self.spans if s.name == "graphs.isomorphic"]
        out["graphs.isomorphic.true_ratio"] = sum(1 for r in iso if r) / len(iso) if iso else 0.0
        return out

    def top_level_busy(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


def write_spans(path, tracers: list[Tracer]) -> None:
    """The spans of every replay as JSON, one list per replay; a span is
    [name, start, end, parent, graph, result]."""
    path.write_text(json.dumps([[dataclasses.astuple(s) for s in t.spans] for t in tracers]))


# ---------------------------------------------------------------------------
# replays of the CLI's per-graph calls


def replay_solve(dm, tracer: Tracer, items: list[Item], exact_limit: int, analyze: bool) -> None:
    """solve (and analyze) as the CLI runs them, graph by graph.  analyze
    parses each graph twice, as the CLI does."""
    parse = tracer.wrap("graphs.parse_graph6", dm.graphs.parse_graph6)
    solve_exact = tracer.wrap("solver.solve_exact", dm.solver.solve_exact)
    descent = tracer.wrap("solver.heuristic_descent", dm.solver.heuristic_descent)
    verify = tracer.wrap("structure.verify_theorem1", dm.structure.verify_theorem1)
    classify = tracer.wrap("structure.classify_delta_edges", dm.structure.classify_delta_edges)
    parity = tracer.wrap("structure.parity_signature", dm.structure.parity_signature)
    for index, it in enumerate(items):
        tracer.graph = index
        g = parse(it.g6)
        if analyze:
            g = parse(it.g6)
        result = solve_exact(g) if g.vertex_count <= exact_limit else descent(g, seed=0)
        if analyze:
            witness = dm.EdgeColouring(g, list(result.witness.colours))
            verify(witness)
            if g.is_cubic() and result.method is dm.Method.EXACT and result.s_value > 0:
                parity(classify(witness))
    tracer.graph = -1


def replay_generate(dm, tracer: Tracer, n: int) -> int:
    """generate --cubic n: the whole enumeration, then one emit per graph."""
    enumerate_all = tracer.wrap("graphs.enumerate_cubic", lambda k: list(dm.graphs.enumerate_cubic(k)))
    emit = tracer.wrap("graphs.emit_graph6", dm.graphs.emit_graph6)
    graphs = enumerate_all(n)
    for index, g in enumerate(graphs):
        tracer.graph = index
        emit(g)
    tracer.graph = -1
    return len(graphs)


# ---------------------------------------------------------------------------
# pathology probes


class _Capped(Exception):
    pass


def _alarm(signum, frame):
    raise _Capped


def capped(fn: Callable, cap_s: float) -> tuple[float, object]:
    """Run fn under a wall-clock cap; (elapsed seconds, result or None when
    the cap was hit)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Capped:
        result = None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, result
