"""The paper's structural facts as property checks.

Each check takes the graphs or witnesses it checks and returns how many
items it checked and one message per failure.  `deltamin suite` and the
acceptance tests run the same checks and differ only in the corpus, seed
and trial counts they pass.  Witnesses of a cubic corpus are keyed by
(n, index in enumeration order).
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from .colouring import properize
from .colours import Colour, ColouringKind, EdgeColouring
from .exact import SolveResult, solve_exact
from .generators import make_named, random_subcubic
from .graphs import Graph, enumerate_cubic
from .solver import enumerate_two_factors, resistance_exact
from .structure import classify_delta_edges, parity_signature

Outcome = tuple[int, list[str]]
Witnesses = Mapping[tuple[int, int], SolveResult]

GOLDEN_VALUES = (("k4", None, 0), ("k33", None, 0), ("cycle", 5, 0), ("petersen", None, 2))
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5}


def cubic_corpus() -> dict[int, list[Graph]]:
    """Every connected cubic graph on 4, 6, 8 and 10 vertices."""
    return {n: list(enumerate_cubic(n)) for n in (4, 6, 8, 10)}


def solve_corpus(corpus: Mapping[int, list[Graph]]) -> dict[tuple[int, int], SolveResult]:
    return {(n, i): solve_exact(g) for n, graphs in corpus.items() for i, g in enumerate(graphs)}


def _random_graph(rng: random.Random, sizes: range) -> Graph:
    return random_subcubic(rng.randrange(sizes.start, sizes.stop), rng.randrange(2**31))


def random_graphs(rng: random.Random, count: int, sizes: range) -> list[Graph]:
    return [_random_graph(rng, sizes) for _ in range(count)]


def random_improper_colourings(rng: random.Random, count: int, sizes: range) -> list[EdgeColouring]:
    """Per trial a random graph, then its edges in order, each coloured delta
    or a proper colour still free at both ends, so that only delta clashes."""
    out = []
    for _ in range(count):
        g = _random_graph(rng, sizes)
        used: list[set[Colour]] = [set() for _ in range(g.vertex_count)]
        colours = []
        for u, v in g.edges:
            col = rng.choice([c for c in Colour if c is Colour.DELTA or (c not in used[u] and c not in used[v])])
            colours.append(col)
            used[u].add(col)
            used[v].add(col)
        out.append(EdgeColouring(g, colours))
    return out


def golden_values() -> Outcome:
    """The published s of each named graph."""
    failures = []
    for name, k, want in GOLDEN_VALUES:
        got = solve_exact(make_named(name, k)).s_value
        if got != want:
            failures.append(f"{name}: s={got}, expected {want}")
    return len(GOLDEN_VALUES), failures


def enumeration_counts(corpus: Mapping[int, list[Graph]]) -> Outcome:
    """The known number of connected cubic graphs for n = 4, 6 and 8."""
    counts = {n: len(corpus[n]) for n in CUBIC_COUNTS}
    failures = [f"n={n}: {counts[n]} graphs, expected {want}" for n, want in CUBIC_COUNTS.items() if counts[n] != want]
    return sum(counts.values()), failures


def two_factor_bound(witnesses: Witnesses) -> Outcome:
    """Every 2-factor has at least s odd cycles; counts the 2-factors."""
    checked, failures = 0, []
    for (n, i), result in witnesses.items():
        for f in enumerate_two_factors(result.witness.graph):
            checked += 1
            if f.odd_cycle_count() < result.s_value:
                failures.append(f"n={n} graph {i}: 2-factor with {f.odd_cycle_count()} odd cycles < s={result.s_value}")
    return checked, failures


def resistance_equivalence(witnesses: Witnesses, graphs: Iterable[Graph]) -> Outcome:
    """resistance_exact equals s on every witness, and on each further graph."""
    cases = [(f"cubic n={n} graph {i}", r.witness.graph, r.s_value) for (n, i), r in witnesses.items()]
    cases += [(f"random trial {t}", g, solve_exact(g).s_value) for t, g in enumerate(graphs)]
    failures = []
    for label, g, s in cases:
        got = resistance_exact(g)
        if got != s:
            failures.append(f"{label}: resistance {got} != s {s}")
    return len(cases), failures


def parity_signatures(witnesses: Witnesses) -> Outcome:
    """|A| ≡ |B| ≡ |C| ≡ s (mod 2) on every witness with s >= 1."""
    solved = [(key, r.witness) for key, r in witnesses.items() if r.s_value > 0]
    failures = [
        f"n={n} graph {i}: parity violated"
        for (n, i), w in solved
        if not parity_signature(classify_delta_edges(w)).parity_ok
    ]
    return len(solved), failures


def properize_contract(colourings: list[EdgeColouring]) -> Outcome:
    """properize returns a proper colouring whose delta class is a subset of
    the input's, and a proper subset when delta clashed."""
    failures = []
    for trial, before in enumerate(colourings):
        after = properize(before)
        if after.classification() is not ColouringKind.PROPER:
            failures.append(f"trial {trial}: output not proper")
            continue
        b, a = before.colour_class(Colour.DELTA), after.colour_class(Colour.DELTA)
        if not a <= b:
            failures.append(f"trial {trial}: delta class not a subset")
        if before.classification() is ColouringKind.DELTA_IMPROPER and not a < b:
            failures.append(f"trial {trial}: delta class did not shrink")
    return len(colourings), failures
