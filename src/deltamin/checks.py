"""The paper's structural facts as property checks, the exponential oracles
they compare against, and the suite that runs them.

Each check takes the graphs or witnesses it checks and returns how many
items it checked and one message per failure.  `deltamin suite` (run_suite)
and the acceptance tests run the same checks and differ only in the corpus,
seed and trial counts they pass.  Witnesses of a cubic corpus are keyed by
(n, index in enumeration order).

The oracles serve as cross-checks only: resistance_exact recomputes s(G) by
plain edge deletions, and enumerate_two_factors lists every 2-factor of a
small cubic graph.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .colouring import properize
from .colours import Colour, ColouringKind, EdgeColouring
from .errors import DomainError, ResourceLimitError
from .exact import SolveResult, _three_edge_colouring, solve_exact
from .generators import make_named, random_subcubic
from .graphs import Graph, enumerate_cubic
from .solver import TwoFactor, _cycles_of_complement
from .structure import classify_delta_edges, parity_signature

Outcome = tuple[int, list[str]]
Witnesses = Mapping[tuple[int, int], SolveResult]

GOLDEN_VALUES = (("k4", None, 0), ("k33", None, 0), ("cycle", 5, 0), ("petersen", None, 2))
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5}
_TWO_FACTOR_VERTEX_LIMIT = 16


# ---------------------------------------------------------------------------
# oracles


def resistance_exact(g: Graph) -> int:
    """Minimum number of edge deletions leaving a 3-edge-colourable graph.

    Deliberately unconstrained (plain subsets, no matching requirement, no
    candidate pruning) so it can serve as an independent cross-check of
    solve_exact; the two agree on every graph of maximum degree three.  It
    also keeps the k=1 level on cubic graphs, which solve_exact skips by the
    parity lemma, so that the cross-check keeps testing that skip.
    """
    for k in range(g.edge_count + 1):
        for subset in combinations(range(g.edge_count), k):
            if _three_edge_colouring(g, frozenset(subset)) is not None:
                return k
    raise AssertionError("unreachable: the empty graph is 3-edge-colourable")


def _perfect_matchings(g: Graph) -> Iterator[frozenset[int]]:
    """All perfect matchings, by backtracking on the lowest uncovered vertex.
    Exponential; only enumerate_two_factors, guarded to small graphs, uses it."""
    if g.vertex_count % 2:
        return
    covered = [False] * g.vertex_count
    picked: list[int] = []

    def grow() -> Iterator[frozenset[int]]:
        v = next((u for u in range(g.vertex_count) if not covered[u]), None)
        if v is None:
            yield frozenset(picked)
            return
        covered[v] = True
        for w, eid in g.adjacency[v]:
            if covered[w]:
                continue
            covered[w] = True
            picked.append(eid)
            yield from grow()
            picked.pop()
            covered[w] = False
        covered[v] = False

    yield from grow()


def enumerate_two_factors(g: Graph) -> Iterator[TwoFactor]:
    """All 2-factors of a cubic graph (one per complementary perfect
    matching), in deterministic order."""
    if not g.is_cubic():
        raise DomainError("2-factors are only enumerated for cubic graphs")
    if g.vertex_count > _TWO_FACTOR_VERTEX_LIMIT:
        raise ResourceLimitError(f"2-factor enumeration is limited to {_TWO_FACTOR_VERTEX_LIMIT} vertices")
    for matching in _perfect_matchings(g):
        yield TwoFactor(g, _cycles_of_complement(g, matching), matching)


# ---------------------------------------------------------------------------
# corpora and checks


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


# ---------------------------------------------------------------------------
# deltamin suite


def run_suite(seed: int, exact_limit: int) -> int:
    """Run the checks over the cubic corpus up to n=10, solved once, and
    seeded random graphs and colourings, one line per check; 1 if any
    fails.  A check that needs exact solving above exact_limit is skipped."""
    out = sys.stdout
    out.write("deltamin suite | enumeration: isomorphism-free (orderly breadth-first generation) | "
              f"seed={seed} exact-limit={exact_limit}\n")
    corpus = cubic_corpus()
    needs = max(corpus)
    witnesses = solve_corpus(corpus) if needs <= exact_limit else {}
    graphs = random_graphs(random.Random(f"suite:{seed}"), 100, range(4, 11))
    colourings = random_improper_colourings(random.Random(f"suite-properize:{seed}"), 200, range(2, 13))
    # (name, exact solving needed up to n, check, PASS detail given the count checked)
    suites = (
        ("golden-values", needs, golden_values, "{} named graphs"),
        ("enumeration-counts", 0, lambda: enumeration_counts(corpus), "{} graphs over n=4,6,8"),
        ("two-factor-bound", needs, lambda: two_factor_bound(witnesses),
         f"{len(witnesses)} graphs, {{}} two-factors"),
        ("resistance-equivalence", needs, lambda: resistance_equivalence(witnesses, graphs),
         "{} graphs (enumerated cubic + 100 random subcubic)"),
        ("parity-signature", needs, lambda: parity_signatures(witnesses), "{} witnesses with s >= 1"),
        ("properize-contract", 0, lambda: properize_contract(colourings), "{} random delta-improper colourings"),
    )
    status = 0
    for name, limit, run, detail in suites:
        if limit > exact_limit:
            out.write(f"suite {name}: SKIPPED (needs exact solving up to n={limit}, exact-limit={exact_limit})\n")
            continue
        checked, failures = run()
        if failures:
            more = f"; {len(failures) - 1} more" if len(failures) > 1 else ""
            out.write(f"suite {name}: FAIL ({failures[0]}{more})\n")
            status = 1
        else:
            out.write(f"suite {name}: PASS ({detail.format(checked)})\n")
    return status
