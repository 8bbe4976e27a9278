"""Heuristic minimisation of the delta colour class, and the oracles.

The heuristic is for graphs above the exact limit: a 2-factor search
(find_two_factor, by Edmonds' blossom algorithm) gives cubic graphs the
odd-cycle colouring of lemma1_colouring, anything else starts from a
greedy colouring repaired by properize, and heuristic_descent improves the
start by Kempe moves.  Its results are upper bounds, labelled as such.

The oracles are exponential and serve as cross-checks only: resistance_exact
recomputes s(G) by plain edge deletions, and enumerate_two_factors lists
every 2-factor of a small cubic graph.

The exact search is deltamin.exact, which solve runs without compiling this
module; Method, SolveResult and solve_exact are imported here too.  The
module globals find_two_factor, lemma1_colouring, properize and kempe_* are
looked up at call time, so that a tracer can swap them by name.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

from .colouring import (
    ColourTable,
    kempe_decompose,  # noqa: F401  unused here: bench/tracing.py swaps solver.kempe_* by name
    kempe_swap,  # noqa: F401
    properize,
)
from .colours import CODES, ColouringKind, EdgeColouring
from .errors import DomainError, ResourceLimitError
# solve_exact is unused here: bench/tracing.py looks up solver.solve_exact
from .exact import Method, SolveResult, _three_edge_colouring, solve_exact  # noqa: F401
from .graphs import Graph

_TWO_FACTOR_VERTEX_LIMIT = 16


class TwoFactor(NamedTuple):
    """Spanning 2-regular subgraph of a cubic graph, as its cycle list plus
    the complementary perfect matching (edge ids)."""

    graph: Graph
    cycles: tuple[tuple[int, ...], ...]
    matching: frozenset[int]

    def odd_cycle_count(self) -> int:
        return sum(1 for cyc in self.cycles if len(cyc) % 2 == 1)


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


# ---------------------------------------------------------------------------
# 2-factors


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


def _cycles_of_complement(g: Graph, matching: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of the 2-regular graph left by removing a perfect
    matching from a cubic graph.  Cycles start at their smallest vertex and
    run towards the smaller neighbour; listed by smallest vertex."""
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in matching:
            nbrs[u].append(v)
            nbrs[v].append(u)
    cycles = []
    seen = [False] * g.vertex_count
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        prev, cur = start, min(nbrs[start])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            a, b = nbrs[cur]
            prev, cur = cur, b if a == prev else a
        cycles.append(tuple(cyc))
    return tuple(cycles)


def _augment(adj: list[list[int]], alive: list[bool], mate: list[int], root: int) -> bool:
    """Edmonds' blossom search (Paths, trees, and flowers, Canad. J. Math.
    1965) for an augmenting path from the exposed vertex root, within the
    alive vertices.  Augments mate along it and returns True, or returns
    False with mate unchanged.  O(n^2): O(n) per contracted blossom."""
    n = len(adj)
    base = list(range(n))  # base of the blossom each vertex is in
    parent = [-1] * n  # tree parent of each odd vertex
    even = [False] * n
    even[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[mate[b]]

    def mark(v: int, top: int, child: int, blossom: list[bool]) -> None:
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    for v in queue:  # the queue grows while it is read
        for to in adj[v]:
            if not alive[to] or base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                # an odd cycle: contract the blossom into its base
                top = lca(v, to)
                blossom = [False] * n
                mark(v, top, to, blossom)
                mark(to, top, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = top
                        if not even[i]:
                            even[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    while to != -1:  # flip the path back to root
                        back = mate[parent[to]]
                        mate[to], mate[parent[to]] = parent[to], to
                        to = back
                    return True
                even[mate[to]] = True
                queue.append(mate[to])
    return False


def _maximum_matching(adj: list[list[int]]) -> list[int]:
    """A maximum-cardinality matching as each vertex's mate (-1 when
    exposed): a greedy start, then one blossom search per exposed vertex.
    One pass is enough, as a vertex with no augmenting path gains none when
    others augment."""
    n = len(adj)
    alive = [True] * n
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for w in adj[v]:
                if mate[w] == -1:
                    mate[v], mate[w] = w, v
                    break
    for v in range(n):
        if mate[v] == -1:
            _augment(adj, alive, mate, v)
    return mate


def find_two_factor(g: Graph) -> Optional[TwoFactor]:
    """Some 2-factor of a cubic graph, or None when no perfect matching
    exists.  Non-cubic input returns None.

    The matching is the first one the backtracking _perfect_matchings
    yields (lowest uncovered vertex v, its neighbours w in adjacency order),
    found without backtracking.  A perfect matching of the uncovered
    vertices is kept, first built by Edmonds' algorithm.  The backtracking
    subtree under w holds a solution exactly when the uncovered vertices
    minus {v, w} have a perfect matching, so the first w for which they do
    is the one the backtracking commits to.  w = mate(v) always qualifies;
    another w does when one blossom search joins mate(v) and mate(w), the
    two vertices that dropping v and w leaves exposed.  O(n^3) in the worst
    case (at most n searches for the first matching and two per vertex
    after it, O(n^2) each), where the backtracking took exponential time on
    flower snarks.
    """
    if not g.is_cubic():
        return None
    n = g.vertex_count
    adj = [[w for w, _ in nbrs] for nbrs in g.adjacency]
    mate = _maximum_matching(adj)
    if -1 in mate:
        return None
    alive = [True] * n
    picked = []
    for v in range(n):
        if not alive[v]:
            continue
        alive[v] = False
        # mate[v] is an alive neighbour, so this loop always ends in a break
        for w, eid in g.adjacency[v]:
            if not alive[w]:
                continue
            if w == mate[v]:
                break
            a, b = mate[v], mate[w]
            alive[w] = False
            mate[a] = mate[b] = -1
            if _augment(adj, alive, mate, a):
                break
            mate[a], mate[b] = v, w
            alive[w] = True
        alive[w] = False
        mate[v], mate[w] = w, v
        picked.append(eid)
    matching = frozenset(picked)
    return TwoFactor(g, _cycles_of_complement(g, matching), matching)


def enumerate_two_factors(g: Graph) -> Iterator[TwoFactor]:
    """All 2-factors of a cubic graph (one per complementary perfect
    matching), in deterministic order."""
    if not g.is_cubic():
        raise DomainError("2-factors are only enumerated for cubic graphs")
    if g.vertex_count > _TWO_FACTOR_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"2-factor enumeration is limited to {_TWO_FACTOR_VERTEX_LIMIT} vertices"
        )
    for matching in _perfect_matchings(g):
        yield TwoFactor(g, _cycles_of_complement(g, matching), matching)


def lemma1_colouring(g: Graph, f: TwoFactor) -> EdgeColouring:
    """Colouring with one delta edge per odd cycle of the 2-factor.

    Cycle edges alternate alpha/beta starting from each cycle's smallest
    vertex along its smaller-id cycle edge; an odd cycle's closing edge at
    that vertex takes delta.  Matching edges take gamma.  The delta count
    therefore equals the number of odd cycles.
    """
    if not g.is_cubic():
        raise DomainError("needs a cubic graph")
    _validate_two_factor(g, f)
    codes = ["g"] * g.edge_count  # the matching's; every cycle edge is overwritten
    for cyc in f.cycles:
        root = min(cyc)
        ri = cyc.index(root)
        ordered = cyc[ri:] + cyc[:ri]
        first = g.edge_id(ordered[0], ordered[1])
        last = g.edge_id(ordered[-1], ordered[0])
        if last < first:
            ordered = (ordered[0],) + tuple(reversed(ordered[1:]))
        eids = [
            g.edge_id(ordered[i], ordered[(i + 1) % len(ordered)])
            for i in range(len(ordered))
        ]
        for i, eid in enumerate(eids):
            codes[eid] = "ab"[i % 2]
        if len(eids) % 2 == 1:
            codes[eids[-1]] = "d"
    return EdgeColouring(g, "".join(codes))


def _validate_two_factor(g: Graph, f: TwoFactor) -> None:
    if f.graph != g:
        raise DomainError("2-factor belongs to a different graph")
    seen: set[int] = set()
    cycle_eids: set[int] = set()
    for cyc in f.cycles:
        if len(cyc) < 3:
            raise DomainError("2-factor cycle shorter than a triangle")
        for i, v in enumerate(cyc):
            if v in seen:
                raise DomainError(f"vertex {v} appears twice in the 2-factor")
            seen.add(v)
            w = cyc[(i + 1) % len(cyc)]
            if not g.has_edge(v, w):
                raise DomainError(f"2-factor uses missing edge ({v}, {w})")
            cycle_eids.add(g.edge_id(v, w))
    if len(seen) != g.vertex_count:
        raise DomainError("2-factor does not span the graph")
    if cycle_eids | f.matching != set(range(g.edge_count)) or cycle_eids & f.matching:
        raise DomainError("matching must be the complement of the cycle edges")


# ---------------------------------------------------------------------------
# heuristic


# the lowest code below 3 missing from a bitmask of codes, or 3 (delta)
_FIRST_FREE = (0, 1, 0, 2, 0, 1, 0, 3)


def _greedy_improper(g: Graph) -> EdgeColouring:
    """First-fit over the proper colours, overflow to delta.

    Every clash in the result involves delta only, which is exactly what
    properize repairs.  One pass over the edges with a bitmask of the
    proper colours at each vertex."""
    used = [0] * g.vertex_count
    codes = []
    for u, v in g.edges:
        k = _FIRST_FREE[used[u] | used[v]]
        codes.append(CODES[k])
        if k < 3:
            used[u] |= 1 << k
            used[v] |= 1 << k
    return EdgeColouring(g, "".join(codes))


def _reduce_once(t: ColourTable) -> bool:
    """One strict improvement of the delta count, made in place; False when
    there is none.

    For each delta edge, ascending: recolour it directly when a colour is
    free at both ends, otherwise look for a two-colour pair whose Kempe
    paths end at the two endpoints separately; swapping one path aligns the
    missing colours.  O(1) per direct try and the path's length per Kempe
    try: the path is walked from u, and it is u's component of the
    pair's kempe_decompose.
    """
    at = t.at
    for e in t.deltas:
        u, v = t.graph.edges[e]
        u3, v3 = 3 * u, 3 * v
        for k in range(3):
            if at[u3 + k] < 0 and at[v3 + k] < 0:
                t.recolour({e: k})
                return True
        for x, y in ((0, 1), (0, 2), (1, 2)):
            if (at[u3 + x] < 0) == (at[u3 + y] < 0) or (at[v3 + x] < 0) == (at[v3 + y] < 0):
                continue
            far_end, path = t.path_from(u, x, y)
            if far_end == v:
                continue
            # u and v see different ones of x, y (seeing the same one would
            # leave the other free at both ends, taken above), so the swap
            # frees at u the colour v misses
            changes = {eid: y if t.code[eid] == x else x for eid in path}
            want = x if at[v3 + x] < 0 else y
            assert changes[path[0]] != want
            changes[e] = want
            t.recolour(changes)
            return True
    return False


def heuristic_descent(g: Graph, seed: int = 0, max_rounds: int = 64) -> SolveResult:
    """Upper bound on the minimum delta count by local search.

    Cubic graphs with a 2-factor start from the odd-cycle colouring (method
    TwoFactorUpperBound); everything else starts from greedy plus properize
    (method HeuristicUpperBound).  Each round makes the first strict
    improvement it finds, in this order: delta edges by ascending id; for
    each, a direct recolour with alpha, beta, then gamma, then a Kempe path
    swap on the pairs (alpha, beta), (alpha, gamma), (beta, gamma).  A round
    with none (a plateau) swaps a seeded random component of a random pair
    of the four colours, which may add delta edges.  The first colouring to
    reach the lowest count wins.  Deterministic for fixed (g, seed, max_rounds).

    The rounds run on a ColourTable, which keeps the delta edges ascending:
    an improving round costs the edges it looks at and moves, a plateau
    round one pass over the edges, a walk of each of the pair's chains, and
    a copy of the codes if its swap leaves the best state.
    """
    if max_rounds < 0:
        raise DomainError("max_rounds must be non-negative")
    rng = random.Random(f"descent:{seed}")
    factor = find_two_factor(g)
    if factor is not None:
        start = lemma1_colouring(g, factor)
        method = Method.TWO_FACTOR_UPPER_BOUND
    else:
        start = properize(_greedy_improper(g))
        method = Method.HEURISTIC_UPPER_BOUND
    table = ColourTable(start)
    # saved is None while the table holds the best state, else a copy of it
    best_count, saved = len(table.deltas), None
    for _ in range(max_rounds):
        if best_count == 0:
            break
        if not _reduce_once(table):
            # plateau: random Kempe swap, possibly worsening, to escape;
            # the codes 0-3 sample as list(Colour) would
            x, y = rng.sample(range(4), 2)
            components = table.components(x, y)
            if not components:
                continue
            if saved is None:
                saved = tuple(table.code)
            table.swap(components[rng.randrange(len(components))][2], x, y)
        if len(table.deltas) < best_count:
            best_count, saved = len(table.deltas), None
    witness = table.colouring(table.code if saved is None else saved)
    assert witness.classification() is ColouringKind.PROPER
    return SolveResult(best_count, witness, method)
