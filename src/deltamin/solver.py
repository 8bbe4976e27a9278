"""Exact and heuristic minimisation of the delta colour class.

The optimum s(G) is the smallest number of edges that must receive the
overflow colour delta in a proper 4-edge-colouring.  Equivalently it is the
smallest matching M such that G - M is 3-edge-colourable, which is how the
exact solver searches: matchings in increasing size, first hit wins.

Witness contract of the exact solver: for each size k the matchings come in
lexicographic order of their sorted edge ids, and the first one whose
complement is 3-edge-colourable wins.  That complement is coloured by a
backtrack that branches on the lowest-index uncoloured edge with the fewest
free colours and tries alpha < beta < gamma.  The backtrack also gives every
edge left with a single free colour that colour before branching again;
such forcing reaches one fixpoint (or one failure) in any order, so it
prunes work without moving a branch point or changing the first colouring
found.  At each branch point the backtrack also keeps only the lowest of the
free colours that no coloured edge uses yet (free colours already in use are
all kept): a dropped colour's subtree is the colour-swapped image of that
lowest one's, which was tried first and failed, so it fails too and the
first colouring found stays the same.  On a cubic graph the size k=1 is
skipped once k=0 has failed: by the parity lemma (Steffen, Measurements of
edge-uncolorability of cubic graphs, J. Graph Theory 2004) a 3-edge-colouring
of G - e leaves both ends of e missing the same colour, so G would be
3-edge-colourable itself.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .colouring import (
    NON_DELTA,
    Colour,
    ColouringKind,
    EdgeColouring,
    kempe_decompose,
    kempe_path_from,
    kempe_swap,
    properize,
)
from .errors import DomainError, ResourceLimitError
from .graphs import Graph, induced_subgraph

_TWO_FACTOR_VERTEX_LIMIT = 16


class Method(enum.Enum):
    EXACT = "Exact"
    TWO_FACTOR_UPPER_BOUND = "TwoFactorUpperBound"
    HEURISTIC_UPPER_BOUND = "HeuristicUpperBound"


@dataclass(frozen=True)
class SolveResult:
    s_value: int
    witness: EdgeColouring
    method: Method


@dataclass(frozen=True)
class TwoFactor:
    """Spanning 2-regular subgraph of a cubic graph, as its cycle list plus
    the complementary perfect matching (edge ids)."""

    graph: Graph
    cycles: tuple[tuple[int, ...], ...]
    matching: frozenset[int]

    def odd_cycle_count(self) -> int:
        return sum(1 for cyc in self.cycles if len(cyc) % 2 == 1)


# ---------------------------------------------------------------------------
# 3-edge-colouring search

_COLOUR_OF_BIT = {1: Colour.ALPHA, 2: Colour.BETA, 4: Colour.GAMMA}
_EXCLUDED = 8  # marks a deleted edge; never a colour bit


def _three_edge_colouring(
    g: Graph, excluded: frozenset[int] = frozenset()
) -> Optional[list[Optional[Colour]]]:
    """Proper 3-edge-colouring of g minus the excluded edges, or None.

    Positional over g's edges; excluded edges read None.  Iterative, with
    an explicit stack of branch points and a trail of coloured edges, so no
    recursion limit bounds the graph size.  Forcing, branch rule, colour
    order and symmetry rule are those of the witness contract in the module
    docstring.
    """
    ends = g.edges
    around: list[list[int]] = [[] for _ in range(g.vertex_count)]
    bit_of = [0] * g.edge_count  # colour bit per edge, 0 while uncoloured
    for e, (u, v) in enumerate(ends):
        if e in excluded:
            bit_of[e] = _EXCLUDED
        else:
            around[u].append(e)
            around[v].append(e)
    used = [0] * g.vertex_count  # bitmask of the colours present at each vertex
    trail: list[int] = []  # coloured edges, in colouring order

    def colour(e: int, bit: int) -> None:
        bit_of[e] = bit
        u, v = ends[e]
        used[u] |= bit
        used[v] |= bit
        trail.append(e)

    def propagate(e: int) -> bool:
        todo = [e]
        while todo:
            for w in ends[todo.pop()]:
                for f in around[w]:
                    if bit_of[f]:
                        continue
                    x, y = ends[f]
                    free = 7 & ~(used[x] | used[y])
                    if not free:
                        return False
                    if not free & (free - 1):
                        colour(f, free)
                        todo.append(f)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            bit = bit_of[e]
            bit_of[e] = 0
            u, v = ends[e]
            used[u] &= ~bit
            used[v] &= ~bit

    def branch_edge() -> Optional[int]:
        # at a fixpoint an uncoloured edge has two free colours exactly
        # when one of its ends is coloured, and three otherwise
        fresh = None
        for e, (u, v) in enumerate(ends):
            if not bit_of[e]:
                if used[u] | used[v]:
                    return e
                if fresh is None:
                    fresh = e
        return fresh

    # branch points: [edge, trail length, colours left, colours in use]
    stack: list[list[int]] = []
    while True:
        e = branch_edge()
        if e is None:
            return [_COLOUR_OF_BIT.get(bit) for bit in bit_of]
        # forcing adds no colour while fewer than two are in use, so the
        # branch choices on the stack give the colours in use wherever that
        # matters; a third colour forced in leaves one unused, which is kept
        in_use = stack[-1][3] | bit_of[stack[-1][0]] if stack else 0
        u, v = ends[e]
        free = 7 & ~(used[u] | used[v])
        unused = free & ~in_use
        stack.append([e, len(trail), free & in_use | unused & -unused, in_use])
        while stack:
            point = stack[-1]
            e, mark, left, _ = point
            undo(mark)
            if not left:
                stack.pop()
                continue
            bit = left & -left
            point[2] = left ^ bit
            colour(e, bit)
            if propagate(e):
                break
        else:
            return None


def is_3_edge_colourable(g: Graph) -> Optional[EdgeColouring]:
    """A proper colouring using only alpha, beta, gamma, if one exists."""
    colours = _three_edge_colouring(g)
    return None if colours is None else EdgeColouring(g, colours)


# ---------------------------------------------------------------------------
# exact solver


def _matchings_of_size(g: Graph, candidates: list[int], k: int) -> Iterator[frozenset[int]]:
    """All k-edge matchings within the candidate edges, lexicographically."""
    picked: list[int] = []
    touched: set[int] = set()

    def grow(start: int) -> Iterator[frozenset[int]]:
        if len(picked) == k:
            yield frozenset(picked)
            return
        # not enough candidates left to finish
        for idx in range(start, len(candidates) - (k - len(picked)) + 1):
            e = candidates[idx]
            u, v = g.edges[e]
            if u in touched or v in touched:
                continue
            picked.append(e)
            touched.update((u, v))
            yield from grow(idx + 1)
            picked.pop()
            touched.difference_update((u, v))

    return grow(0)


def _solve_exact_connected(g: Graph) -> SolveResult:
    # an edge both of whose ends have degree at most two never needs delta:
    # a delta edge in a minimum colouring always has a fully saturated end
    candidates = [
        e
        for e, (u, v) in enumerate(g.edges)
        if g.degree(u) == 3 or g.degree(v) == 3
    ]
    # parity lemma: in a 3-edge-colouring of G - e both ends of e miss the
    # same colour, which e could then take; so a cubic G that fails k=0
    # fails k=1 too
    cubic = g.is_cubic()
    for k in range(len(candidates) + 1):
        if k == 1 and cubic:
            continue
        for matching in _matchings_of_size(g, candidates, k):
            partial = _three_edge_colouring(g, matching)
            if partial is None:
                continue
            colours = [Colour.DELTA if c is None else c for c in partial]
            return SolveResult(k, EdgeColouring(g, colours), Method.EXACT)
    raise AssertionError("unreachable: deleting a maximal matching leaves a 3-colourable graph")


def solve_exact(g: Graph) -> SolveResult:
    """Minimum delta count and a witness colouring, by exhaustive search.

    Works per connected component; the optimum is the sum of the components'
    optima.  First witness in deterministic search order wins, so repeated
    calls return identical colourings: the delta edges are the first
    matching, in lexicographic order within each size, whose complement is
    3-edge-colourable, and the rest is coloured by a most-constrained-edge
    backtrack (lowest edge id on ties, alpha < beta < gamma).  Forcing edges
    with one free colour does not change that first colouring, since the
    forcing fixpoint does not depend on its order.  Nor does breaking the
    alpha/beta/gamma symmetry: a branch point tries only the lowest of its
    free colours that the partial colouring does not use yet, since each
    other unused one would only repeat, colours swapped, a subtree that has
    already failed.  Cubic components skip
    the size-one matchings after size zero fails, by the parity lemma
    (Steffen, J. Graph Theory 2004): s(G) is never 1 on a cubic graph.
    """
    comps = g.components()
    if len(comps) <= 1:
        return _solve_exact_connected(g)
    total = 0
    colour_by_edge: dict[int, Colour] = {}
    for comp in comps:
        sub, _, edge_map = induced_subgraph(g, comp)
        result = _solve_exact_connected(sub)
        total += result.s_value
        for sub_eid, col in enumerate(result.witness.colours):
            colour_by_edge[edge_map[sub_eid]] = col
    witness = EdgeColouring(g, [colour_by_edge[e] for e in range(g.edge_count)])
    return SolveResult(total, witness, Method.EXACT)


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
    colours: dict[int, Colour] = {eid: Colour.GAMMA for eid in f.matching}
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
            colours[eid] = Colour.ALPHA if i % 2 == 0 else Colour.BETA
        if len(eids) % 2 == 1:
            colours[eids[-1]] = Colour.DELTA
    return EdgeColouring(g, [colours[e] for e in range(g.edge_count)])


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


def _greedy_improper(g: Graph) -> EdgeColouring:
    """First-fit over the proper colours, overflow to delta.

    Every clash in the result involves delta only, which is exactly what
    properize repairs."""
    used: list[set[Colour]] = [set() for _ in range(g.vertex_count)]
    out = []
    for u, v in g.edges:
        col = next(
            (c for c in NON_DELTA if c not in used[u] and c not in used[v]),
            Colour.DELTA,
        )
        out.append(col)
        used[u].add(col)
        used[v].add(col)
    return EdgeColouring(g, out)


def _delta_edges(colours: tuple[Colour, ...]) -> Iterator[int]:
    """Ids of the delta edges, ascending, found lazily by tuple.index."""
    e = -1
    while True:
        try:
            e = colours.index(Colour.DELTA, e + 1)
        except ValueError:
            return
        yield e


_PAIRS = ((Colour.ALPHA, Colour.BETA), (Colour.ALPHA, Colour.GAMMA), (Colour.BETA, Colour.GAMMA))


def _reduce_once(c: EdgeColouring) -> Optional[EdgeColouring]:
    """One strict improvement of the delta count, if available.

    For each delta edge: recolour directly when a colour is free at both
    ends, otherwise look for a two-colour pair whose Kempe paths end at the
    two endpoints separately; swapping one path aligns the missing colours.
    At most O(m) to find the delta edges, then O(1) per direct try and the
    path's length per Kempe try: the path is walked from u (kempe_path_from),
    and it is u's component of kempe_decompose(c, x, y).
    """
    g = c.graph
    colours = c.colours
    for e in _delta_edges(colours):
        u, v = g.edges[e]
        at_u = set(c.colours_at(u, skip=e))
        at_v = set(c.colours_at(v, skip=e))
        for col in NON_DELTA:
            if col not in at_u and col not in at_v:
                return c.with_colours({e: col})
        for x, y in _PAIRS:
            u_misses = (x in at_u) != (y in at_u)
            v_misses = (x in at_v) != (y in at_v)
            if not (u_misses and v_misses):
                continue
            far_end, path = kempe_path_from(c, u, x, y)
            if far_end == v:
                continue
            # u and v see different ones of x, y (seeing the same one would
            # leave the other free at both ends, taken above), so the swap
            # frees at u the colour v misses
            changes = {eid: y if colours[eid] is x else x for eid in path}
            want = x if x not in at_v else y
            assert changes[path[0]] is not want
            changes[e] = want
            return c.with_colours(changes)
    return None


def heuristic_descent(g: Graph, seed: int = 0, max_rounds: int = 64) -> SolveResult:
    """Upper bound on the minimum delta count by local search.

    Cubic graphs with a 2-factor start from the odd-cycle colouring (method
    TwoFactorUpperBound); everything else starts from greedy plus properize
    (method HeuristicUpperBound).  Rounds alternate strict Kempe
    improvements with seeded random swaps; the best colouring seen wins.
    Deterministic for fixed (g, seed, max_rounds).
    """
    if max_rounds < 0:
        raise DomainError("max_rounds must be non-negative")
    rng = random.Random(f"descent:{seed}")
    factor = find_two_factor(g)
    if factor is not None:
        current = lemma1_colouring(g, factor)
        method = Method.TWO_FACTOR_UPPER_BOUND
    else:
        current = properize(_greedy_improper(g))
        method = Method.HEURISTIC_UPPER_BOUND
    best = current
    count = best_count = current.delta_count()
    for _ in range(max_rounds):
        if best_count == 0:
            break
        improved = _reduce_once(current)
        if improved is not None:
            current = improved
            count -= 1
        else:
            # plateau: random Kempe swap, possibly worsening, to escape
            x, y = rng.sample(list(Colour), 2)
            d = kempe_decompose(current, x, y)
            if not d.components:
                continue
            idx = rng.randrange(len(d.components))
            current = kempe_swap(current, d, idx)
            count = current.delta_count()
        if count < best_count:
            best, best_count = current, count
    assert best.classification() is ColouringKind.PROPER
    return SolveResult(best_count, best, method)
