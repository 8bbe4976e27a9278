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
3-edge-colourable itself.  From size two on, the loop also uses class-2
blocks: vertex-disjoint sides H of 1- and 2-edge cuts with s(H) > 0, each
solved by the same loop.  A colouring of G whose delta edges are M restricts
to a colouring of H whose delta edges are the edges of M inside H, so a
matching whose complement colours has at least s(H) edges inside each
block, and at least the sum of the blocks' s(H) in all.  The loop starts at
that sum when it exceeds two and skips every matching short in some block:
both skip only matchings that fail, so the first success, witness and all,
stays the same.
"""

from __future__ import annotations

import enum
import random
from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .colouring import (
    CODES,
    ColourTable,
    ColouringKind,
    EdgeColouring,
    kempe_decompose,  # noqa: F401  unused here: bench/tracing.py swaps solver.kempe_* by name
    kempe_swap,  # noqa: F401
    properize,
)
from .errors import DomainError, ResourceLimitError
from .graphs import Graph, induced_subgraph

_TWO_FACTOR_VERTEX_LIMIT = 16


class Method(enum.Enum):
    EXACT = "Exact"
    TWO_FACTOR_UPPER_BOUND = "TwoFactorUpperBound"
    HEURISTIC_UPPER_BOUND = "HeuristicUpperBound"


class SolveResult(NamedTuple):
    s_value: int
    witness: EdgeColouring
    method: Method


class TwoFactor(NamedTuple):
    """Spanning 2-regular subgraph of a cubic graph, as its cycle list plus
    the complementary perfect matching (edge ids)."""

    graph: Graph
    cycles: tuple[tuple[int, ...], ...]
    matching: frozenset[int]

    def odd_cycle_count(self) -> int:
        return sum(1 for cyc in self.cycles if len(cyc) % 2 == 1)


# ---------------------------------------------------------------------------
# 3-edge-colouring search

_EXCLUDED = 8  # marks a deleted edge; never a colour bit
# a colour bit's code letter; a deleted edge reads delta
_LETTER_OF_BIT = bytes.maketrans(bytes((1, 2, 4, _EXCLUDED)), CODES.encode())


def _three_edge_colouring(g: Graph, excluded: frozenset[int] = frozenset()) -> Optional[str]:
    """Proper 3-edge-colouring of g minus the excluded edges, or None.

    The code letters over g's edges; excluded edges read delta.  Iterative, with
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
            return bytes(bit_of).translate(_LETTER_OF_BIT).decode()
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
    codes = _three_edge_colouring(g)
    return None if codes is None else EdgeColouring(g, codes)


# ---------------------------------------------------------------------------
# exact solver


def _cut_sides(g: Graph) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """The sides of a connected g's 1- and 2-edge cuts: both sides of each
    bridge, and the pieces that each class of 2-edge cuts leaves.  Each side
    is a tuple of ranges of positions in the depth-first order returned
    with them, so its size is known before its vertices are listed.

    Each non-tree edge of a depth-first tree gets a bit of its own, and
    each tree edge the xor of the bits of the non-tree edges whose tree
    cycle uses it.  Two edges form a cut exactly when every cycle holds both
    or neither, that is when their labels are equal, and a bridge is
    labelled 0.  The tree edges of one label all lie on the tree cycle of
    one of its bits, a root path, and they and the label's non-tree edge
    (if any) cut g into a ring of pieces, one per edge: the subtrees
    between consecutive tree edges, and the part above the highest one,
    which holds the part below the lowest one unless a non-tree edge of the
    label separates the two.  One pass down the tree and one back up:
    O(n + m) operations on labels of m - n + 1 bits.
    """
    n, ends, adjacency = g.vertex_count, g.edges, g.adjacency
    order = [0]
    pre = [-1] * n  # position in order
    pre[0] = 0
    up = [-1] * n  # edge to the tree parent
    label = [0] * g.edge_count
    mark = [0] * n  # xor of the bits of the non-tree edges at each vertex
    bit = 1
    stack = [[0, 0]]  # [vertex, next position in its adjacency]
    while stack:
        top = stack[-1]
        v, i = top
        if i == len(adjacency[v]):
            stack.pop()
            continue
        top[1] = i + 1
        w, e = adjacency[v][i]
        if pre[w] < 0:
            pre[w] = len(order)
            order.append(w)
            up[w] = e
            stack.append([w, 0])
        elif pre[w] < pre[v] and e != up[v]:  # a non-tree edge, from its lower end
            label[e] = bit
            mark[v] ^= bit
            mark[w] ^= bit
            bit <<= 1
    size = [1] * n
    for v in reversed(order[1:]):  # children before parents
        e = up[v]
        label[e] = mark[v]  # now the xor over v's subtree
        a, b = ends[e]
        parent = b if a == v else a
        mark[parent] ^= mark[v]
        size[parent] += size[v]

    def span(v: int) -> tuple[int, int]:
        """v's subtree, as a range of positions in order."""
        return pre[v], pre[v] + size[v]

    by_label: dict[int, list[int]] = {}
    for e, lab in enumerate(label):
        by_label.setdefault(lab, []).append(e)
    sides = []
    for lab, edges in by_label.items():
        if lab and len(edges) == 1:
            continue
        # the lower end of each tree edge, deepest first
        lows = sorted((x for e in edges for x in ends[e] if up[x] == e), key=pre.__getitem__, reverse=True)
        if not lab:  # bridges
            for v in lows:
                lo, hi = span(v)
                sides += [((lo, hi),), ((0, lo), (hi, n))]
            continue
        for deep, high in zip(lows, lows[1:]):
            (a, d), (b, c) = span(high), span(deep)  # a < b < c <= d
            sides.append(((a, b), (c, d)))
        (a, d), (b, c) = span(lows[-1]), span(lows[0])
        if len(lows) < len(edges):  # a non-tree edge separates bottom and top
            sides += [((b, c),), ((0, a), (d, n))]
        else:
            sides.append(((0, a), (b, c), (d, n)))
    return order, sides


def _class_two_blocks(g: Graph) -> list[tuple[list[int], int]]:
    """Vertex-disjoint sides H of a connected g's 1- and 2-edge cuts with
    s(H) > 0, as (sorted vertices, s(H)): smallest first, ties by their
    ranges, and none over half of g, so that the solves of the sides nest
    at most log2(n) deep."""
    order, sides = _cut_sides(g)
    taken = [False] * g.vertex_count
    blocks = []
    for size, ranges in sorted((sum(hi - lo for lo, hi in r), r) for r in sides):
        if 2 * size > g.vertex_count:
            break
        verts = sorted(v for lo, hi in ranges for v in order[lo:hi])
        if any(taken[v] for v in verts):
            continue
        s = _solve_exact_connected(induced_subgraph(g, verts)[0]).s_value
        if s:
            for v in verts:
                taken[v] = True
            blocks.append((verts, s))
    return blocks


def _matchings_of_size(
    g: Graph, candidates: list[int], k: int, blocks: Sequence[tuple[list[int], int]] = ()
) -> Iterator[frozenset[int]]:
    """All k-edge matchings within the candidate edges, lexicographically,
    less those with fewer than s edges inside some block (vertices, s) of
    vertex-disjoint blocks.  An edge is inside a block when both its ends
    are.  A prefix is cut off, with every matching it starts, once the
    edges left to pick cannot make up what the blocks still lack, or once
    a block has fewer candidates left than it lacks."""
    ends = g.edges
    block_of = [-1] * g.vertex_count
    for b, (verts, _) in enumerate(blocks):
        for v in verts:
            block_of[v] = b
    inside = [block_of[u] if block_of[u] == block_of[v] else -1 for u, v in (ends[e] for e in candidates)]
    # each block's candidate positions, last first
    tail = [[i for i in reversed(range(len(candidates))) if inside[i] == b] for b in range(len(blocks))]
    lack = [s for _, s in blocks]
    picked: list[int] = []
    touched: set[int] = set()

    def grow(start: int) -> Iterator[frozenset[int]]:
        left = k - len(picked)
        # not enough candidates left to finish
        stop = len(candidates) - left + 1
        owed = 0
        for b, short in enumerate(lack):
            if short > 0:
                if short > len(tail[b]):
                    return
                owed += short
                stop = min(stop, tail[b][short - 1] + 1)
        if owed > left:
            return
        if not left:
            yield frozenset(picked)
            return
        for idx in range(start, stop):
            b = inside[idx]
            if owed == left and (b < 0 or lack[b] <= 0):
                continue  # every pick left must go to a block that lacks one
            e = candidates[idx]
            u, v = ends[e]
            if u in touched or v in touched:
                continue
            picked.append(e)
            touched.update((u, v))
            if b >= 0:
                lack[b] -= 1
            yield from grow(idx + 1)
            if b >= 0:
                lack[b] += 1
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
    blocks: list[tuple[list[int], int]] = []
    # alpha, beta and gamma are matchings of at most n/2 edges each, so at
    # least m - 3 floor(n/2) edges need delta: on a subcubic graph one edge
    # exactly when n is odd and m = (3n - 1)/2, else none
    k = max(0, g.edge_count - 3 * (g.vertex_count // 2))
    while k <= len(candidates):
        if k == 2:
            # a matching that works leaves at least s(H) delta edges in
            # each block H, so at least their sum in all
            blocks = _class_two_blocks(g)
            k = max(k, sum(s for _, s in blocks))
        if not (k == 1 and cubic):
            for matching in _matchings_of_size(g, candidates, k, blocks):
                codes = _three_edge_colouring(g, matching)
                if codes is not None:
                    return SolveResult(k, EdgeColouring(g, codes), Method.EXACT)
        k += 1
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
    already failed.  Each component starts at size m - 3 floor(n/2) when
    that is positive (the overfull bound: alpha, beta and gamma are
    matchings of at most floor(n/2) edges each).  Cubic components skip
    the size-one matchings after size zero fails, by the parity lemma
    (Steffen, J. Graph Theory 2004): s(G) is never 1 on a cubic graph.
    From size two on, the sides H of 1- and 2-edge cuts with s(H) > 0 (at
    most half the component each, kept vertex-disjoint, smallest first)
    bound the search: a witness restricted to H is a colouring of H with
    its delta edges inside H, so at least s(H) of them lie there.  The
    search starts at the sum of these s(H) and skips every matching with
    fewer than s(H) edges inside some side.  Only failing matchings are
    skipped, so the first success and its witness stay the same.
    """
    comps = g.components()
    if len(comps) <= 1:
        return _solve_exact_connected(g)
    total = 0
    codes = [""] * g.edge_count
    for comp in comps:
        sub, edge_map = induced_subgraph(g, comp)
        result = _solve_exact_connected(sub)
        total += result.s_value
        for sub_eid, k in enumerate(result.witness.codes):
            codes[edge_map[sub_eid]] = k
    return SolveResult(total, EdgeColouring(g, "".join(codes)), Method.EXACT)


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
