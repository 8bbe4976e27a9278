"""Exact minimisation of the delta colour class.

The optimum s(G) is the smallest number of edges that must receive the
overflow colour delta in a proper 4-edge-colouring.  Equivalently it is the
smallest matching M such that G - M is 3-edge-colourable, which is how the
exact solver searches: matchings in increasing size, first hit wins.  This
module is all of the solving that solve runs on a graph within the exact
limit; the heuristic above it is deltamin.solver.

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
from typing import Iterator, NamedTuple, Optional, Sequence

from .colours import CODES, EdgeColouring
from .graphs import Graph, induced_subgraph


class Method(enum.Enum):
    EXACT = "Exact"
    TWO_FACTOR_UPPER_BOUND = "TwoFactorUpperBound"
    HEURISTIC_UPPER_BOUND = "HeuristicUpperBound"


class SolveResult(NamedTuple):
    s_value: int
    witness: EdgeColouring
    method: Method



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
    docstring.  Only the forcing is a function of its own; colouring an
    edge, undoing the trail and picking the branch edge run in the loop, and
    each vertex's edges are read off g's adjacency, in edge-id order.
    """
    ends = g.edges
    bit_of = [0] * g.edge_count  # colour bit per edge, 0 while uncoloured
    for e in excluded:
        bit_of[e] = _EXCLUDED
    around = [[e for _, e in nbrs if e not in excluded] for nbrs in g.adjacency]
    used = [0] * g.vertex_count  # bitmask of the colours present at each vertex
    trail: list[int] = []  # coloured edges, in colouring order

    def propagate(e: int) -> bool:
        """Give every edge left with one free colour that colour, until none
        is left (True) or an edge has none (False)."""
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
                        bit_of[f] = free
                        used[x] |= free
                        used[y] |= free
                        trail.append(f)
                        todo.append(f)
        return True

    # branch points: [edge, trail length, colours left, colours in use]
    stack: list[list[int]] = []
    while True:
        # the branch edge: at a fixpoint an uncoloured edge has two free
        # colours exactly when one of its ends is coloured, and three
        # otherwise, so the first with a coloured end, else the first
        fresh = -1
        for e, (u, v) in enumerate(ends):
            if not bit_of[e]:
                if used[u] | used[v]:
                    break
                if fresh < 0:
                    fresh = e
        else:
            if fresh < 0:
                return bytes(bit_of).translate(_LETTER_OF_BIT).decode()
            e = fresh
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
            # undo every colour given since the branch point; each colour
            # sits once at a vertex, so the order of undoing is free
            for f in trail[mark:]:
                bit = bit_of[f]
                bit_of[f] = 0
                x, y = ends[f]
                used[x] &= ~bit
                used[y] &= ~bit
            del trail[mark:]
            if not left:
                stack.pop()
                continue
            bit = left & -left
            point[2] = left ^ bit
            bit_of[e] = bit
            u, v = ends[e]
            used[u] |= bit
            used[v] |= bit
            trail.append(e)
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
    # alpha, beta and gamma are matchings of at most n/2 edges each, so at
    # least m - 3 floor(n/2) edges need delta: on a subcubic graph one edge
    # exactly when n is odd and m = (3n - 1)/2, else none
    k = max(0, g.edge_count - 3 * (g.vertex_count // 2))
    if not k:
        # size zero has one matching, the empty one: one plain search
        codes = _three_edge_colouring(g)
        if codes is not None:
            return SolveResult(0, EdgeColouring(g, codes), Method.EXACT)
        k = 1
    # an edge both of whose ends have degree at most two never needs delta:
    # a delta edge in a minimum colouring always has a fully saturated end
    adjacency = g.adjacency
    candidates = [
        e
        for e, (u, v) in enumerate(g.edges)
        if len(adjacency[u]) == 3 or len(adjacency[v]) == 3
    ]
    # parity lemma: in a 3-edge-colouring of G - e both ends of e miss the
    # same colour, which e could then take; so a cubic G that fails k=0
    # fails k=1 too
    cubic = g.is_cubic()
    blocks: list[tuple[list[int], int]] = []
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

