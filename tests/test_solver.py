"""Exact solver, resistance, 2-factors, and the heuristic.

The exact solver is checked against a test-local brute force over all 4^m
colourings on small graphs, so the two never share code paths.  Its
3-edge-colouring search is checked against a frozen copy of the earlier
recursive backtrack, witness for witness, and find_two_factor against a
frozen copy of the backtracking perfect-matching search it replaced.  The
level loop's cut-block and overfull bounds are checked against a frozen
copy of the loop without them, and its cut finder against edge deletions.
"""

import itertools
import random
import sys
from pathlib import Path
from typing import Optional

import networkx as nx
import pytest

from deltamin import (
    Colour,
    ColouringKind,
    DomainError,
    Graph,
    Method,
    ResourceLimitError,
    enumerate_two_factors,
    find_two_factor,
    heuristic_descent,
    is_3_edge_colourable,
    lemma1_colouring,
    make_named,
    parse_graph6,
    random_subcubic,
    resistance_exact,
    solve_exact,
    verify_theorem1,
)
from deltamin.colouring import NON_DELTA, kempe_decompose, kempe_swap, properize
from deltamin import solver
from deltamin.graphs import induced_subgraph
from deltamin.solver import (
    _class_two_blocks,
    _cut_sides,
    _greedy_improper,
    _matchings_of_size,
    _maximum_matching,
    _three_edge_colouring,
)

GOLDEN = Path(__file__).parent / "golden"

A, B, G, D = Colour.ALPHA, Colour.BETA, Colour.GAMMA, Colour.DELTA


def brute_force_s(g: Graph) -> int:
    """Minimum delta count over all proper 4-colourings, by full enumeration."""
    best = None
    for combo in itertools.product(list(Colour), repeat=g.edge_count):
        ok = True
        for v in range(g.vertex_count):
            cols = [combo[e] for e in g.incident_edges(v)]
            if len(set(cols)) != len(cols):
                ok = False
                break
        if ok:
            k = sum(1 for c in combo if c is D)
            if best is None or k < best:
                best = k
    assert best is not None
    return best


def brute_force_resistance(g: Graph) -> int:
    """Minimum |F| with G-F properly 3-edge-colourable, by full enumeration."""
    m = g.edge_count
    for k in range(m + 1):
        for removed in itertools.combinations(range(m), k):
            gone = set(removed)
            for combo in itertools.product((A, B, G), repeat=m - k):
                it = iter(combo)
                colours = [None if e in gone else next(it) for e in range(m)]
                ok = True
                for v in range(g.vertex_count):
                    cols = [
                        colours[e]
                        for e in g.incident_edges(v)
                        if colours[e] is not None
                    ]
                    if len(set(cols)) != len(cols):
                        ok = False
                        break
                if ok:
                    return k
    raise AssertionError("unreachable")


def reference_three_colour(g: Graph, excluded: frozenset) -> Optional[dict]:
    """Frozen copy of the earlier recursive 3-edge-colouring backtrack; the
    test oracle for the search order, not a second path in the package.

    Backtracking on edges, most-constrained edge first (lowest id on ties),
    colours tried in the order alpha, beta, gamma.
    """
    active = [e for e in range(g.edge_count) if e not in excluded]
    used = [0] * g.vertex_count
    assigned: dict[int, int] = {}

    def choose():
        best = None
        best_count = 4
        for e in active:
            if e in assigned:
                continue
            u, v = g.edges[e]
            avail = 7 & ~(used[u] | used[v])
            count = bin(avail).count("1")
            if count == 0:
                return (e, 0)
            if count < best_count:
                best, best_count = (e, avail), count
        return best

    def search() -> bool:
        pick = choose()
        if pick is None:
            return True
        e, avail = pick
        if avail == 0:
            return False
        u, v = g.edges[e]
        for bit in (1, 2, 4):
            if avail & bit:
                assigned[e] = bit
                used[u] |= bit
                used[v] |= bit
                if search():
                    return True
                del assigned[e]
                used[u] &= ~bit
                used[v] &= ~bit
        return False

    if search():
        return {e: {1: A, 2: B, 4: G}[b] for e, b in assigned.items()}
    return None


def reference_search(g: Graph, excluded: frozenset = frozenset()) -> Optional[list]:
    """The reference oracle in the search's output shape."""
    partial = reference_three_colour(g, excluded)
    if partial is None:
        return None
    return [partial.get(e) for e in range(g.edge_count)]


def searched(g: Graph, excluded: frozenset = frozenset()) -> Optional[list]:
    """The package's 3-edge-colouring search in reference_search's shape:
    its code letters as colours, with None on the excluded edges (which the
    search gives delta)."""
    codes = _three_edge_colouring(g, excluded)
    return None if codes is None else [None if k == "d" else Colour(k) for k in codes]


def plain_matchings(g: Graph, candidates: list, k: int):
    """Frozen copy of the plain matching enumeration: every k-edge matching
    within the candidate edges, lexicographically."""
    picked: list = []
    touched: set = set()

    def grow(start: int):
        if len(picked) == k:
            yield frozenset(picked)
            return
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


def candidate_edges(g: Graph) -> list:
    return [e for e, (u, v) in enumerate(g.edges) if g.degree(u) == 3 or g.degree(v) == 3]


def reference_solve(g: Graph) -> tuple:
    """Connected-graph exact solve on the reference oracle, with no parity
    skip: (s, colours) of the first matching whose complement colours."""
    candidates = candidate_edges(g)
    for k in range(len(candidates) + 1):
        for matching in plain_matchings(g, candidates, k):
            partial = reference_three_colour(g, matching)
            if partial is not None:
                return k, tuple(partial.get(e, D) for e in range(g.edge_count))
    raise AssertionError("unreachable")


def frozen_level_loop(g: Graph) -> tuple:
    """Frozen copy of the exact solver's level loop before the cut-block
    and overfull bounds, for a connected graph: every candidate matching of each size in
    lexicographic order, size one skipped on cubic graphs, and the package's
    3-edge-colouring search.  (s, colours) of the first hit."""
    candidates = candidate_edges(g)
    for k in range(len(candidates) + 1):
        if k == 1 and g.is_cubic():
            continue
        for matching in plain_matchings(g, candidates, k):
            codes = _three_edge_colouring(g, matching)
            if codes is not None:
                return k, tuple(map(Colour, codes))
    raise AssertionError("unreachable")


def frozen_solve(g: Graph) -> tuple:
    """solve_exact's split into components, over the frozen level loop."""
    total, colours = 0, [None] * g.edge_count
    for comp in g.components():
        sub, edge_map = induced_subgraph(g, comp)
        k, sub_colours = frozen_level_loop(sub)
        total += k
        for sub_eid, col in enumerate(sub_colours):
            colours[edge_map[sub_eid]] = col
    return total, tuple(colours)


def random_corpus() -> list:
    return [random_subcubic(4 + i % 9, 7000 + i) for i in range(200)]


# ---------------------------------------------------------------------------
# 3-edge-colouring search against the reference


def test_search_matches_reference_on_cubic_deletions(cubic_corpus):
    for n in (4, 6, 8, 10):
        for g in cubic_corpus[n]:
            for size in (0, 1, 2):
                for gone in itertools.combinations(range(g.edge_count), size):
                    excluded = frozenset(gone)
                    assert searched(g, excluded) == reference_search(g, excluded)


def test_search_matches_reference_on_random_subcubic():
    for g in random_corpus():
        assert searched(g) == reference_search(g)


def test_solve_exact_witness_matches_reference(cubic_corpus):
    # the search and the cubic k=1 skip together leave every witness as the
    # reference search order finds it
    graphs = [g for n in (4, 6, 8, 10) for g in cubic_corpus[n]]
    graphs += random_corpus()  # connected by construction
    for g in graphs:
        r = solve_exact(g)
        assert (r.s_value, r.witness.colours) == reference_solve(g)


def test_parity_skip_sound(cubic_corpus):
    # a cubic graph with no 3-edge-colouring has none after deleting one
    # edge either, so the exact solver may skip k=1 on cubic graphs
    class_two = [
        g
        for n in (4, 6, 8, 10)
        for g in cubic_corpus[n]
        if reference_three_colour(g, frozenset()) is None
    ]
    assert class_two  # Petersen and the bridged cubic graph on 10 vertices
    for g in class_two:
        assert g.is_connected() and g.is_cubic()
        for e in range(g.edge_count):
            assert reference_three_colour(g, frozenset({e})) is None


def search_with_branch_choices(g: Graph) -> tuple:
    """The search's result and the colour choices it tried at branch points:
    each choice is followed by exactly one call of its propagate."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "propagate" and frame.f_globals["__name__"] == "deltamin.solver":
            calls += 1

    sys.setprofile(count)
    try:
        result = _three_edge_colouring(g)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize("name, k, choices", [
    ("petersen", None, 8),
    ("flower", 5, 44),
    ("flower", 7, 220),
], ids=["petersen", "J5", "J7"])
def test_refutation_effort_is_pinned(name, k, choices):
    # while at most one colour is in use, a branch point tries only the
    # lowest unused free colour; without that rule these refutations try
    # 45, 261 and 1,317 colours
    assert search_with_branch_choices(make_named(name, k)) == (None, choices)


def petersen_ring(blocks: int) -> Graph:
    """Cubic ring of Petersen-minus-edge blocks, s equal to the block count:
    edge (0, 1) is removed from each copy and vertex 1 of each block is
    joined to vertex 0 of the next."""
    base = [e for e in make_named("petersen").edges if e != (0, 1)]
    edges = []
    for b in range(blocks):
        edges += [(u + 10 * b, v + 10 * b) for u, v in base]
        edges.append((10 * b + 1, 10 * ((b + 1) % blocks)))
    return Graph(10 * blocks, edges)


@pytest.mark.slow
def test_search_matches_reference_on_cubic_12_deletions():
    for line in (GOLDEN / "cubic_12.g6").read_text().split():
        g = parse_graph6(line)
        for e in [None, *range(g.edge_count)]:
            excluded = frozenset() if e is None else frozenset({e})
            assert searched(g, excluded) == reference_search(g, excluded)


@pytest.mark.slow
@pytest.mark.parametrize("g", [make_named("flower", 5), petersen_ring(2)], ids=["J5", "ring2"])
def test_solve_exact_witness_matches_reference_on_snarks(g):
    r = solve_exact(g)
    assert r.s_value == 2
    assert (r.s_value, r.witness.colours) == reference_solve(g)


# ---------------------------------------------------------------------------
# the cut-block bound of the exact level loop

# petersen_ring(3)'s witness as the level loop found it before the bound:
# delta on edges 1, 16 and 31, one per block
RING3_COLOURS = "adagbaaggabgbbgbdbaabbgabggagagdgbaggbbgabaab"
# D}K: K4 with edge 01 subdivided by vertex 4, the smallest class-2 piece
SUBDIVIDED_K4 = [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def solved(g: Graph) -> tuple:
    r = solve_exact(g)
    return r.s_value, r.witness.colours


def with_deletions(g: Graph) -> list:
    """g and every graph left by deleting one edge of it."""
    return [g] + [Graph(g.vertex_count, [uv for f, uv in enumerate(g.edges) if f != e]) for e in range(g.edge_count)]


def bridged_subdivided_k4s() -> Graph:
    """Two copies of D}K joined by a bridge between their degree-2
    vertices: cubic, s=2."""
    return Graph(10, SUBDIVIDED_K4 + [(u + 5, v + 5) for u, v in SUBDIVIDED_K4] + [(4, 9)])


def sparse_subcubic(n: int, extra: int, seed: int) -> Graph:
    """A connected subcubic graph with many 1- and 2-edge cuts: a random
    spanning tree of maximum degree three plus a few random edges."""
    rng = random.Random(seed)
    deg = [0] * n
    edges: set = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, sorted(edges))


def class_two_composite(seed: int) -> Graph:
    """Class-2 pieces (D}K, Petersen minus an edge) and lone vertices, each
    piece but the first joined by one edge to an earlier one where both
    ends have degree below three, then up to two more such edges, then
    relabelled.  The cuts between the pieces give the level loop blocks."""
    rng = random.Random(seed)
    pm = [e for e in make_named("petersen").edges if e != (0, 1)]
    kinds = [(5, SUBDIVIDED_K4), (5, SUBDIVIDED_K4), (10, pm)]
    pieces = [rng.choice(kinds) for _ in range(rng.randrange(2, 4))] + [(1, [])] * rng.randrange(3)
    edges, members, n = [], [], 0
    for size, part in pieces:
        edges += [(u + n, v + n) for u, v in part]
        members.append(range(n, n + size))
        n += size
    deg = [0] * n
    for uv in edges:
        for x in uv:
            deg[x] += 1

    def join(a: int, b: int) -> None:
        pairs = [(u, v) for u in members[a] for v in members[b]
                 if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges and (v, u) not in edges]
        if pairs:
            u, v = rng.choice(pairs)
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1

    for i in range(1, len(pieces)):
        join(i, rng.randrange(i))
    for _ in range(rng.randrange(3)):
        join(*rng.sample(range(len(pieces)), 2))
    return relabelled(Graph(n, edges), rng)


def components_without(g: Graph, gone) -> list:
    return Graph(g.vertex_count, [uv for e, uv in enumerate(g.edges) if e not in gone]).components()


def brute_force_cut_sides(g: Graph) -> list:
    """The sides of g's 1- and 2-edge cuts by deleting each edge and each
    pair of edges: both components of G - e for each bridge e, and the
    components of G - C for each class C of non-bridge edges, two edges
    being in one class when deleting both disconnects g."""
    bridges = [e for e in range(g.edge_count) if len(components_without(g, {e})) > 1]
    rest = [e for e in range(g.edge_count) if e not in bridges]
    cls = {e: {e} for e in rest}
    for e, f in itertools.combinations(rest, 2):
        if len(components_without(g, {e, f})) > 1 and cls[e] is not cls[f]:
            cls[e] |= cls[f]
            for x in cls[f]:
                cls[x] = cls[e]
    classes = {frozenset(c) for c in cls.values() if len(c) > 1}
    sides = [comp for e in bridges for comp in components_without(g, {e})]
    sides += [comp for c in classes for comp in components_without(g, c)]
    return sorted(tuple(side) for side in sides)


def found_cut_sides(g: Graph) -> list:
    order, sides = _cut_sides(g)
    return sorted(tuple(sorted(v for lo, hi in ranges for v in order[lo:hi])) for ranges in sides)


def cut_corpus(cubic_corpus) -> list:
    graphs = [g for line in (GOLDEN / "cubic_10.g6").read_text().split() for g in with_deletions(parse_graph6(line))]
    graphs += [g for n in (4, 6, 8) for g in cubic_corpus[n]]
    graphs += [sparse_subcubic(4 + i % 13, i % 7, 500 + i) for i in range(150)]
    graphs += [random_subcubic(4 + i % 11, 600 + i) for i in range(50)]
    graphs += [class_two_composite(seed) for seed in range(40)]
    graphs += [petersen_ring(2), petersen_ring(3), bridged_subdivided_k4s(), make_named("cycle", 7)]
    return [g for g in graphs if g.is_connected()]


def test_cut_sides_match_edge_deletions(cubic_corpus):
    for g in cut_corpus(cubic_corpus):
        assert found_cut_sides(g) == brute_force_cut_sides(g), g.edges


def test_class_two_blocks_are_disjoint_small_sides_with_their_s(cubic_corpus):
    for g in cut_corpus(cubic_corpus):
        blocks = _class_two_blocks(g)
        sides = set(brute_force_cut_sides(g))
        taken: set = set()
        for verts, s in blocks:
            assert tuple(verts) in sides and 2 * len(verts) <= g.vertex_count
            assert not taken & set(verts)
            taken |= set(verts)
            assert s == resistance_exact(induced_subgraph(g, verts)[0]) > 0
        assert sum(s for _, s in blocks) <= solve_exact(g).s_value


def test_ring_blocks_are_its_petersen_copies():
    blocks = _class_two_blocks(petersen_ring(3))
    assert sorted(blocks) == [(list(range(10 * b, 10 * b + 10)), 1) for b in range(3)]


def test_pruned_matchings_are_the_plain_ones_that_meet_every_block():
    rng = random.Random(17)
    for g in [petersen_ring(2), make_named("petersen"), bridged_subdivided_k4s()] + [
        random_subcubic(10 + i % 5, 700 + i) for i in range(6)
    ]:
        candidates = candidate_edges(g)
        for _ in range(4):
            verts = list(range(g.vertex_count))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, g.vertex_count), rng.randrange(1, 4)))
            blocks = [(sorted(verts[a:b]), rng.randrange(3)) for a, b in zip([0] + cuts, cuts)]
            for k in range(5):
                want = [m for m in plain_matchings(g, candidates, k)
                        if all(sum(set(g.edges[e]) <= set(vs) for e in m) >= need for vs, need in blocks)]
                assert list(_matchings_of_size(g, candidates, k, blocks)) == want


@pytest.mark.parametrize("name", ["cubic_10.g6", "cubic_12.g6"])
def test_block_bound_keeps_witnesses_on_cubic_graphs_and_deletions(name):
    for line in (GOLDEN / name).read_text().split():
        for g in with_deletions(parse_graph6(line)):
            assert solved(g) == frozen_solve(g)


def test_block_bound_keeps_witnesses_on_random_subcubic():
    for i in range(500):
        g = random_subcubic(4 + i % 11, 8000 + i)
        assert solved(g) == frozen_solve(g)


def test_block_bound_keeps_witnesses_on_class_two_composites():
    for seed in range(100):
        g = class_two_composite(seed)
        if g.vertex_count <= 20:
            assert solved(g) == frozen_solve(g)


@pytest.mark.parametrize("g", [petersen_ring(2), bridged_subdivided_k4s()], ids=["ring2", "bridged-DK"])
def test_block_bound_keeps_witnesses_on_cut_graphs(g):
    rng = random.Random(5)
    for h in [g, relabelled(g, rng), relabelled(g, rng)]:
        assert solved(h) == frozen_solve(h)


def overfull_graphs() -> list:
    """Connected graphs with n odd and m = (3n - 1)/2, where the overfull
    bound m - 3 floor(n/2) is 1: every cubic graph of cubic_10.g6 with one
    edge subdivided, and the seeded random subcubic graphs of that shape."""
    out = []
    for line in (GOLDEN / "cubic_10.g6").read_text().split():
        g = parse_graph6(line)
        for e, (u, v) in enumerate(g.edges):
            rest = [uv for f, uv in enumerate(g.edges) if f != e]
            out.append(Graph(g.vertex_count + 1, rest + [(u, g.vertex_count), (v, g.vertex_count)]))
    for i in range(200):
        g = random_subcubic(5 + 2 * (i % 6), 9100 + i)
        if g.is_connected() and g.edge_count == (3 * g.vertex_count - 1) // 2:
            out.append(g)
    return out


def test_overfull_start_keeps_witnesses_and_skips_size_zero(monkeypatch):
    graphs = overfull_graphs()
    assert len(graphs) > 300
    for g in graphs:
        assert solved(g) == frozen_solve(g)
    levels = []
    plain = solver._matchings_of_size
    monkeypatch.setattr(solver, "_matchings_of_size", lambda h, *rest: levels.append((h, rest[1])) or plain(h, *rest))
    for g in graphs:
        levels.clear()
        solve_exact(g)
        assert [k for h, k in levels if h is g][0] == 1
    # a graph that is not overfull still starts at size zero
    levels.clear()
    g = make_named("petersen")
    solve_exact(g)
    assert [k for h, k in levels if h is g][0] == 0


def test_petersen_rings_solve_with_their_block_count():
    r = solve_exact(petersen_ring(3))
    assert "".join(c.value for c in r.witness.colours) == RING3_COLOURS
    r = solve_exact(petersen_ring(4))
    assert r.s_value == 4
    report = verify_theorem1(r.witness)
    assert report.all_pass, [cl.clause_id for cl in report.clauses if not cl.passed]


@pytest.mark.slow
def test_block_bound_keeps_witnesses_on_larger_class_two_composites():
    for seed in range(200):
        g = class_two_composite(seed)
        if g.vertex_count > 20:
            assert solved(g) == frozen_solve(g)


@pytest.mark.slow
def test_block_bound_keeps_witnesses_on_ring3():
    rng = random.Random(3)
    for g in [petersen_ring(3), relabelled(petersen_ring(3), rng)]:
        assert solved(g) == frozen_solve(g)


@pytest.mark.parametrize("n", [3000, 3001])
def test_long_cycle_needs_no_recursion(n):
    g = make_named("cycle", n)
    c = is_3_edge_colourable(g)
    assert c is not None and c.classification() is ColouringKind.PROPER
    r = solve_exact(g)
    assert r.s_value == 0
    assert r.witness.classification() is ColouringKind.PROPER


# ---------------------------------------------------------------------------
# exact solver


def test_golden_values():
    assert solve_exact(make_named("k4")).s_value == 0
    assert solve_exact(make_named("k33")).s_value == 0
    assert solve_exact(make_named("cycle", 5)).s_value == 0
    r = solve_exact(make_named("petersen"))
    assert r.s_value == 2
    assert r.method is Method.EXACT


def test_witness_contract():
    for g in [make_named("k4"), make_named("petersen"), random_subcubic(9, 3)]:
        r = solve_exact(g)
        assert r.witness.graph is g
        assert r.witness.classification() is ColouringKind.PROPER
        assert r.witness.delta_count() == r.s_value


@pytest.mark.parametrize(
    "g",
    [
        Graph(2, [(0, 1)]),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        make_named("cycle", 3),
        make_named("cycle", 4),
        make_named("cycle", 5),
        make_named("k4"),
        Graph(5, [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ],
    ids=["edge", "star", "c3", "c4", "c5", "k4", "subdivided-k4"],
)
def test_solve_exact_against_brute_force(g):
    assert solve_exact(g).s_value == brute_force_s(g)


def test_solve_exact_trivial_graphs():
    r = solve_exact(Graph(0, []))
    assert r.s_value == 0 and r.witness.colours == ()
    r = solve_exact(Graph(3, []))
    assert r.s_value == 0


def test_solve_exact_disconnected_sums_components():
    # two subdivided K4s, each s=1
    part = [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = part + [(u + 5, v + 5) for u, v in part]
    g = Graph(10, edges)
    r = solve_exact(g)
    assert r.s_value == 2
    assert r.witness.classification() is ColouringKind.PROPER
    assert r.witness.delta_count() == 2


def test_solve_exact_deterministic():
    g = random_subcubic(10, 41)
    assert solve_exact(g).witness == solve_exact(g).witness


def test_is_3_edge_colourable():
    c = is_3_edge_colourable(make_named("k4"))
    assert c is not None
    assert c.classification() is ColouringKind.PROPER
    assert c.delta_count() == 0
    assert is_3_edge_colourable(make_named("petersen")) is None


# ---------------------------------------------------------------------------
# resistance


def test_resistance_golden():
    assert resistance_exact(make_named("k4")) == 0
    assert resistance_exact(make_named("petersen")) == 2


@pytest.mark.parametrize("seed", range(6))
def test_resistance_against_brute_force(seed):
    g = random_subcubic(4 + seed % 3, seed)  # at most 9 edges at n=6
    assert resistance_exact(g) == brute_force_resistance(g)


def test_resistance_of_petersen_witnessed_by_deletion():
    # a concrete certificate for the golden value: deleting the two delta
    # edges of an optimal witness leaves a 3-colourable graph, and the solver
    # finds no 3-colouring after any single deletion
    g = make_named("petersen")
    w = solve_exact(g).witness
    keep = [g.edges[e] for e in range(g.edge_count) if w.colour_of(e) is not D]
    assert is_3_edge_colourable(Graph(10, keep)) is not None
    for gone in range(g.edge_count):
        rest = [g.edges[e] for e in range(g.edge_count) if e != gone]
        assert is_3_edge_colourable(Graph(10, rest)) is None


def test_resistance_equals_s_spot_checks():
    # the full corpus sweep lives in the acceptance suite
    for g in [make_named("petersen"), make_named("k33"), random_subcubic(10, 5)]:
        assert resistance_exact(g) == solve_exact(g).s_value


# ---------------------------------------------------------------------------
# 2-factors


def test_two_factors_of_k4():
    k4 = make_named("k4")
    factors = list(enumerate_two_factors(k4))
    assert len(factors) == 3
    for f in factors:
        assert len(f.cycles) == 1
        assert len(f.cycles[0]) == 4
        assert f.odd_cycle_count() == 0
        assert len(f.matching) == 2


def test_two_factors_of_petersen():
    factors = list(enumerate_two_factors(make_named("petersen")))
    assert len(factors) == 6
    for f in factors:
        assert sorted(len(c) for c in f.cycles) == [5, 5]
        assert f.odd_cycle_count() == 2


def test_two_factors_of_k33_all_even():
    for f in enumerate_two_factors(make_named("k33")):
        assert f.odd_cycle_count() == 0


def prism() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_two_factors_of_prism():
    odd_counts = sorted(f.odd_cycle_count() for f in enumerate_two_factors(prism()))
    assert odd_counts == [0, 0, 0, 2]


def test_two_factor_enumeration_unique():
    seen = set()
    for f in enumerate_two_factors(make_named("petersen")):
        assert f.matching not in seen
        seen.add(f.matching)


def test_find_two_factor():
    f = find_two_factor(make_named("k4"))
    assert f is not None and len(f.cycles[0]) == 4
    # K4 minus an edge is not 3-regular
    assert find_two_factor(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])) is None
    assert find_two_factor(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None


def reference_perfect_matchings(g: Graph):
    """Frozen copy of the backtracking perfect-matching search that
    find_two_factor used to take the first result of: lowest uncovered
    vertex, neighbours in adjacency order.  Exponential on flower snarks."""
    if g.vertex_count % 2:
        return
    covered = [False] * g.vertex_count
    picked: list = []

    def grow():
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


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.vertex_count, edges)


def nx_graph(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges)
    return out


def no_perfect_matching_16() -> Graph:
    """The smallest connected cubic graph without a perfect matching: a
    centre joined by bridges to three 5-vertex blocks (K4 with one edge
    subdivided, the subdivision vertex taking the bridge)."""
    edges = []
    for b in range(3):
        t, p, q, r, s = (1 + 5 * b + i for i in range(5))
        edges += [(0, t), (t, p), (t, q), (p, r), (p, s), (q, r), (q, s), (r, s)]
    return Graph(16, edges)


def cubic_up_to_12(cubic_corpus) -> list:
    lines = (GOLDEN / "cubic_12.g6").read_text().split()
    return [g for n in (4, 6, 8, 10) for g in cubic_corpus[n]] + [parse_graph6(ln) for ln in lines]


def test_find_two_factor_matches_backtracking_on_small_cubic(cubic_corpus):
    rng = random.Random(4)
    checked = 0
    for g in cubic_up_to_12(cubic_corpus):
        for h in [g] + [relabelled(g, rng) for _ in range(3)]:
            f = find_two_factor(h)
            assert f is not None
            assert f.matching == next(reference_perfect_matchings(h))
            checked += 1
    assert checked == 4 * (1 + 2 + 5 + 19 + 85)


def test_find_two_factor_matches_backtracking_on_flower_snarks():
    rng = random.Random(5)
    for k in range(3, 22, 2):
        g = make_named("flower", k)
        assert find_two_factor(g).matching == next(reference_perfect_matchings(g))
        if k <= 11:
            h = relabelled(g, rng)
            assert find_two_factor(h).matching == next(reference_perfect_matchings(h))


def test_find_two_factor_none_without_perfect_matching():
    g = no_perfect_matching_16()
    assert g.is_cubic() and g.is_connected()
    assert len(nx.max_weight_matching(nx_graph(g), maxcardinality=True)) < 8
    assert find_two_factor(g) is None
    assert next(reference_perfect_matchings(g), None) is None


@pytest.mark.parametrize("k", [29, 101])
def test_find_two_factor_large_flower_snarks(k):
    # J29 took 47 s with the backtracking search
    g = make_named("flower", k)
    f = find_two_factor(g)
    assert nx.is_perfect_matching(nx_graph(g), {g.edges[e] for e in f.matching})
    assert sum(len(cyc) for cyc in f.cycles) == g.vertex_count


def test_maximum_matching_size_matches_networkx():
    # graphs with odd cycles and unmatched vertices, where blossoms matter
    for seed in range(150):
        g = random_subcubic(5 + seed % 60, 3000 + seed)
        mate = _maximum_matching([[w for w, _ in nbrs] for nbrs in g.adjacency])
        for v, w in enumerate(mate):
            assert w == -1 or (mate[w] == v and g.has_edge(v, w))
        size = sum(1 for w in mate if w != -1) // 2
        assert size == len(nx.max_weight_matching(nx_graph(g), maxcardinality=True))


def test_find_two_factor_on_random_cubic_graphs():
    for seed in range(40):
        n = 6 + 2 * (seed % 12)
        h = nx.random_regular_graph(3, n, seed=seed)
        g = Graph(n, list(h.edges))
        f = find_two_factor(g)
        assert f.matching == next(reference_perfect_matchings(g))


def test_two_factor_guards():
    with pytest.raises(DomainError):
        list(enumerate_two_factors(make_named("cycle", 5)))
    with pytest.raises(ResourceLimitError):
        list(enumerate_two_factors(make_named("flower", 5)))  # 20 vertices


def test_two_factor_determinism():
    a = [f.matching for f in enumerate_two_factors(make_named("petersen"))]
    b = [f.matching for f in enumerate_two_factors(make_named("petersen"))]
    assert a == b


# ---------------------------------------------------------------------------
# colouring from a 2-factor


def test_lemma1_colouring_k4():
    k4 = make_named("k4")
    c = lemma1_colouring(k4, find_two_factor(k4))
    assert c.classification() is ColouringKind.PROPER
    assert c.delta_count() == 0


def test_lemma1_colouring_petersen():
    pet = make_named("petersen")
    c = lemma1_colouring(pet, find_two_factor(pet))
    assert c.classification() is ColouringKind.PROPER
    assert c.delta_count() == 2


def test_lemma1_colouring_prism_hamiltonian():
    g = prism()
    hamiltonian = [f for f in enumerate_two_factors(g) if len(f.cycles) == 1]
    assert hamiltonian
    c = lemma1_colouring(g, hamiltonian[0])
    assert c.classification() is ColouringKind.PROPER
    assert c.delta_count() == 0


def test_lemma1_colouring_structure():
    # matching edges get gamma, delta count equals odd cycle count
    pet = make_named("petersen")
    for f in enumerate_two_factors(pet):
        c = lemma1_colouring(pet, f)
        assert c.classification() is ColouringKind.PROPER
        assert c.delta_count() == f.odd_cycle_count()
        for eid in f.matching:
            assert c.colour_of(eid) is G


def test_lemma1_rejects_foreign_factor():
    f = find_two_factor(make_named("k4"))
    with pytest.raises(DomainError):
        lemma1_colouring(make_named("k33"), f)


def test_two_factor_lower_bound_small(cubic_corpus):
    # odd cycle count of every 2-factor bounds s from above zero violations;
    # n=10 runs in the acceptance suite
    for n in (4, 6, 8):
        for g in cubic_corpus[n]:
            s = solve_exact(g).s_value
            for f in enumerate_two_factors(g):
                assert f.odd_cycle_count() >= s


# ---------------------------------------------------------------------------
# heuristic


def test_heuristic_k4_reaches_zero():
    r = heuristic_descent(make_named("k4"), seed=0)
    assert r.s_value == 0
    assert r.witness.classification() is ColouringKind.PROPER


def test_heuristic_petersen_never_beats_exact():
    for seed in range(8):
        r = heuristic_descent(make_named("petersen"), seed=seed)
        assert r.s_value >= 2
        assert r.witness.classification() is ColouringKind.PROPER
        assert r.witness.delta_count() == r.s_value


def test_heuristic_deterministic():
    a = heuristic_descent(make_named("flower", 5), seed=9, max_rounds=16)
    b = heuristic_descent(make_named("flower", 5), seed=9, max_rounds=16)
    assert a.s_value == b.s_value
    assert a.witness == b.witness


def test_heuristic_methods():
    # cubic graph with a 2-factor seeds from it
    assert heuristic_descent(make_named("petersen"), seed=0).method is Method.TWO_FACTOR_UPPER_BOUND
    # non-cubic input uses the greedy path
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    r = heuristic_descent(star, seed=0)
    assert r.method is Method.HEURISTIC_UPPER_BOUND
    assert r.s_value == 0


def test_heuristic_upper_bounds_exact():
    for seed in range(12):
        g = random_subcubic(11, 500 + seed)
        exact = solve_exact(g).s_value
        heur = heuristic_descent(g, seed=seed)
        assert heur.s_value >= exact


def reference_greedy_improper(g: Graph) -> tuple:
    """Frozen copy of the first-fit start as it was before it ran on colour
    codes: a set of colours per vertex, tested per edge."""
    used: list = [set() for _ in range(g.vertex_count)]
    out = []
    for u, v in g.edges:
        col = next((c for c in NON_DELTA if c not in used[u] and c not in used[v]), D)
        out.append(col)
        used[u].add(col)
        used[v].add(col)
    return tuple(out)


def test_greedy_improper_matches_frozen_reference():
    for n in (5, 12, 60, 400):
        for seed in range(5):
            g = random_subcubic(n, 900 + seed)
            assert _greedy_improper(g).colours == reference_greedy_improper(g)


def reference_reduce_once(c):
    """Frozen copy of the earlier _reduce_once, which found each Kempe path
    in a whole decomposition of the pair."""
    g = c.graph
    for e in sorted(c.colour_class(D)):
        u, v = g.edges[e]
        at_u = set(c.colours_at(u, skip=e))
        at_v = set(c.colours_at(v, skip=e))
        for col in NON_DELTA:
            if col not in at_u and col not in at_v:
                return c.with_colours({e: col})
        for x, y in ((A, B), (A, G), (B, G)):
            if (x in at_u) == (y in at_u) or (x in at_v) == (y in at_v):
                continue
            d = kempe_decompose(c, x, y)
            iu, iv = d.component_at(u), d.component_at(v)
            if iu is None or iv is None or iu == iv:
                continue
            if d.components[iu].is_cycle or u not in d.components[iu].endpoints():
                continue
            swapped = kempe_swap(c, d, iu)
            want = x if x not in at_v else y
            if want in set(swapped.colours_at(u, skip=e)):
                continue
            return swapped.with_colours({e: want})
    return None


def reference_descent(g: Graph, seed: int, max_rounds: int = 64, rounds: Optional[dict] = None):
    """The descent loop of heuristic_descent on reference_reduce_once, with
    the delta count recounted every round as before.  rounds, when given,
    counts improving and plateau rounds, keeps the most edges one improving
    round recoloured, and notes whether the last run ended on the state
    where it first reached its best count (ended_at_best)."""
    rounds = {} if rounds is None else rounds
    rng = random.Random(f"descent:{seed}")
    factor = find_two_factor(g)
    current = lemma1_colouring(g, factor) if factor is not None else properize(_greedy_improper(g))
    best = current
    for _ in range(max_rounds):
        if best.delta_count() == 0:
            break
        improved = reference_reduce_once(current)
        if improved is not None:
            moved = sum(a is not b for a, b in zip(current.colours, improved.colours))
            rounds["improving"] = rounds.get("improving", 0) + 1
            rounds["most_moved"] = max(rounds.get("most_moved", 0), moved)
            current = improved
        else:
            rounds["plateau"] = rounds.get("plateau", 0) + 1
            x, y = rng.sample(list(Colour), 2)
            d = kempe_decompose(current, x, y)
            if not d.components:
                continue
            current = kempe_swap(current, d, rng.randrange(len(d.components)))
        if current.delta_count() < best.delta_count():
            best = current
    rounds["ended_at_best"] = current is best
    return best.delta_count(), best.colours


def no_perfect_matching_cubic() -> Graph:
    """Cubic on 16 vertices with no perfect matching, so no 2-factor: three
    copies of K4 with one edge subdivided, the subdividing vertices joined
    to a centre, whose removal leaves three odd components."""
    edges = []
    for b in range(3):
        s, a, c, d, e = range(1 + 5 * b, 6 + 5 * b)
        edges += [(0, s), (s, a), (s, c), (a, d), (a, e), (c, d), (c, e), (d, e)]
    return Graph(16, edges)


def descent_inputs(sizes, flowers, seeds, rounds):
    """(graph, seed, max_rounds) for the frozen-reference descent check:
    random subcubic graphs of the given sizes, flower snarks J_k, and inputs
    with no 2-factor (subcubic, disconnected or matching-free), which start
    from greedy plus properize."""
    flower5 = make_named("flower", 5)
    greedy_start = [
        no_perfect_matching_cubic(),
        Graph(5, []),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        make_named("cycle", 9),
        Graph(22, list(flower5.edges) + [(20, 21)]),
        Graph(20, [e for e in make_named("petersen").edges if 0 not in e] + [(10 + i, 11 + i) for i in range(9)]),
    ]
    out = []
    for seed in seeds:
        out += [(random_subcubic(n, 4300 + n + seed), seed, rounds) for n in sizes]
        out += [(make_named("flower", k), seed, 200) for k in flowers]
        out += [(g, seed, rounds) for g in greedy_start]
    return out


def test_heuristic_descent_matches_frozen_reference():
    graphs = [make_named("flower", k) for k in (5, 7, 9)]
    graphs += [random_subcubic(20 + 7 * i, 4100 + i) for i in range(40)]
    cases = [(g, i, 8 + i % 60) for i, g in enumerate(graphs)]
    cases += [(g, i, r) for i, g in enumerate(graphs[:12]) for r in (0, 1)]
    cases += descent_inputs(range(200, 501, 100), (5, 11, 15), (0, 1), 64)
    rounds: dict = {}
    for g, seed, max_rounds in cases:
        got = heuristic_descent(g, seed=seed, max_rounds=max_rounds)
        assert (got.s_value, got.witness.colours) == reference_descent(g, seed, max_rounds, rounds)
    assert rounds["plateau"] > 1000 and rounds["improving"] > 500 and rounds["most_moved"] > 20, rounds
    # the witness comes from the table when the run ends on its best state
    # (here at s = 0), and from the copy taken when a swap left that state
    for g, s, at_best in ((random_subcubic(300, 4600), 0, True), (make_named("flower", 11), 2, False)):
        got = heuristic_descent(g, seed=0, max_rounds=200)
        assert (got.s_value, got.witness.colours) == reference_descent(g, 0, 200, rounds)
        assert (got.s_value, rounds["ended_at_best"]) == (s, at_best)


@pytest.mark.slow
def test_heuristic_descent_matches_frozen_reference_at_scale():
    rounds: dict = {}
    for g, seed, max_rounds in descent_inputs(range(200, 501, 25), range(5, 16, 2), range(2, 7), 200):
        got = heuristic_descent(g, seed=seed, max_rounds=max_rounds)
        assert (got.s_value, got.witness.colours) == reference_descent(g, seed, max_rounds, rounds)
    assert rounds["plateau"] > 5000 and rounds["improving"] > 2000, rounds
