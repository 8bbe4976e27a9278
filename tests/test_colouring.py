"""Colourings, Kempe machinery, and the improper-to-proper repair."""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from deltamin import (
    Colour,
    ColouringKind,
    ContractViolationError,
    DomainError,
    EdgeColouring,
    Graph,
    kempe_decompose,
    kempe_swap,
    heuristic_descent,
    checks,
    make_named,
    parse_graph6,
    properize,
    random_subcubic,
    solve_exact,
)
from deltamin.colouring import ColourTable, KempeComponent, KempeDecomposition
from deltamin.colours import CODES, COLOUR_ORDER, NON_DELTA

GOLDEN = Path(__file__).parent / "golden"

A, B, G, D = Colour.ALPHA, Colour.BETA, Colour.GAMMA, Colour.DELTA


def random_delta_improper(g: Graph, seed: int) -> EdgeColouring:
    """Independent generator: random colours, then push non-delta clashes to
    delta until only delta-delta adjacencies remain."""
    rng = random.Random(seed)
    colours = [rng.choice(list(Colour)) for _ in range(g.edge_count)]
    while True:
        c = EdgeColouring(g, colours)
        if c.classification() is not ColouringKind.INVALID:
            return c
        for v in range(g.vertex_count):
            seen: dict[Colour, int] = {}
            for eid in g.incident_edges(v):
                col = colours[eid]
                if col is not D and col in seen:
                    colours[eid] = D
                else:
                    seen[col] = eid


def reference_properize(c: EdgeColouring, branches: dict) -> EdgeColouring:
    """Frozen copy of the earlier properize: every round rescans the
    vertices from 0 for the lowest clash and finds the Kempe path in a whole
    decomposition; the test oracle for the rounds, not a second path in the
    package.  branches counts the rounds by how they were resolved."""
    while True:
        clash = None
        for v in range(c.graph.vertex_count):
            deltas = sorted(eid for _, eid in c.graph.adjacency[v] if c.colour_of(eid) is D)
            if len(deltas) >= 2:
                clash = (v, deltas)
                break
        if clash is None:
            return c
        u, deltas = clash
        before = c.colour_class(D)
        c = reference_resolve_clash(c, u, deltas, branches)
        assert c.colour_class(D) < before


def reference_resolve_clash(c: EdgeColouring, u: int, deltas: list, branches: dict) -> EdgeColouring:
    g = c.graph
    e1, e2 = deltas[0], deltas[1]

    def other_end(eid):
        a, b = g.edges[eid]
        return b if a == u else a

    def missing(v, skip):
        present = set(c.colours_at(v, skip=skip))
        return [col for col in NON_DELTA if col not in present]

    if g.degree(u) == 2 or len(deltas) == 3:
        branches["free"] = branches.get("free", 0) + 1
        return c.with_colours({e1: missing(other_end(e1), e1)[0]})
    third = next(eid for _, eid in g.adjacency[u] if eid not in (e1, e2))
    x = c.colour_of(third)
    for eid in (e1, e2):
        for col in missing(other_end(eid), eid):
            if col is not x:
                branches["direct"] = branches.get("direct", 0) + 1
                return c.with_colours({eid: col})
    branches["kempe"] = branches.get("kempe", 0) + 1
    y = next(col for col in NON_DELTA if col is not x)
    d = kempe_decompose(c, x, y)
    at_u = d.component_at(u)
    ends = d.components[at_u].endpoints()
    far_end = ends[1] if ends[0] == u else ends[0]
    target = e2 if other_end(e2) != far_end else e1
    return kempe_swap(c, d, at_u).with_colours({target: x})


def reference_decompose(c: EdgeColouring, x: Colour, y: Colour) -> KempeDecomposition:
    """Frozen copy of the earlier kempe_decompose, with its own incident
    lists, visited-edge set and walk loop; the test oracle for the
    decomposition built on the package's one chain walker."""
    if x is y:
        raise DomainError("need two distinct colours")
    g = c.graph
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for eid, col in enumerate(c.colours):
        if col is x or col is y:
            u, v = g.edges[eid]
            incident[u].append(eid)
            incident[v].append(eid)
    for v, eids in enumerate(incident):
        per = [c.colour_of(e) for e in eids]
        if per.count(x) > 1 or per.count(y) > 1:
            raise DomainError(
                f"restriction to {x.value},{y.value} is improper at vertex {v}"
            )

    visited_edges: set[int] = set()
    components: list[KempeComponent] = []

    def walk(start: int, first_eid: int, is_cycle: bool) -> KempeComponent:
        verts = [start]
        eids = []
        v, eid = start, first_eid
        while True:
            eids.append(eid)
            visited_edges.add(eid)
            a, b = g.edges[eid]
            v = b if v == a else a
            nxt = [e for e in incident[v] if e not in visited_edges]
            if is_cycle and v == start:
                break
            verts.append(v)
            if not nxt:
                break
            eid = nxt[0]
        return KempeComponent(is_cycle, tuple(verts), tuple(eids))

    for v in range(g.vertex_count):
        if len(incident[v]) == 1 and incident[v][0] not in visited_edges:
            components.append(walk(v, incident[v][0], False))
    for v in range(g.vertex_count):
        if len(incident[v]) == 2:
            fresh = [e for e in incident[v] if e not in visited_edges]
            if len(fresh) == 2:
                comp = walk(v, min(fresh), True)
                assert len(comp.edges) % 2 == 0
                components.append(comp)
    return KempeDecomposition(c, (x, y) if x < y else (y, x), tuple(components))


# ---------------------------------------------------------------------------
# EdgeColouring basics


def test_colour_codes_and_order():
    assert "".join(c.value for c in COLOUR_ORDER) == CODES == "abgd"
    assert EdgeColouring(make_named("cycle", 4), "abgd").colours == (A, B, G, D)
    with pytest.raises(DomainError):
        EdgeColouring(make_named("cycle", 4), "abgx")
    assert sorted([D, G, A, B]) == [A, B, G, D]


def test_edge_colouring_accessors():
    g = make_named("cycle", 4)
    c = EdgeColouring(g, [A, B, A, B])
    assert c.colour_of(2) is A
    assert c.colour_class(A) == frozenset({0, 2})
    assert c.colour_class(D) == frozenset()
    assert c.delta_count() == 0
    assert set(c.colours_at(1)) == {A, B}
    assert c.colours_at(1, skip=0) == [B]


def test_edge_colouring_length_and_type_checked():
    g = make_named("cycle", 4)
    with pytest.raises(DomainError):
        EdgeColouring(g, [A, B, A])
    with pytest.raises(DomainError):
        EdgeColouring(g, [A, B, A, "d"])


def test_classification_kinds():
    g = Graph(3, [(0, 1), (1, 2)])  # path, shared vertex 1
    assert EdgeColouring(g, [A, B]).classification() is ColouringKind.PROPER
    assert EdgeColouring(g, [D, D]).classification() is ColouringKind.DELTA_IMPROPER
    assert EdgeColouring(g, [A, A]).classification() is ColouringKind.INVALID


def reference_classification(c: EdgeColouring) -> ColouringKind:
    """Frozen copy of the earlier classification, which counted the colours
    at each vertex in a dict; the test oracle for the matching test."""
    worst = ColouringKind.PROPER
    for v in range(c.graph.vertex_count):
        counts: dict[Colour, int] = {}
        for _, eid in c.graph.adjacency[v]:
            col = c.colour_of(eid)
            counts[col] = counts.get(col, 0) + 1
        for col, k in counts.items():
            if k < 2:
                continue
            if col is not D:
                return ColouringKind.INVALID
            worst = ColouringKind.DELTA_IMPROPER
    return worst


def test_classification_matches_frozen_reference():
    # proper witnesses, delta-improper colourings, the same with one edge
    # recoloured to clash on a proper colour, and edgeless graphs
    proper = [solve_exact(parse_graph6(g6)).witness for g6 in (GOLDEN / "cubic_10.g6").read_text().split()]
    improper = checks.random_improper_colourings(random.Random("classification"), 150, range(2, 30))
    proper += [properize(c) for c in improper]
    clashing = []
    for c in proper + improper:
        for e, (u, _) in enumerate(c.graph.edges):
            for _, f in c.graph.adjacency[u]:
                if f != e and c.colour_of(f) is not D:
                    clashing.append(c.with_colours({e: c.colour_of(f)}))
    inputs = proper + improper + clashing + [EdgeColouring(Graph(n, []), []) for n in (0, 1, 5)]
    kinds = {kind: 0 for kind in ColouringKind}
    for c in inputs:
        want = reference_classification(c)
        assert c.classification() is want, c
        kinds[want] += 1
    assert min(kinds.values()) >= 50, kinds
    # a clash on each of alpha, beta and gamma alone reads invalid
    for col in NON_DELTA:
        assert EdgeColouring(Graph(3, [(0, 1), (1, 2)]), [col, col]).classification() is ColouringKind.INVALID


def test_with_colours_is_functional():
    g = make_named("cycle", 4)
    c = EdgeColouring(g, [A, B, A, B])
    c2 = c.with_colours({0: G})
    assert c.colour_of(0) is A
    assert c2.colour_of(0) is G
    assert c2.colour_of(1) is B


def test_json_round_trip_and_errors():
    g = make_named("k4")
    c = EdgeColouring(g, [A, B, G, G, B, A])
    assert EdgeColouring.from_json(g, c.to_json()) == c
    with pytest.raises(DomainError):
        EdgeColouring.from_json(g, "not json")
    with pytest.raises(DomainError):
        EdgeColouring.from_json(g, '{"wrong": []}')
    with pytest.raises(DomainError):
        EdgeColouring.from_json(g, '{"colours": ["a","b","z","g","b","a"]}')
    with pytest.raises(DomainError):
        EdgeColouring.from_json(g, '{"colours": ["a"]}')


# a 3-edge path, so that "ab" plus "g" would join to the right length
PATH3 = Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("codes, message", [
    ('[["a"], "b", "g"]', "unknown colour code ['a']"),
    ('[1, "b", "g"]', "unknown colour code 1"),
    ('[null, "b", "g"]', "unknown colour code None"),
    ('["a", "", "g"]', "unknown colour code ''"),
    ('["ab", "g"]', "unknown colour code 'ab'"),
    ('["a", "b", "x"]', "unknown colour code 'x'"),
], ids=["list", "number", "null", "empty", "joined", "letter"])
def test_from_json_refuses_each_malformed_code(codes, message):
    # each entry is checked on its own, before the length, and none of them
    # escapes as anything but the DomainError that names it
    with pytest.raises(DomainError) as exc:
        EdgeColouring.from_json(PATH3, '{"colours": %s}' % codes)
    assert str(exc.value) == message


def test_constructor_refuses_letters_in_a_list_and_other_letters_in_a_string():
    with pytest.raises(DomainError) as exc:
        EdgeColouring(PATH3, ["a", "b", "g"])
    assert str(exc.value) == "not a colour: 'a'"
    with pytest.raises(DomainError) as exc:
        EdgeColouring(PATH3, "abx")
    assert str(exc.value) == "not a colour: 'x'"
    with pytest.raises(DomainError) as exc:
        EdgeColouring(PATH3, "abgd")
    assert str(exc.value) == "expected 3 colours, got 4"
    assert EdgeColouring(PATH3, "abg") == EdgeColouring(PATH3, [A, B, G])


@pytest.mark.parametrize("g, method", [
    (make_named("petersen"), "Exact"),
    (make_named("flower", 7), "TwoFactorUpperBound"),
    (random_subcubic(40, 3), "HeuristicUpperBound"),
], ids=["exact", "two-factor", "greedy"])
def test_witness_record_contract(g, method):
    r = solve_exact(g) if method == "Exact" else heuristic_descent(g, seed=1)
    assert r.method.value == method
    w = r.witness
    # the value is one string of code letters, the JSON's text
    assert isinstance(w.codes, str) and len(w.codes) == g.edge_count
    assert json.loads(w.to_json()) == {"colours": list(w.codes)}
    # colours is a tuple of Colour members, and rebuilding from it (as a
    # replay from outside the package does) gives an equal colouring
    assert type(w.colours) is tuple and all(type(c) is Colour for c in w.colours)
    again = EdgeColouring(g, list(w.colours))
    assert again == w and hash(again) == hash(w)
    assert EdgeColouring.from_json(g, w.to_json()) == w
    assert repr(w) == "EdgeColouring(" + "".join(c.value for c in w.colours) + ")"


def test_equality_is_positional():
    g1 = Graph(3, [(0, 1), (1, 2)])
    g2 = Graph(3, [(1, 2), (0, 1)])  # same graph, different edge order
    assert g1 == g2
    assert EdgeColouring(g1, [A, B]) != EdgeColouring(g2, [A, B])
    assert EdgeColouring(g1, [A, B]) == EdgeColouring(g1, [A, B])


# ---------------------------------------------------------------------------
# Kempe decomposition and swaps


def test_kempe_decompose_cycle():
    g = make_named("cycle", 4)
    c = EdgeColouring(g, [A, B, A, B])
    dec = kempe_decompose(c, A, B)
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.is_cycle
    assert len(comp.edges) == 4
    assert dec.component_at(2) == 0
    with pytest.raises(DomainError):
        comp.endpoints()


def test_kempe_decompose_paths():
    # path 0-1-2-3 coloured a,b,a plus a pendant edge coloured g
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    c = EdgeColouring(g, [A, B, A, G])
    dec = kempe_decompose(c, A, B)
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert not comp.is_cycle
    assert set(comp.endpoints()) == {0, 3}
    assert comp.edges == (0, 1, 2)
    # vertex 4 is not touched by the (a,b) subgraph
    assert dec.component_at(4) is None
    # the (a,g) subgraph has two components: path 0-1 and path 1?? no:
    # edges 0 (a), 3 (g) and edge 2 (a) give paths 0-1, 2-3 joined at 2-4
    dec2 = kempe_decompose(c, A, G)
    assert sorted(len(comp.edges) for comp in dec2.components) == [1, 2]


def test_kempe_decompose_rejects_improper_restriction():
    g = Graph(3, [(0, 1), (1, 2)])
    c = EdgeColouring(g, [A, A])
    with pytest.raises(DomainError):
        kempe_decompose(c, A, B)
    # but a pair not involving the clash colour is fine
    assert kempe_decompose(c, G, D).components == ()


def test_kempe_swap_involution_and_properness():
    for seed in range(10):
        g = random_subcubic(12, seed)
        base = properize(random_delta_improper(g, seed))
        for x, y in [(A, B), (B, G), (A, D)]:
            dec = kempe_decompose(base, x, y)
            for i in range(len(dec.components)):
                swapped = kempe_swap(base, dec, i)
                assert swapped.classification() is ColouringKind.PROPER
                # swapping the same component again restores the colouring
                dec2 = kempe_decompose(swapped, x, y)
                back = kempe_swap(swapped, dec2, dec2.component_at(
                    swapped.graph.endpoints(dec.components[i].edges[0])[0]
                ))
                assert back == base


def test_kempe_swap_exchanges_exactly_one_component():
    g = make_named("petersen")
    from deltamin import solve_exact

    c = solve_exact(g).witness
    dec = kempe_decompose(c, A, B)
    swapped = kempe_swap(c, dec, 0)
    comp = set(dec.components[0].edges)
    for eid in range(g.edge_count):
        if eid in comp:
            assert {c.colour_of(eid), swapped.colour_of(eid)} == {A, B}
            assert c.colour_of(eid) is not swapped.colour_of(eid)
        else:
            assert c.colour_of(eid) is swapped.colour_of(eid)


def test_kempe_swap_guards():
    g = make_named("cycle", 4)
    c = EdgeColouring(g, [A, B, A, B])
    dec = kempe_decompose(c, A, B)
    with pytest.raises(DomainError):
        kempe_swap(c, dec, 5)
    other = EdgeColouring(g, [G, D, G, D])
    with pytest.raises(ContractViolationError):
        kempe_swap(other, dec, 0)


def test_kempe_cycles_are_even():
    for seed in range(25):
        g = random_subcubic(14, 100 + seed)
        c = properize(random_delta_improper(g, seed))
        for x in Colour:
            for y in Colour:
                if x is y:
                    continue
                for comp in kempe_decompose(c, x, y).components:
                    if comp.is_cycle:
                        assert len(comp.edges) % 2 == 0


def test_kempe_decompose_matches_frozen_reference():
    # the exact witnesses of cubic_10.g6, and for 300 seeded random subcubic
    # graphs a delta-improper colouring and its properized repair; pairs with
    # delta are improper wherever two delta edges meet
    inputs = [solve_exact(parse_graph6(g6)).witness for g6 in (GOLDEN / "cubic_10.g6").read_text().split()]
    for trial in range(300):
        c = random_delta_improper(random_subcubic(4 + trial % 57, 4000 + trial), 17 * trial + 3)
        inputs += [c, properize(c)]
    decomposed = cycles = improper = several = 0
    for c in inputs:
        for x in Colour:
            for y in Colour:
                try:
                    want = reference_decompose(c, x, y)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        kempe_decompose(c, x, y)
                    assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                    if x is not y:
                        improper += 1
                        clashes = sum(
                            1 for v in range(c.graph.vertex_count)
                            if any(c.colours_at(v).count(col) > 1 for col in (x, y))
                        )
                        several += clashes >= 2
                    continue
                got = kempe_decompose(c, x, y)
                assert got.source is c and got.pair == want.pair
                assert [(k.is_cycle, k.vertices, k.edges) for k in got.components] == [
                    (k.is_cycle, k.vertices, k.edges) for k in want.components
                ]
                decomposed += 1
                cycles += sum(k.is_cycle for k in want.components)
    assert len(inputs) >= 300 and decomposed > 3000 and cycles > 100, (decomposed, cycles)
    assert several > 300 and improper > several, (improper, several)


def test_kempe_path_from_walks_the_decomposition_component():
    # every vertex that sees exactly one of a pair ends a path component of
    # that pair; the table's walk from it is that component of the frozen
    # decomposition, run from that vertex
    walked = 0
    for seed in range(30):
        g = random_subcubic(10 + seed % 25, 500 + seed)
        c = heuristic_descent(g, seed=seed, max_rounds=seed % 4).witness
        t = ColourTable(c)
        for x, y in itertools.permutations(range(4), 2):
            dec = reference_decompose(c, COLOUR_ORDER[x], COLOUR_ORDER[y])
            for v in range(g.vertex_count):
                sees = [col for col in c.colours_at(v) if col in (COLOUR_ORDER[x], COLOUR_ORDER[y])]
                if len(sees) != 1:
                    with pytest.raises(ContractViolationError):
                        t.path_from(v, x, y)
                    continue
                far, path = t.path_from(v, x, y)
                comp = dec.components[dec.component_at(v)]
                assert not comp.is_cycle
                if comp.vertices[0] == v:
                    assert (far, tuple(path)) == (comp.vertices[-1], comp.edges)
                else:
                    assert (far, tuple(path)) == (comp.vertices[0], comp.edges[::-1])
                walked += 1
    assert walked > 1000


def test_kempe_path_from_guards():
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    t = ColourTable(EdgeColouring(g, [A, B, D]))
    # vertex 1 sees both colours and vertex 4 neither, so neither ends a path
    with pytest.raises(ContractViolationError):
        t.path_from(1, 0, 1)
    with pytest.raises(ContractViolationError):
        t.path_from(4, 0, 1)
    assert t.path_from(2, 0, 1) == (0, [1, 0])
    # the table holds delta clashes only: an a/a clash is refused when built
    with pytest.raises(DomainError, match="non-delta clash"):
        ColourTable(EdgeColouring(g, [A, A, B]))


def table_state(t: ColourTable) -> tuple:
    return t.code, t.at, t.deltas


def test_colour_table_components_match_kempe_decompose():
    # every ordered pair of distinct colours, on the exact witnesses of
    # cubic_10.g6 and on properized random delta-improper colourings, then
    # again after each of a run of random swaps made on the table; the
    # frozen decomposition is the oracle, as kempe_decompose shares the walk
    rng = random.Random("colour-table")
    inputs = [solve_exact(parse_graph6(g6)).witness for g6 in (GOLDEN / "cubic_10.g6").read_text().split()]
    inputs += [properize(c) for c in checks.random_improper_colourings(rng, 120, range(2, 40))]
    compared = cycles = walked = 0
    for c in inputs:
        t = ColourTable(c)
        for step in range(4):
            c = t.colouring(t.code)
            assert table_state(t) == table_state(ColourTable(c))
            for x, y in itertools.permutations(range(4), 2):
                want = reference_decompose(c, COLOUR_ORDER[x], COLOUR_ORDER[y]).components
                got = t.components(x, y)
                assert got == [(k.is_cycle, list(k.vertices), list(k.edges)) for k in want]
                compared += 1
                cycles += sum(k.is_cycle for k in want)
                for is_cycle, verts, eids in got:
                    if not is_cycle:
                        assert t.path_from(verts[0], x, y) == (verts[-1], eids)
                        assert t.path_from(verts[-1], x, y) == (verts[0], eids[::-1])
                        walked += 1
            x, y = rng.sample(range(4), 2)
            components = t.components(x, y)
            if components:
                t.swap(rng.choice(components)[2], x, y)
    assert compared > 1500 and cycles > 300 and walked > 3000, (compared, cycles, walked)


class WalkLoops(Exception):
    """A walk came back to an (edge, direction) it had taken, or read more
    codes than a walk that ends can."""


class BudgetCodes(list):
    """A table's codes that raise WalkLoops once more than budget of them
    are read by index, so that a walk that never ends fails a test rather
    than hanging it with lists that grow for ever."""

    budget = 0

    def __getitem__(self, i):
        self.budget -= 1
        if self.budget < 0:
            raise WalkLoops
        return list.__getitem__(self, i)


def reference_table_chains(t: ColourTable, x: int, y: int, met: dict) -> tuple:
    """Frozen copy of the table's earlier chain listing and path walk, whose
    walk called a chain_edges(v) closure at every step and went on along
    the first of its edges other than the one it came by: (components, or
    None where the listing fails, and {v: path_from(v)}).

    On a pair with delta the table may hold a vertex with three chain edges,
    where that first-in-adjacency-order rule decides the way on (counted in
    met["forks"]).  There a walk can circle for ever without coming back to
    its start (it raises WalkLoops once it has taken more steps than there
    are edge directions), or close a cycle of odd length, which the listing
    refuses; both are outside the table's contract and left out, and
    path_from(v) is left out where its walk loops."""
    g = t.graph
    if x == 3 or y == 3:
        code, adjacency = list(t.code), g.adjacency

        def chain_edges(v):
            return [e for _, e in adjacency[v] if code[e] == x or code[e] == y]
    else:
        at = t.at

        def chain_edges(v):
            return [e for e in (at[3 * v + x], at[3 * v + y]) if e >= 0]

    def walk(start, eid):
        verts, eids, at = [start], [], start
        while len(eids) <= 2 * g.edge_count:
            eids.append(eid)
            a, b = g.edges[eid]
            at = b if a == at else a
            if at == start:
                return verts, eids
            verts.append(at)
            onward = [e for e in chain_edges(at) if e != eid]
            met["forks"] += len(onward) > 1
            if not onward:
                return verts, eids
            eid = onward[0]
        raise WalkLoops

    listed = [chain_edges(v) for v in range(g.vertex_count)]
    seen: set = set()
    components: list | None = []
    for is_cycle in (False, True):
        for v, here in enumerate(listed):
            if len(here) == 1 + is_cycle and v not in seen and components is not None:
                try:
                    verts, eids = walk(v, min(here))
                except WalkLoops:
                    components = None
                    break
                if is_cycle and len(eids) % 2:
                    components = None
                    break
                seen.update(verts)
                components.append((is_cycle, verts, eids))
    paths = {}
    for v, here in enumerate(listed):
        if len(here) != 1:
            paths[v] = ContractViolationError
            continue
        try:
            verts, eids = walk(v, here[0])
        except WalkLoops:
            continue
        paths[v] = (verts[-1], eids)
    return components, paths


def test_colour_table_chains_on_delta_improper_tables_match_frozen_walk():
    # random delta-improper colourings held as tables, every ordered pair:
    # pairs with delta meet delta clashes, where a walk's way on is decided
    # by adjacency order
    met = {"forks": 0}
    listed = walked = unlisted = 0
    for trial in range(150):
        g = random_subcubic(4 + trial % 30, 6000 + trial)
        t = ColourTable(random_delta_improper(g, 13 * trial + 1))
        t.code = codes = BudgetCodes(t.code)
        # a walk that ends takes at most one step per edge direction and
        # reads at most three codes a step; a listing walks at most n times
        budget = 3 * (2 * g.edge_count + 2) * (g.vertex_count + 1)
        for x, y in itertools.permutations(range(4), 2):
            forks = met["forks"]
            components, paths = reference_table_chains(t, x, y, met)
            if components is None:
                unlisted += 1
            else:
                codes.budget = budget
                assert t.components(x, y) == components
                listed += 1
            for v, want in paths.items():
                codes.budget = budget
                if want is ContractViolationError:
                    with pytest.raises(ContractViolationError):
                        t.path_from(v, x, y)
                else:
                    assert t.path_from(v, x, y) == want
                    walked += 1
            if 3 not in (x, y):
                assert met["forks"] == forks and components is not None
    assert listed > 1000 and walked > 8000 and met["forks"] > 10000, (listed, walked, met)
    assert unlisted > 0


@pytest.mark.parametrize("call", ["path_from(0, 0, 3)", "components(0, 3)"])
def test_colour_table_walk_that_cannot_end_raises(call):
    # the (alpha, delta) walk from vertex 0 enters the delta clash at vertex 1
    # and goes round the triangle 1-2-3 without coming back to 0; a walk that
    # does not end must fail the test, not hang it or fill memory, so it runs
    # in a child process with a timeout and a 1 GiB address-space cap
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from deltamin import Colour, DomainError, EdgeColouring, Graph\n"
        "from deltamin.colouring import ColourTable\n"
        "D, A = Colour.DELTA, Colour.ALPHA\n"
        "t = ColourTable(EdgeColouring(Graph(4, [(1, 2), (1, 3), (0, 1), (2, 3)]), [D, D, A, A]))\n"
        "try:\n"
        f"    t.{call}\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the (0,3) chain from vertex 0 does not end\n"


def test_colour_table_guards():
    # a delta clash is held (delta has no slots); any other clash is refused
    t = ColourTable(EdgeColouring(Graph(3, [(0, 1), (1, 2)]), [D, D]))
    assert table_state(t) == ([3, 3], [-1] * 9, [0, 1])
    with pytest.raises(DomainError):
        ColourTable(EdgeColouring(Graph(3, [(0, 1), (1, 2)]), [A, A]))
    t = ColourTable(EdgeColouring(Graph(3, [(0, 1), (1, 2)]), [A, B]))
    with pytest.raises(ContractViolationError):
        t.path_from(1, 0, 1)
    # an edge moving into the slot its neighbour leaves keeps the slot
    t.recolour({0: 1, 1: 0})
    assert table_state(t) == ([1, 0], [-1, 0, -1, 1, 0, -1, 1, -1, -1], [])


# ---------------------------------------------------------------------------
# properize


def test_properize_path_of_two_delta_edges():
    g = Graph(3, [(0, 1), (1, 2)])
    c = EdgeColouring(g, [D, D])
    out = properize(c)
    assert out.classification() is ColouringKind.PROPER
    assert out.colour_class(D) < c.colour_class(D)


def test_properize_star():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    c = EdgeColouring(g, [D, D, D])
    out = properize(c)
    assert out.classification() is ColouringKind.PROPER
    assert out.delta_count() <= 1
    assert out.colour_class(D) < c.colour_class(D)


def test_properize_identity_on_proper_input():
    g = make_named("cycle", 5)
    c = EdgeColouring(g, [A, B, A, B, G])
    assert properize(c) == c


def test_properize_rejects_invalid():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        properize(EdgeColouring(g, [A, A]))


def test_properize_returns_a_proper_input_itself():
    # delta edges that form a matching are no clash, so nothing is copied
    g = make_named("cycle", 6)
    c = EdgeColouring(g, [A, D, A, B, D, B])
    assert c.classification() is ColouringKind.PROPER
    assert properize(c) is c


@pytest.mark.parametrize("clash", [A, B, G])
def test_properize_names_a_non_delta_clash(clash):
    # the clash sits next to a delta clash, which must not hide it
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(DomainError, match="^colouring has a non-delta clash$"):
        properize(EdgeColouring(g, [D, D, clash, clash]))


def test_properize_properties_random():
    # the larger acceptance suite runs 1000 of these; keep a quick version
    # here so module-level failures localize
    for seed in range(120):
        g = random_subcubic(3 + seed % 10, seed)
        c = random_delta_improper(g, seed * 31 + 7)
        out = properize(c)
        assert out.classification() is ColouringKind.PROPER
        assert out.colour_class(D) <= c.colour_class(D)
        if c.classification() is ColouringKind.DELTA_IMPROPER:
            assert out.colour_class(D) < c.colour_class(D)
        else:
            assert out == c


def test_properize_matches_frozen_reference():
    branches: dict = {}
    for trial in range(300):
        g = random_subcubic(4 + trial % 57, 9000 + trial)
        c = random_delta_improper(g, 31 * trial + 5)
        assert properize(c).colours == reference_properize(c, branches).colours
    # the rounds cover all three ways of resolving a clash
    assert min(branches.get(k, 0) for k in ("free", "direct", "kempe")) >= 20, branches
