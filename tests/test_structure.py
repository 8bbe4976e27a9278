"""Delta-edge classification, the shift move, the clause verifier, parity."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from deltamin import (
    ClassificationError,
    Colour,
    ColouringKind,
    ContractViolationError,
    DeltaClass,
    DomainError,
    EdgeColouring,
    Graph,
    classify_delta_edges,
    heuristic_descent,
    kempe_decompose,
    kempe_swap,
    make_named,
    parity_signature,
    parse_graph6,
    random_subcubic,
    shift_delta,
    solve_exact,
    verify_theorem1,
)
from deltamin.colouring import ColourTable
from deltamin.structure import (
    ClauseResult,
    DeltaClassification,
    VerificationReport,
    _joining_cycle,
    _joins,
    _memberships_lenient,
)

A, B, G, D = Colour.ALPHA, Colour.BETA, Colour.GAMMA, Colour.DELTA
GOLDEN = Path(__file__).parent / "golden"


def subdivided_k4() -> tuple[Graph, EdgeColouring]:
    """K4 on {0,1,2,3} with edge 0-1 subdivided by 4; the colouring puts
    delta on the degree-2 edge 0-4, which lands it in two classes."""
    g = Graph(5, [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    c = EdgeColouring(g, [D, G, A, B, B, A, G])
    return g, c


# ---------------------------------------------------------------------------
# classification


def test_delta_class_colour_tables():
    assert DeltaClass.A.pair == (A, B)
    assert DeltaClass.A.external_colour is G
    assert DeltaClass.B.pair == (B, G)
    assert DeltaClass.B.external_colour is A
    assert DeltaClass.C.pair == (A, G)
    assert DeltaClass.C.external_colour is B


def test_classify_no_delta_edges():
    cl = classify_delta_edges(solve_exact(make_named("k4")).witness)
    assert cl.memberships == {}
    assert cl.cycles == {}


def test_classify_requires_proper():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        classify_delta_edges(EdgeColouring(g, [D, D]))


def test_classify_petersen_witness(petersen_result):
    w = petersen_result.witness
    cl = classify_delta_edges(w)
    assert set(cl.memberships) == set(w.colour_class(D))
    for e, classes in cl.memberships.items():
        assert classes  # nonempty
        u, v = w.graph.edges[e]
        for cls in classes:
            cycle = cl.cycles[(e, cls)]
            assert len(cycle) % 2 == 1
            assert cycle[0] == e
            # the cycle passes through both ends of e
            ends = set()
            for eid in cycle:
                ends.update(w.graph.edges[eid])
            assert {u, v} <= ends
            # exactly one delta edge on the cycle: e itself
            assert [x for x in cycle if w.colour_of(x) is D] == [e]


def test_classify_double_membership_at_degree_two():
    _, c = subdivided_k4()
    cl = classify_delta_edges(c)
    assert cl.memberships[0] == frozenset({DeltaClass.B, DeltaClass.C})
    assert len(cl.cycles[(0, DeltaClass.B)]) % 2 == 1
    assert len(cl.cycles[(0, DeltaClass.C)]) % 2 == 1


def test_classify_rejects_unjoined_delta_edge():
    # path 0-1-2-3 coloured delta, alpha, delta: neither delta edge has its
    # ends joined by an alternating path, so the minimality claim fails
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = EdgeColouring(g, [D, A, D])
    assert c.classification() is ColouringKind.PROPER
    with pytest.raises(ClassificationError):
        classify_delta_edges(c)


def test_classify_rejects_odd_joining_path():
    # C4 with one delta edge: the joining path has three edges, so the
    # associated cycle would be even and the strict classifier refuses
    g = make_named("cycle", 4)
    c = EdgeColouring(g, [A, B, A, D])
    assert c.classification() is ColouringKind.PROPER
    with pytest.raises(ClassificationError):
        classify_delta_edges(c)


# ---------------------------------------------------------------------------
# shift


def test_shift_to_self_is_identity(petersen_result):
    w = petersen_result.witness
    cl = classify_delta_edges(w)
    e = min(cl.memberships)
    cls = min(cl.memberships[e], key=lambda x: x.value)
    assert shift_delta(w, cl, e, cls, e) == w


def test_shift_moves_delta_and_preserves_everything_else(petersen_result):
    w = petersen_result.witness
    cl = classify_delta_edges(w)
    for e, classes in cl.memberships.items():
        for cls in classes:
            cycle = cl.cycles[(e, cls)]
            for target in cycle:
                out = shift_delta(w, cl, e, cls, target)
                assert out.classification() is ColouringKind.PROPER
                assert out.delta_count() == w.delta_count()
                assert out.colour_class(D) == (w.colour_class(D) - {e}) | {target}
                on_cycle = set(cycle)
                for eid in range(w.graph.edge_count):
                    if eid not in on_cycle:
                        assert out.colour_of(eid) is w.colour_of(eid)


def test_shift_back_restores_delta_class(petersen_result):
    w = petersen_result.witness
    orig = w.colour_class(D)
    cl = classify_delta_edges(w)
    e = min(cl.memberships)
    cls = min(cl.memberships[e], key=lambda x: x.value)
    for target in cl.cycles[(e, cls)]:
        if target == e:
            continue
        out = shift_delta(w, cl, e, cls, target)
        cl2 = classify_delta_edges(out)
        assert cls in cl2.memberships[target]
        back = shift_delta(out, cl2, target, cls, e)
        assert back.colour_class(D) == orig


def test_shift_works_on_double_membership():
    _, c = subdivided_k4()
    cl = classify_delta_edges(c)
    for cls in (DeltaClass.B, DeltaClass.C):
        cycle = cl.cycles[(0, cls)]
        out = shift_delta(c, cl, 0, cls, cycle[-1])
        assert out.classification() is ColouringKind.PROPER
        assert out.delta_count() == 1


def test_shift_guards(petersen_result):
    w = petersen_result.witness
    cl = classify_delta_edges(w)
    e = min(cl.memberships)
    cls = min(cl.memberships[e], key=lambda x: x.value)
    cycle = cl.cycles[(e, cls)]
    off_cycle = next(i for i in range(w.graph.edge_count) if i not in cycle)
    with pytest.raises(DomainError):
        shift_delta(w, cl, e, cls, off_cycle)
    missing_cls = next(x for x in DeltaClass if x not in cl.memberships[e])
    with pytest.raises(DomainError):
        shift_delta(w, cl, e, missing_cls, cycle[1])
    # classification of a different colouring is stale
    other = shift_delta(w, cl, e, cls, cycle[1])
    with pytest.raises(ContractViolationError):
        shift_delta(other, cl, e, cls, cycle[1])


def test_shift_rejects_a_step_onto_a_second_delta_edge():
    # s = 1, but the colouring has two delta edges, 0 and 6, each closed
    # into an odd cycle: B's (0, 5, 3) and A's (6, 5, 7).  Moving delta from
    # 0 onto 5 puts it beside 6 at vertex 0.
    g = Graph(6, [(1, 2), (2, 5), (4, 5), (0, 2), (3, 5), (0, 1), (0, 4), (1, 4)])
    c = EdgeColouring(g, "daggbbda")
    cl = classify_delta_edges(c)
    assert cl.cycles == {(0, DeltaClass.B): (0, 5, 3), (6, DeltaClass.A): (6, 5, 7)}
    with pytest.raises(ContractViolationError) as exc:
        shift_delta(c, cl, 0, DeltaClass.B, 5)
    assert str(exc.value) == (
        "shift step onto edge 5 broke properness; the input colouring was not delta-minimum"
    )


def test_shift_rejects_a_delta_class_that_is_not_a_matching(petersen_result):
    # the Petersen witness (delta = {0, 2}) with edge 1 recoloured delta:
    # edges 0, 1 and 2 make the delta path 0-1-2-3, a clash that no step's
    # look at the ends of the edge taking delta would see
    w = petersen_result.witness
    assert sorted(w.colour_class(D)) == [0, 2]
    cl = classify_delta_edges(w)
    bad = w.with_colours({1: D})
    assert bad.classification() is ColouringKind.DELTA_IMPROPER
    with pytest.raises(DomainError, match="^shift needs a proper colouring: two delta edges meet$"):
        shift_delta(bad, DeltaClassification(bad, cl.memberships, cl.cycles), 0, DeltaClass.B, 4)


# ---------------------------------------------------------------------------
# verifier


CLAUSE_IDS = [
    "delta_incidence",
    "degree_pattern",
    "classification_total",
    "cycle_oddness",
    "external_edge_colour",
    "no_consecutive_degree2",
    "cycles_disjoint",
    "parity_congruence",
    "pair_interaction",
    "triple_interaction",
    "strong_matching_flag",
]


def test_verify_k4_vacuous():
    report = verify_theorem1(solve_exact(make_named("k4")).witness)
    assert [cl.clause_id for cl in report.clauses] == CLAUSE_IDS
    assert report.all_pass
    assert report.delta_count == 0
    assert report.counts == {"A": 0, "B": 0, "C": 0}
    assert report.strong_matching is True


def test_verify_petersen_witness(petersen_result):
    report = verify_theorem1(petersen_result.witness, s_known=2)
    assert report.all_pass
    assert report.delta_count == 2
    assert sum(report.counts.values()) >= 2
    # Petersen admits no strongly matched pair of delta edges in any
    # delta-minimum colouring; the flag records this without failing
    assert report.strong_matching is False
    assert report.clause("strong_matching_flag").passed


def test_verify_witness_present_iff_fail(petersen_result):
    report = verify_theorem1(petersen_result.witness)
    for cl in report.clauses:
        assert (cl.witness is None) == cl.passed


def test_verify_requires_proper():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        verify_theorem1(EdgeColouring(g, [D, D]))


@pytest.mark.parametrize("colours", [[A, A], [D, D]], ids=["non-delta clash", "delta edges meet"])
@pytest.mark.parametrize("check, refusal", [
    (verify_theorem1, "verification needs a proper colouring"),
    (classify_delta_edges, "classification needs a proper colouring"),
], ids=["verify", "classify"])
def test_improper_colourings_are_refused_with_one_text(check, refusal, colours):
    with pytest.raises(DomainError) as exc:
        check(EdgeColouring(Graph(3, [(0, 1), (1, 2)]), colours))
    assert str(exc.value) == refusal


def test_verify_and_classify_build_one_table_and_never_classify(petersen_result, monkeypatch):
    import deltamin.structure as structure

    builds = []

    class CountingTable(ColourTable):
        def __init__(self, c):
            builds.append(c)
            super().__init__(c)

    def refuse(self):
        raise AssertionError("classification() was called")

    monkeypatch.setattr(structure, "ColourTable", CountingTable)
    monkeypatch.setattr(EdgeColouring, "classification", refuse)
    for check in (verify_theorem1, classify_delta_edges):
        for w in (petersen_result.witness, solve_exact(make_named("k4")).witness):
            builds.clear()
            check(w)
            assert builds == [w]


def test_verify_flags_unjoined_delta():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    report = verify_theorem1(EdgeColouring(g, [D, A, D]))
    assert not report.all_pass
    assert not report.clause("classification_total").passed
    assert report.clause("classification_total").witness == {"edges": [0, 2]}
    # ends of degree one also break the degree pattern
    assert not report.clause("degree_pattern").passed


def test_verify_flags_even_cycle():
    g = make_named("cycle", 4)
    report = verify_theorem1(EdgeColouring(g, [A, B, A, D]))
    assert not report.clause("cycle_oddness").passed
    assert report.clause("classification_total").passed


def test_verify_parity_uses_s_known(petersen_result):
    w = petersen_result.witness
    assert verify_theorem1(w, s_known=2).clause("parity_congruence").passed
    assert not verify_theorem1(w, s_known=1).clause("parity_congruence").passed


def test_verify_parity_vacuous_on_non_cubic():
    _, c = subdivided_k4()
    report = verify_theorem1(c)
    assert report.clause("parity_congruence").passed
    assert report.clause("parity_congruence").witness is None


def test_verify_report_json(petersen_result):
    report = verify_theorem1(petersen_result.witness)
    payload = json.loads(report.to_json())
    assert set(payload) == {"clauses", "s", "counts", "strong_matching"}
    assert payload["s"] == 2
    assert [cl["id"] for cl in payload["clauses"]] == CLAUSE_IDS
    # byte stability
    assert report.to_json() == verify_theorem1(petersen_result.witness).to_json()


def test_verify_unknown_clause_lookup(petersen_result):
    report = verify_theorem1(petersen_result.witness)
    with pytest.raises(DomainError):
        report.clause("nonsense")


# ---------------------------------------------------------------------------
# parity


def test_parity_signature_petersen(petersen_result):
    cl = classify_delta_edges(petersen_result.witness)
    sig = parity_signature(cl)
    a, b, c = sig.counts
    assert a + b + c == 2
    assert sig.parity_ok
    assert {a % 2, b % 2, c % 2} == {0}


def test_parity_signature_zero_delta():
    cl = classify_delta_edges(solve_exact(make_named("k33")).witness)
    assert parity_signature(cl).counts == (0, 0, 0)
    assert parity_signature(cl).parity_ok


def test_parity_signature_rejects_non_cubic():
    _, c = subdivided_k4()
    cl = classify_delta_edges(c)
    with pytest.raises(DomainError):
        parity_signature(cl)


def test_degree_one_endpoint_identity():
    # the number of degree-1 vertices of the (alpha,beta) subgraph equals
    # 2|A| + |B| + |C| on cubic delta-minimum witnesses, and is even
    for key in ("petersen", "bridged"):
        g = make_named("petersen") if key == "petersen" else parse_graph6("I}KGGGB?w")
        w = solve_exact(g).witness
        cl = classify_delta_edges(w)
        counts = {cls: 0 for cls in DeltaClass}
        for classes in cl.memberships.values():
            for cls in classes:
                counts[cls] += 1
        dec = kempe_decompose(w, A, B)
        deg1 = sum(
            len(comp.endpoints()) for comp in dec.components if not comp.is_cycle
        )
        want = 2 * counts[DeltaClass.A] + counts[DeltaClass.B] + counts[DeltaClass.C]
        assert deg1 == want
        assert deg1 % 2 == 0


# ---------------------------------------------------------------------------
# the verifier's scans against frozen copies of the whole-graph versions


def reference_joining_edges(c: EdgeColouring, e1: int, e2: int) -> list:
    """Frozen copy of the earlier O(m) scan: edges with one end on e1 and
    the other on e2."""
    g = c.graph
    ends1, ends2 = set(g.edges[e1]), set(g.edges[e2])
    out = []
    for eid, (a, b) in enumerate(g.edges):
        if eid in (e1, e2):
            continue
        if (a in ends1 and b in ends2) or (a in ends2 and b in ends1):
            out.append(eid)
    return out


def reference_verify(c: EdgeColouring) -> VerificationReport:
    """Frozen copy of the earlier verify_theorem1 (s_known unset), which
    scanned every edge per cycle, pair and trio; the test oracle for the
    report, not a second path in the package.  Memberships come from the
    package's _memberships_lenient, which reference_memberships checks."""
    g = c.graph
    delta_edges = sorted(c.colour_class(D))
    found = _memberships_lenient(ColourTable(c))

    def cycle_vertices(cycle):
        verts = set()
        for eid in cycle:
            verts.update(g.edges[eid])
        return verts

    def clause(name, bad, key):
        return ClauseResult(name, not bad, {key: bad} if bad else None)

    clauses = []
    bad = []
    for e in delta_edges:
        u, v = g.edges[e]
        if not {A, B, G} <= set(c.colours_at(u, skip=e)) | set(c.colours_at(v, skip=e)):
            bad.append(e)
    clauses.append(clause("delta_incidence", bad, "edges"))
    bad = [e for e in delta_edges
           if sorted(g.degree(x) for x in g.edges[e]) not in ([2, 3], [3, 3])]
    clauses.append(clause("degree_pattern", bad, "edges"))
    clauses.append(clause("classification_total", [e for e in delta_edges if not found[e]], "edges"))
    bad = []
    for e in delta_edges:
        for cls, cycle in found[e].items():
            if len(cycle) % 2 == 0 or [x for x in cycle if c.colour_of(x) is D] != [e]:
                bad.append({"edge": e, "class": cls.value, "length": len(cycle)})
    clauses.append(clause("cycle_oddness", bad, "cycles"))
    bad = []
    for e in delta_edges:
        for cls, cycle in found[e].items():
            verts = cycle_vertices(cycle)
            for eid, (a, b) in enumerate(g.edges):
                if (a in verts) != (b in verts) and c.colour_of(eid) is not cls.external_colour:
                    bad.append({"edge": e, "class": cls.value, "external": eid})
    clauses.append(clause("external_edge_colour", bad, "edges"))
    bad = []
    for e in delta_edges:
        for cls, cycle in found[e].items():
            for eid in cycle:
                a, b = g.edges[eid]
                if g.degree(a) == 2 and g.degree(b) == 2:
                    bad.append({"edge": e, "class": cls.value, "vertices": [a, b]})
    clauses.append(clause("no_consecutive_degree2", bad, "pairs"))
    bad = []
    for e1, e2 in combinations(delta_edges, 2):
        for cyc1 in found[e1].values():
            for cyc2 in found[e2].values():
                shared = cycle_vertices(cyc1) & cycle_vertices(cyc2)
                if shared:
                    bad.append({"edges": [e1, e2], "vertices": sorted(shared)})
    clauses.append(clause("cycles_disjoint", bad, "pairs"))
    counts = {cls.value: 0 for cls in DeltaClass}
    for e in delta_edges:
        for cls in found[e]:
            counts[cls.value] += 1
    if g.is_cubic():
        values = [counts["A"], counts["B"], counts["C"], len(delta_edges)]
        ok = len({v % 2 for v in values}) == 1
        clauses.append(ClauseResult(
            "parity_congruence", ok, None if ok else {"counts": dict(counts), "target": len(delta_edges)}
        ))
    else:
        clauses.append(ClauseResult("parity_congruence", True, None))
    bad = []
    for e1, e2 in combinations(delta_edges, 2):
        if not found[e1] or not found[e2]:
            continue
        joining = reference_joining_edges(c, e1, e2)
        if len(joining) > (1 if set(found[e1]) & set(found[e2]) else 0):
            bad.append({"edges": [e1, e2], "joining": joining})
    clauses.append(clause("pair_interaction", bad, "pairs"))
    bad = []
    for cls in DeltaClass:
        members = [e for e in delta_edges if cls in found[e]]
        for trio in combinations(members, 3):
            verts = set()
            for e in trio:
                verts.update(g.edges[e])
            induced = [eid for eid, (a, b) in enumerate(g.edges) if a in verts and b in verts]
            if len(induced) > 4:
                bad.append({"edges": list(trio), "class": cls.value, "induced": induced})
    clauses.append(clause("triple_interaction", bad, "triples"))
    strong = all(not reference_joining_edges(c, e1, e2) for e1, e2 in combinations(delta_edges, 2))
    clauses.append(ClauseResult("strong_matching_flag", True, None))
    return VerificationReport(tuple(clauses), len(delta_edges), counts, strong)


def reference_memberships(c: EdgeColouring) -> list:
    """Frozen copy of the earlier whole-graph joining-path search: per class,
    every path of its colour pair from kempe_decompose, indexed by endpoint
    set; a delta edge joined by one gets the cycle (e,) + path edges.  The
    oracle for _memberships_lenient, as ordered (edge, [(class, cycle)])."""
    paths = {}
    for cls in DeltaClass:
        paths[cls] = {
            frozenset(comp.endpoints()): comp
            for comp in kempe_decompose(c, *cls.pair).components
            if not comp.is_cycle
        }
    out = []
    for e in sorted(c.colour_class(D)):
        key = frozenset(c.graph.edges[e])
        out.append((e, [(cls, (e,) + paths[cls][key].edges) for cls in DeltaClass if key in paths[cls]]))
    return out


def heuristic_witnesses() -> list:
    """100 seeded proper colourings from the heuristic path, stopped after
    0 to 63 descent rounds so that many are far from minimum; most also get
    a few edges with delta-free neighbourhoods recoloured delta."""
    out = []
    for seed in range(100):
        g = random_subcubic(6 + seed % 40, 700 + seed)
        colours = list(heuristic_descent(g, seed=seed, max_rounds=(seed * 7) % 64).witness.colours)
        rng = random.Random(seed)
        for _ in range(seed % 8):
            e = rng.randrange(g.edge_count)
            if all(colours[f] is not D for x in g.edges[e] for _, f in g.adjacency[x]):
                colours[e] = D
        out.append(EdgeColouring(g, colours))
    return out


def random_proper_colourings(count: int) -> list:
    """Seeded random proper 4-edge-colourings of small subcubic graphs; rare
    clause failures, such as triple_interaction, show up among these."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        g = random_subcubic(rng.randrange(6, 11), seed)
        used: list = [set() for _ in range(g.vertex_count)]
        colours = []
        for u, v in g.edges:
            free = [col for col in Colour if col not in used[u] and col not in used[v]]
            if not free:
                break
            colours.append(rng.choice(free))
            used[u].add(colours[-1])
            used[v].add(colours[-1])
        else:
            out.append(EdgeColouring(g, colours))
    return out


def random_matching(g: Graph, rng: random.Random) -> list:
    """A seeded random matching of g, ascending: edges taken in shuffled
    order, each kept with probability 3/4 when its ends are still free."""
    used = set()
    matching = []
    for e in rng.sample(range(g.edge_count), g.edge_count):
        u, v = g.edges[e]
        if u not in used and v not in used and rng.random() < 0.75:
            used.update((u, v))
            matching.append(e)
    return sorted(matching)


def test_joining_edges_matches_whole_graph_scan():
    pairs = joined = 0
    for seed in range(50):
        g = random_subcubic(6 + seed % 30, 1200 + seed)
        c = EdgeColouring(g, [A] * g.edge_count)  # both scans read the graph only
        delta_edges = random_matching(g, random.Random(seed))
        joins = _joins(c, delta_edges)
        assert set(joins) <= set(combinations(delta_edges, 2))
        for e1, e2 in combinations(delta_edges, 2):
            assert joins.get((e1, e2), []) == reference_joining_edges(c, e1, e2)
            pairs += 1
            joined += (e1, e2) in joins
    assert 300 < joined < pairs


def test_verify_matches_frozen_reference_on_seeded_witnesses():
    failing = set()
    strong = set()
    for c in heuristic_witnesses() + random_proper_colourings(4000):
        report = verify_theorem1(c)
        assert report.to_json() == reference_verify(c).to_json()
        failing.update(cl.clause_id for cl in report.clauses if not cl.passed)
        strong.add(report.strong_matching)
    # the clauses whose scans changed all report witnesses somewhere
    assert {"external_edge_colour", "cycles_disjoint", "pair_interaction",
            "triple_interaction"} <= failing
    assert strong == {True, False}


def class_a_ring(k: int, offset: int) -> tuple[list, list]:
    """Edges and colours of k >= 2 delta edges (u, v) = (3i, 3i + 2), shifted
    by offset, each closed into a class-A triangle by the alpha/beta path
    through 3i + 1, and v of each joined to u of the next by a gamma edge:
    one pair joined twice when k = 2, a ring of singly joined pairs beyond,
    so the pair or trio clauses fail."""
    edges, colours = [], []
    for i in range(k):
        u, a, v = (offset + 3 * i + j for j in range(3))
        edges += [(u, v), (u, a), (a, v), (v, offset + 3 * ((i + 1) % k))]
        colours += [D, A, B, G]
    return edges, colours


def many_class_a_witnesses() -> list:
    """heuristic_descent witnesses of 2 to 8 disjoint Petersen copies and of
    rings of 3 to 12 Petersen-minus-edge blocks (vertex 1 of each block
    joined to vertex 0 of the next), which put most of their delta edges in
    class A.  Each also comes with one to six edges of delta-free
    neighbourhood recoloured delta, and beside a class_a_ring, whose joined
    pairs make trios with the witness's many class-A edges."""
    pet = make_named("petersen").edges
    ring_block = [e for e in pet if e != (0, 1)]
    graphs = [Graph(10 * k, [(u + 10 * i, v + 10 * i) for i in range(k) for u, v in pet])
              for k in range(2, 9)]
    graphs += [Graph(10 * k, [(u + 10 * i, v + 10 * i) for i in range(k) for u, v in ring_block]
                     + [(10 * i + 1, 10 * ((i + 1) % k)) for i in range(k)])
               for k in range(3, 13)]
    out = []
    for seed, g in enumerate(graphs):
        witness = heuristic_descent(g, seed=seed).witness
        out.append(witness)
        rng = random.Random(seed)
        for count in range(1, 7):
            colours = list(witness.colours)
            for _ in range(count):
                e = rng.randrange(g.edge_count)
                if all(colours[f] is not D for x in g.edges[e] for _, f in g.adjacency[x]):
                    colours[e] = D
            out.append(EdgeColouring(g, colours))
        k = 2 + seed % 4
        edges, colours = class_a_ring(k, g.vertex_count)
        out.append(EdgeColouring(Graph(g.vertex_count + 3 * k, list(g.edges) + edges),
                                 list(witness.colours) + colours))
    return out


def test_verify_matches_frozen_reference_with_many_delta_edges_in_one_class():
    failing = set()
    largest = 0
    for c in many_class_a_witnesses():
        report = verify_theorem1(c)
        assert report.to_json() == reference_verify(c).to_json()
        failing.update(cl.clause_id for cl in report.clauses if not cl.passed)
        largest = max(largest, report.counts["A"])
    assert largest >= 12
    assert {"cycles_disjoint", "pair_interaction", "triple_interaction"} <= failing


def test_verify_matches_frozen_reference_on_golden_corpus():
    graphs = (GOLDEN / "analyze_heuristic.g6").read_text().split()
    records = [json.loads(ln) for ln in (GOLDEN / "analyze_heuristic.jsonl").read_text().splitlines()]
    assert len(graphs) == len(records) == 6
    for g6, rec in zip(graphs, records):
        c = EdgeColouring(parse_graph6(g6), "".join(rec["colours"]))
        report = verify_theorem1(c)
        assert report.to_json() == reference_verify(c).to_json()
        assert json.loads(report.to_json()) == rec["verification"]


def cubic_10_12_witnesses() -> list:
    """The exact witnesses of cubic_10.g6 and cubic_12.g6."""
    return [solve_exact(parse_graph6(g6)).witness
            for name in ("cubic_10.g6", "cubic_12.g6") for g6 in (GOLDEN / name).read_text().split()]


def membership_witnesses() -> list:
    """The exact witnesses of cubic_10.g6 and cubic_12.g6, heuristic_descent
    witnesses of analyze_heuristic.g6, and heuristic_descent stopped after 0
    to 15 rounds on 240 seeded random subcubic graphs with 4 to 63 vertices;
    the last two hold many delta edges that no path joins."""
    out = cubic_10_12_witnesses()
    out += [heuristic_descent(parse_graph6(g6)).witness
            for g6 in (GOLDEN / "analyze_heuristic.g6").read_text().split()]
    for seed in range(240):
        g = random_subcubic(4 + seed % 60, 900 + seed)
        out.append(heuristic_descent(g, seed=seed, max_rounds=seed % 16).witness)
    return out


def test_memberships_match_whole_graph_reference():
    joined = unjoined = 0
    for c in membership_witnesses():
        got = [(e, list(per_class.items())) for e, per_class in _memberships_lenient(ColourTable(c)).items()]
        assert got == reference_memberships(c)
        joined += sum(len(per_class) for _, per_class in got)
        unjoined += sum(not per_class for _, per_class in got)
    assert joined > 80 and unjoined > 80


# ---------------------------------------------------------------------------
# the shift against a frozen copy of the EdgeColouring version


def reference_shift(c: EdgeColouring, cl, e: int, cls: DeltaClass, e_target: int) -> EdgeColouring:
    """Frozen copy of the earlier shift_delta with its post-checks: a new
    EdgeColouring and a whole-colouring properness check per step, then the
    delta class, every off-cycle edge and the target's cycle re-checked on
    the result; the test oracle for the shift, not a second path in the
    package."""
    if cl.colouring != c:
        raise ContractViolationError("classification describes a different colouring")
    if e not in cl.memberships or cls not in cl.memberships[e]:
        raise DomainError(f"edge {e} is not classified {cls.value}")
    cycle = cl.cycles[(e, cls)]
    if e_target not in cycle:
        raise DomainError(f"edge {e_target} is not on the {cls.value} cycle of edge {e}")
    if e_target == e:
        return c
    result = c
    for pos in range(1, cycle.index(e_target) + 1):
        prev_e, cur_e = cycle[pos - 1], cycle[pos]
        result = result.with_colours({prev_e: result.colour_of(cur_e), cur_e: result.colour_of(prev_e)})
        if result.classification() is not ColouringKind.PROPER:
            raise ContractViolationError(
                f"shift step onto edge {cur_e} broke properness; "
                "the input colouring was not delta-minimum"
            )
    if result.colour_class(D) != (c.colour_class(D) - {e}) | {e_target}:
        raise ContractViolationError("shift changed delta edges other than e/e_target")
    on_cycle = set(cycle)
    for eid in range(c.graph.edge_count):
        if eid not in on_cycle and c.colour_of(eid) is not result.colour_of(eid):
            raise ContractViolationError("shift touched an edge off the cycle")
    joined = _joining_cycle(ColourTable(result), e_target, cls)
    if joined is None or set(joined) != on_cycle:
        raise ContractViolationError("target edge lost its class or cycle after shift")
    return result


def kempe_perturbed(base: EdgeColouring, rng: random.Random, rounds: int) -> list:
    """The colourings met by swapping a seeded random Kempe chain of a
    seeded random colour pair, delta included, rounds times from base."""
    out = []
    c = base
    for _ in range(rounds):
        d = kempe_decompose(c, *rng.sample(list(Colour), 2))
        if d.components:
            c = kempe_swap(c, d, rng.randrange(len(d.components)))
            out.append(c)
    return out


def shift_positions(colourings: list) -> list:
    """Every (colouring, classification, edge, class, target) shift of the
    colourings that classify, over every position of every cycle."""
    out = []
    for c in colourings:
        try:
            cl = classify_delta_edges(c)
        except ClassificationError:
            continue
        for (e, cls), cycle in cl.cycles.items():
            out += [(c, cl, e, cls, target) for target in cycle]
    return out


def shift_outcome(shift, *args):
    """The shifted colouring, or the type and message of what was raised."""
    try:
        return shift(*args)
    except (ContractViolationError, DomainError) as exc:
        return type(exc), str(exc)


def test_shift_matches_frozen_reference_on_seeded_witnesses():
    exact = cubic_10_12_witnesses()
    bases = exact + [heuristic_descent(random_subcubic(6 + seed % 20, 3000 + seed), seed=seed,
                                       max_rounds=seed % 4).witness for seed in range(200)]
    perturbed = [c for i, base in enumerate(bases) for c in kempe_perturbed(base, random.Random(i), 12)]
    for args in shift_positions(exact):
        # delta-minimum inputs: every shift succeeds
        assert shift_outcome(shift_delta, *args) == reference_shift(*args)
    positions = raising = 0
    for args in shift_positions(perturbed):
        got = shift_outcome(shift_delta, *args)
        assert got == shift_outcome(reference_shift, *args)
        positions += 1
        raising += isinstance(got, tuple)
    assert positions >= 1000 and raising >= 20
