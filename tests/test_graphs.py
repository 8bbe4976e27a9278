"""Graph container, codecs, named instances, and cubic enumeration.

graph6 behaviour is cross-validated against networkx in both directions.
The enumeration is checked against an independent labelled brute force for
n <= 8, against pairwise networkx isomorphism at n = 10 and 16, and against
its order contract (least breadth-first labellings) for n <= 10.
"""

import itertools
import random
import re
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamin import (
    DomainError,
    Graph,
    GraphFormatError,
    emit_edge_list,
    emit_graph6,
    enumerate_cubic,
    induced_subgraph,
    isomorphic,
    make_named,
    parse_edge_list,
    parse_graph6,
    random_subcubic,
)
from deltamin.graphs import NAMED_GRAPHS, _g6_payload, _g6_read_size

GOLDEN = Path(__file__).parent / "golden"


def to_nx(g: Graph) -> nx.Graph:
    # nx.Graph(edges) inserts nodes in edge order, which changes graph6
    # output; nodes must be added 0..n-1 first.
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


# ---------------------------------------------------------------------------
# container


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.degree(0) == 2
    assert g.degrees() == (2, 2, 2, 2)
    assert g.neighbours(1) == (0, 2)
    assert g.has_edge(3, 0) and g.has_edge(0, 3)
    assert not g.has_edge(0, 2)
    assert g.endpoints(g.edge_id(2, 3)) == (2, 3)
    assert g.is_connected()
    assert not g.is_cubic()


def test_graph_edges_normalized_and_order_insensitive_equality():
    a = Graph(3, [(1, 0), (2, 1)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a.edges == ((0, 1), (1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(4, [(0, 1), (1, 2)])  # extra isolated vertex


def test_graph_keeps_normalised_edge_tuples_and_copies_the_rest():
    given = [(0, 1), (2, 1), [2, 3]]
    g = Graph(4, given)
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.edges[0] is given[0]
    assert all(type(e) is tuple for e in g.edges)
    assert g.edge_id(3, 2) == 2


def test_graph_equals_itself_without_comparing_edges():
    g = make_named("petersen")
    g._edge_ids = None  # any comparison of edge keys would now raise
    assert g == g


def test_graph_rejects_bad_input():
    with pytest.raises(DomainError):
        Graph(3, [(0, 3)])  # out of range
    with pytest.raises(DomainError):
        Graph(3, [(1, 1)])  # self loop
    with pytest.raises(DomainError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, [(0, 1), (2, 1), (1, 0)])  # duplicate, named as normalised
    with pytest.raises(DomainError):
        Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # degree four
    with pytest.raises(DomainError):
        Graph(-1, [])


def test_components_and_connectivity():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5, 6]]
    assert not g.is_connected()


def test_induced_subgraph_maps():
    g = make_named("petersen")
    vertices = [0, 1, 2, 5]
    sub, emap = induced_subgraph(g, vertices)
    assert sub.vertex_count == 4
    # edges 0-1, 1-2, 0-5 survive
    assert sub.edge_count == 3
    for new_eid, old_eid in enumerate(emap):
        a, b = sub.endpoints(new_eid)
        assert tuple(sorted((vertices[a], vertices[b]))) == g.endpoints(old_eid)


def reference_induced_subgraph(g: Graph, vertices) -> tuple:
    """Frozen copy of induced_subgraph as it was when it scanned every edge
    of g, less its vertex map (which was list(vertices))."""
    index = {v: i for i, v in enumerate(vertices)}
    sub_edges = []
    edge_map = []
    for eid, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            sub_edges.append((index[u], index[v]))
            edge_map.append(eid)
    return Graph(len(vertices), sub_edges), edge_map


def test_induced_subgraph_matches_frozen_reference():
    rng = random.Random("induced")
    for seed in range(300):
        n = rng.randint(1, 24)
        g = random_subcubic(n, seed)
        if seed % 2:  # disconnected: drop a random third of the edges
            g = Graph(n, [e for e in g.edges if rng.random() < 0.67])
        for vertices in (
            [],
            rng.sample(range(n), rng.randint(1, n)),
            [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))],
        ):
            sub, emap = induced_subgraph(g, vertices)
            ref, ref_emap = reference_induced_subgraph(g, vertices)
            assert (sub.vertex_count, sub.edges, emap) == (ref.vertex_count, ref.edges, ref_emap), (g.edges, vertices)


class IndexOnlyEdges(tuple):
    """An edge tuple that can be indexed but refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("the whole edge tuple was scanned")


def test_induced_subgraph_reads_only_incidence_lists():
    pet = make_named("petersen")
    g = Graph(30, [(u + 10 * i, v + 10 * i) for i in range(3) for u, v in pet.edges])
    g.edges = IndexOnlyEdges(g.edges)
    sub, emap = induced_subgraph(g, range(10, 20))
    assert sub.edges == pet.edges
    assert emap == list(range(15, 30))


@pytest.mark.parametrize("vertices", [[0, 10], [3, -1], [-10]])
def test_induced_subgraph_refuses_vertices_outside_the_graph(vertices):
    with pytest.raises(DomainError, match="out of range"):
        induced_subgraph(make_named("petersen"), vertices)


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_small_values():
    # '?' is the empty graph on 0 vertices, 'C~' is K4
    assert parse_graph6("?") == Graph(0, [])
    assert emit_graph6(Graph(0, [])) == "?"
    k4 = make_named("k4")
    assert emit_graph6(k4) == "C~"
    assert parse_graph6("C~") == k4
    assert parse_graph6("D??") == Graph(5, [])
    assert parse_graph6(">>graph6<<C~") == k4  # optional header


@pytest.mark.parametrize("name,k", [("k4", None), ("k33", None), ("petersen", None), ("cycle", 7), ("flower", 5)])
def test_graph6_emit_matches_networkx(name, k):
    g = make_named(name, k)
    ours = emit_graph6(g)
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert ours == theirs


def test_graph6_parse_matches_networkx_on_random_graphs():
    for seed in range(30):
        g = random_subcubic(3 + seed % 12, seed)
        text = emit_graph6(g)
        theirs = nx.from_graph6_bytes(text.encode())
        assert set(theirs.nodes) == set(range(g.vertex_count))
        assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges)
        assert parse_graph6(text) == g


def test_graph6_long_form_sizes():
    # 63 vertices is the last short-form size, 64 needs the 4-byte form.
    for n in (62, 63, 64, 70):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        text = emit_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert text == theirs
        assert parse_graph6(text) == g


def test_graph6_degree_guard_names_vertex():
    # star K1,4 is valid graph6 but exceeds the degree cap here
    text = nx.to_graph6_bytes(nx.star_graph(4), header=False).decode().strip()
    with pytest.raises(DomainError) as err:
        parse_graph6(text)
    assert "0" in str(err.value)


def test_graph6_error_offsets():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("")
    assert "offset 0" in str(err.value)
    # byte out of printable range: chr(127) (chr(31) would be stripped as
    # whitespace by str.strip before it reaches the decoder)
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("C" + chr(127) + "~")
    assert "offset 1" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("C~~")  # trailing garbage after K4
    assert "offset 2" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("C")  # truncated body
    assert "offset" in str(err.value)
    # n=4 fills its 6-bit group exactly, so padding needs n=5
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("D?A")
    assert "padding" in str(err.value) and "offset 2" in str(err.value)


def reference_parse_graph6(text: str) -> Graph:
    """Frozen copy of the earlier parse_graph6: a regex pass for the byte
    range, then a regex pass over the nonzero groups, with each set bit's
    column found by isqrt; the test oracle for the one-regex decoder."""
    data = _g6_payload(text)
    bad = re.compile(rb"[^\x3f-\x7e]").search(data)
    if bad:
        pos = bad.start()
        raise GraphFormatError(f"byte {data[pos]} outside graph6 range", pos)
    n, start = _g6_read_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    expected = start + nbytes
    if len(data) < expected:
        raise GraphFormatError(
            f"truncated graph6 data: expected {expected} bytes, got {len(data)}",
            len(data),
        )
    if len(data) > expected:
        raise GraphFormatError("trailing bytes after graph6 data", expected)
    edges = []
    for hit in re.compile(rb"[^?]").finditer(data, start, expected):
        pos = hit.start()
        base = (pos - start) * 6
        for off in range(6):
            if not (data[pos] - 63) >> (5 - off) & 1:
                continue
            k = base + off
            if k >= nbits:
                raise GraphFormatError("nonzero padding bit", pos)
            j = (1 + isqrt(8 * k + 1)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges)


def parse_outcome(parse, text: str):
    """The parsed graph's size and edges in order, or what was raised with
    its message and offset."""
    try:
        g = parse(text)
    except (GraphFormatError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return g.vertex_count, g.edges


def test_graph6_parse_matches_frozen_reference():
    rng = random.Random("graph6")
    texts = [line for name in sorted(GOLDEN.glob("*.g6")) for line in name.read_text().split()]
    texts += [emit_graph6(random_subcubic(rng.randrange(1, 63), seed)) for seed in range(300)]
    texts += [emit_graph6(random_subcubic(rng.randrange(63, 700), seed)) for seed in range(40)]
    texts += [emit_graph6(random_subcubic(n, 7)) for n in (1000, 2000)] + [emit_graph6(make_named("flower", 101))]
    # every way to fail: each is also made from every text above, at a
    # seeded position
    malformed = ["", ">>graph6<<", "~", "~?", "~??", "~~", "~~??", "C", "C~~", "D?A", "Cé~", "C\x7f~",
                 "C>~", " C~ ", ">>graph6<<C~", "~?@??", nx.to_graph6_bytes(nx.star_graph(4), header=False).decode()]
    for text in texts:
        pos = rng.randrange(len(text))
        malformed += [
            text[:pos] + chr(rng.choice((0x7f, 0x3e, 0x20 + rng.randrange(0x1f)))) + text[pos + 1:],
            text[:pos] + "é" + text[pos + 1:],
            text[:-1],
            text + "?",
            text[:-1] + chr(min(ord(text[-1]) + 1, 126)),
            text[:pos] + "~" + text[pos + 1:],
        ]
    failures = []
    for text in texts + malformed:
        want = parse_outcome(reference_parse_graph6, text)
        assert parse_outcome(parse_graph6, text) == want, text[:40]
        if isinstance(want[0], type):
            failures.append(re.sub(r"[ :(].*", "", want[1]))
    assert len(failures) > 1000 and len(set(failures)) >= 7, Counter(failures)


@pytest.mark.parametrize("seed", [1, 2])
def test_graph6_round_trip_matches_networkx_on_large_graphs(seed):
    g = random_subcubic(2000, seed)
    text = emit_graph6(g)
    theirs = nx.from_graph6_bytes(text.encode())
    assert set(theirs.nodes) == set(range(g.vertex_count))
    assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges)
    back = parse_graph6(text)
    assert back == g
    # edges come back in the column-major order of their bits
    assert back.edges == tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def test_graph6_parse_of_networkx_emission_on_a_large_graph():
    g = random_subcubic(2000, 3)
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert emit_graph6(g) == theirs
    assert parse_graph6(theirs) == g


def test_graph6_error_offsets_in_long_strings():
    text = emit_graph6(random_subcubic(2000, 1))
    assert text[0] == "~"  # long-form size field
    pos = len(text) - 1000
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(text[:pos] + chr(127) + text[pos + 1:])
    assert "byte 127 outside graph6 range" in str(err.value)
    assert err.value.offset == pos
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(text[:-1])
    assert "truncated" in str(err.value) and err.value.offset == len(text) - 1
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(text + "?")
    assert "trailing" in str(err.value) and err.value.offset == len(text)
    # n=65 has 2080 pair bits: the last byte carries two padding bits
    path = emit_graph6(Graph(65, [(i, i + 1) for i in range(64)]))
    assert path[0] == "~" and 65 * 64 // 2 % 6 == 4
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(path[:-1] + chr(ord(path[-1]) + 1))
    assert "nonzero padding bit" in str(err.value)
    assert err.value.offset == len(path) - 1


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_round_trip_and_header():
    g = make_named("k33")
    text = emit_edge_list(g)
    assert text.splitlines()[0] == "6 9"
    assert parse_edge_list(text) == g


def test_edge_list_without_header_and_comments():
    text = "# triangle\n0 1\n1 2\n\n2 0\n"
    assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_edge_list_header_with_isolated_vertex():
    # the header is what records the isolated vertex 4
    g = parse_edge_list("5 2\n0 1\n2 3\n")
    assert g.vertex_count == 5
    assert g.edge_count == 2


def test_edge_list_first_line_is_an_edge_when_not_header_shaped():
    # "3 1" followed by two more rows: 1 != 2 remaining rows, so it is an edge
    g = parse_edge_list("3 1\n0 1\n0 2\n")
    assert g.vertex_count == 4
    assert g.edge_count == 3


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("a b\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("-1 0\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1\n0 1\n")  # duplicate edge
    assert parse_edge_list("") == Graph(0, [])


# ---------------------------------------------------------------------------
# named instances


def girth(g: Graph) -> int:
    # BFS shortest-cycle oracle, independent of the library internals
    best = None
    for root in range(g.vertex_count):
        dist = {root: 0}
        parent_edge = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for eid in g.incident_edges(u):
                    a, b = g.endpoints(eid)
                    w = b if a == u else a
                    if eid == parent_edge[u]:
                        continue
                    if w in dist:
                        cycle = dist[u] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
                    else:
                        dist[w] = dist[u] + 1
                        parent_edge[w] = eid
                        nxt.append(w)
            frontier = nxt
    return 0 if best is None else best


def test_named_graph_shapes():
    k4 = make_named("k4")
    assert k4.vertex_count == 4 and k4.is_cubic()
    k33 = make_named("k33")
    assert k33.vertex_count == 6 and k33.is_cubic() and girth(k33) == 4
    pet = make_named("petersen")
    assert pet.vertex_count == 10 and pet.is_cubic() and girth(pet) == 5
    c5 = make_named("cycle", 5)
    assert c5.degrees() == (2,) * 5
    assert girth(c5) == 5


def test_flower_snark_structure():
    j5 = make_named("flower", 5)
    assert j5.vertex_count == 20
    assert j5.edge_count == 30
    assert j5.is_cubic()
    assert j5.is_connected()
    assert girth(j5) == 5
    # J3 contains triangles
    assert girth(make_named("flower", 3)) == 3


def test_make_named_errors():
    with pytest.raises(DomainError):
        make_named("nosuch")
    with pytest.raises(DomainError):
        make_named("petersen", 5)
    with pytest.raises(DomainError):
        make_named("cycle")
    with pytest.raises(DomainError):
        make_named("flower", 4)  # even parameter
    with pytest.raises(DomainError):
        make_named("cycle", 2)
    assert "petersen" in NAMED_GRAPHS and "cycle" in NAMED_GRAPHS


# ---------------------------------------------------------------------------
# random instances


def test_random_subcubic_deterministic():
    a = random_subcubic(20, 7)
    b = random_subcubic(20, 7)
    assert a == b
    assert a.edges == b.edges
    assert random_subcubic(20, 8) != a


def reference_random_subcubic(n: int, seed: int) -> list[tuple[int, int]]:
    """Frozen copy of the earlier random_subcubic's edge list, which rebuilt
    the tree's open slots for every new vertex (quadratic time); the test
    oracle for the generator's output, not a second path in the package."""
    rng = random.Random(f"subcubic:{n}:{seed}")
    if n == 1:
        return []
    labels = list(range(n))
    rng.shuffle(labels)
    edges, deg, adj = [], [0] * n, set()

    def add(u, v):
        u, v = min(u, v), max(u, v)
        edges.append((u, v))
        adj.add((u, v))
        deg[u] += 1
        deg[v] += 1

    in_tree = [labels[0]]
    for v in labels[1:]:
        open_slots = [u for u in in_tree if deg[u] < 3]
        add(rng.choice(open_slots), v)
        in_tree.append(v)
    for _ in range(4 * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and deg[u] < 3 and deg[v] < 3 and (min(u, v), max(u, v)) not in adj:
            add(u, v)
    return edges


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_subcubic_matches_frozen_reference(seed):
    for n in [*range(1, 60), 200, 1000, 3000]:
        assert list(random_subcubic(n, seed).edges) == reference_random_subcubic(n, seed), n


@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_random_subcubic_properties(n, seed):
    g = random_subcubic(n, seed)
    assert g.vertex_count == n
    assert all(d <= 3 for d in g.degrees())
    assert g.is_connected()


# ---------------------------------------------------------------------------
# isomorphism and enumeration


def labelled_cubic_graphs(n: int):
    """Independent brute force: every labelled cubic graph on n vertices.

    Vertex v picks all its neighbours above v in one step, so each graph
    appears exactly once.
    """
    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def rec(v: int):
        if v == n:
            yield tuple(chosen)
            return
        need = 3 - deg[v]
        if need < 0:
            return
        candidates = [w for w in range(v + 1, n) if deg[w] < 3]
        for combo in itertools.combinations(candidates, need):
            for w in combo:
                deg[w] += 1
                chosen.append((v, w))
            deg[v] += len(combo)
            yield from rec(v + 1)
            deg[v] -= len(combo)
            for w in combo:
                deg[w] -= 1
                chosen.pop()

    yield from rec(0)


def reference_cubic_classes(n: int) -> list[nx.Graph]:
    """One graph per class of connected labelled cubic graphs on n vertices.

    Two labelled graphs on the same vertices are isomorphic exactly when one
    is a relabelling of the other, so each new class adds every relabelling
    of its edge set (its orbit) to ``seen`` and later members of the class
    are recognised by set lookup.
    """
    perms = list(itertools.permutations(range(n)))
    seen: set[frozenset] = set()
    classes: list[nx.Graph] = []
    for edges in labelled_cubic_graphs(n):
        if frozenset(edges) in seen:
            continue
        h = nx.Graph(list(edges))
        if len(h) != n or not nx.is_connected(h):
            continue
        classes.append(h)
        for p in perms:
            seen.add(frozenset((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
    return classes


@pytest.mark.parametrize("n", [4, 6, 8])
def test_enumerate_cubic_matches_brute_force(n, cubic_corpus):
    ours = cubic_corpus[n]
    reference = reference_cubic_classes(n)
    assert len(ours) == len(reference)
    # exact 1:1 matching between the two collections
    used = set()
    for g in ours:
        h = to_nx(g)
        hits = [i for i, c in enumerate(reference) if i not in used and nx.is_isomorphic(h, c)]
        assert hits, f"enumerated graph not in reference set: {emit_graph6(g)}"
        used.add(hits[0])
    assert len(used) == len(reference)


def test_enumerate_cubic_ten_vertices(cubic_corpus):
    # Completeness at this size is too expensive for a labelled brute force;
    # the class count of connected cubic graphs on 10 vertices is the
    # published census value (OEIS A002851).
    graphs = cubic_corpus[10]
    assert len(graphs) == 19
    for g in graphs:
        assert g.vertex_count == 10 and g.is_cubic() and g.is_connected()
    for a, b in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(to_nx(a), to_nx(b))


@pytest.mark.slow
def test_enumerate_cubic_twelve_vertices():
    assert sum(1 for _ in enumerate_cubic(12)) == 85


@pytest.mark.slow
def test_enumerate_cubic_sixteen_vertices():
    # 4060 classes (OEIS A002851).  networkx checks them pairwise within
    # buckets of an invariant: each vertex's distance distribution (1-WL
    # hashes give every cubic graph the same value).
    graphs = list(enumerate_cubic(16))
    assert len(graphs) == 4060
    buckets: dict[tuple, list[nx.Graph]] = {}
    for g in graphs:
        assert g.vertex_count == 16 and g.is_cubic() and g.is_connected()
        h = to_nx(g)
        distances = tuple(sorted(
            tuple(sorted(Counter(lengths.values()).items()))
            for _, lengths in nx.all_pairs_shortest_path_length(h)
        ))
        buckets.setdefault(distances, []).append(h)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


def breadth_first_labellings(g: Graph):
    """(key sequence, relabelled edge set) of every breadth-first labelling
    of g: any root, and each processed vertex's unlabelled neighbours
    labelled next, in any order.  At position k the key is the number of
    unlabelled neighbours and the sorted labels above k of labelled ones."""
    n = g.vertex_count

    def extend(order, lab, keys):
        k = len(keys)
        if k == n:
            edges = frozenset(tuple(sorted((lab[u], lab[v]))) for u, v in g.edges)
            yield tuple(keys), edges
            return
        nbrs = g.neighbours(order[k])
        fresh = [w for w in nbrs if w not in lab]
        later = tuple(sorted(lab[w] for w in nbrs if w in lab and lab[w] > k))
        for perm in itertools.permutations(fresh):
            more = {w: len(order) + j for j, w in enumerate(perm)}
            yield from extend(order + list(perm), {**lab, **more}, keys + [(len(fresh), later)])

    for root in range(n):
        yield from extend([root], {root: 0}, [])


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_enumerate_cubic_yields_least_breadth_first_labellings(n, cubic_corpus):
    # the order contract: each class comes as its breadth-first labelling
    # with the least key sequence, and classes in increasing order of it
    least = []
    for g in cubic_corpus[n]:
        keys, edges = min(breadth_first_labellings(g))
        assert edges == frozenset(g.edges)
        least.append(keys)
    assert all(a < b for a, b in zip(least, least[1:]))


def test_enumerate_cubic_guards():
    with pytest.raises(DomainError):
        list(enumerate_cubic(5))  # odd
    with pytest.raises(DomainError):
        list(enumerate_cubic(2))
    with pytest.raises(DomainError):
        list(enumerate_cubic(18))  # above the supported window


def test_isomorphic_agrees_with_networkx(cubic_corpus):
    import random

    rng = random.Random("iso-check")
    pool = cubic_corpus[8] + cubic_corpus[10][:5]
    for g in pool:
        # relabelled copy must be recognised
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabelled = Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
        assert isomorphic(g, relabelled)
    for a, b in itertools.combinations(pool, 2):
        expect = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert isomorphic(a, b) == expect


def one_edge_moved(g: Graph, rng: random.Random) -> Graph:
    """Replace one edge (a, b) by (a, c) with deg(c) = deg(b) - 1, which
    keeps the degree multiset."""
    deg = g.degrees()
    edges = list(g.edges)
    while True:
        i = rng.randrange(len(edges))
        a, b = edges[i]
        targets = [
            c
            for c in range(g.vertex_count)
            if c not in (a, b) and deg[c] == deg[b] - 1 and not g.has_edge(a, c)
        ]
        if targets:
            edges[i] = (a, rng.choice(targets))
            return Graph(g.vertex_count, edges)


@pytest.mark.parametrize("seed", [1, 2])
def test_isomorphic_above_recursion_limit(seed):
    # the search goes one level deeper per vertex, past the interpreter's
    # recursion limit here.  networkx's VF2 does not finish on graphs this
    # size, so its verdicts come from checking the relabelling (isomorphic)
    # and from differing Wiener indices, the sums of all distances (not
    # isomorphic).
    n = sys.getrecursionlimit() + 100
    g = random_subcubic(n, seed)
    rng = random.Random(f"deep-iso:{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    copy = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    moved = one_edge_moved(g, rng)
    assert sorted(moved.degrees()) == sorted(g.degrees())
    assert isomorphic(g, copy) and isomorphic(copy, g)
    relabelled = nx.relabel_nodes(to_nx(g), dict(enumerate(perm)))
    assert nx.utils.graphs_equal(relabelled, to_nx(copy))
    assert not isomorphic(g, moved) and not isomorphic(moved, copy)
    assert nx.wiener_index(to_nx(g)) != nx.wiener_index(to_nx(moved))


def test_isomorphic_quick_rejects():
    assert not isomorphic(make_named("k4"), make_named("k33"))
    assert not isomorphic(make_named("cycle", 4), make_named("cycle", 5))
    assert isomorphic(Graph(0, []), Graph(0, []))


def relabelled(g: Graph, seed: str) -> Graph:
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def disjoint_union(*parts: Graph) -> Graph:
    edges, base = [], 0
    for h in parts:
        edges += [(base + u, base + v) for u, v in h.edges]
        base += h.vertex_count
    return Graph(base, edges)


def generalised_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i to n+i, inner edges n+i to
    n+((i+k) mod n)."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges + [(n + i, n + (i + k) % n) for i in range(n)])


def two_switched(g: Graph) -> Graph:
    """The first 2-switch of g (edges ab and cd replaced by ac and bd), in
    edge-pair order, that keeps g triangle-free and leaves its isomorphism
    class, by networkx.  A 2-switch keeps every degree."""
    for i, j in itertools.combinations(range(g.edge_count), 2):
        (a, b), (c, d) = g.edges[i], g.edges[j]
        if len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(b, d):
            continue
        edges = list(g.edges)
        edges[i], edges[j] = (a, c), (b, d)
        h = to_nx(Graph(g.vertex_count, edges))
        if not any(nx.triangles(h).values()) and not nx.is_isomorphic(h, to_nx(g)):
            return Graph(g.vertex_count, edges)
    raise AssertionError("no triangle-free 2-switch leaves the class")


def cycles(*lengths: int) -> Graph:
    return disjoint_union(*[make_named("cycle", k) for k in lengths])


# name -> (a, b); b's relabelled copy is tested too, so (g, g) tests g
# against a relabelled copy
ISO_PAIRS = {
    # disconnected: the search order is a forest with one root per component
    "2xC5": lambda: (cycles(5, 5), cycles(5, 5)),
    "C3+C4": lambda: (cycles(3, 4), cycles(4, 3)),
    "C10 vs 2xC5": lambda: (cycles(10), cycles(5, 5)),
    "C12 vs 2xC6": lambda: (cycles(12), cycles(6, 6)),
    # every vertex label is equal, so the search alone decides
    "C1500": lambda: (cycles(1500), cycles(1500)),
    # regular and triangle-free: every label is equal here too
    "J5 vs 2-switched": lambda: (make_named("flower", 5), two_switched(make_named("flower", 5))),
    "J7 vs 2-switched": lambda: (make_named("flower", 7), two_switched(make_named("flower", 7))),
    **{
        f"GP({n},2) vs GP({n},3)": lambda n=n: (generalised_petersen(n, 2), generalised_petersen(n, 3))
        for n in (7, 8, 10, 11, 12)
    },
}


@pytest.mark.parametrize("name", ISO_PAIRS)
def test_isomorphic_beyond_the_connected_corpus(name):
    a, b = ISO_PAIRS[name]()
    # networkx's VF2 takes seconds on C1500, where a is b
    expect = a == b or nx.is_isomorphic(to_nx(a), to_nx(b))
    copy = relabelled(b, name)
    assert isomorphic(a, b) == expect and isomorphic(b, a) == expect
    assert isomorphic(a, copy) == expect and isomorphic(copy, a) == expect
