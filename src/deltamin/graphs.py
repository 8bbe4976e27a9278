"""Graph representation, graph6/edge-list codecs, and instance generators.

All graphs in this package are simple undirected graphs with maximum degree
three.  Vertices are the integers ``0 .. vertex_count-1``; every edge has a
stable integer id equal to its position in the edge tuple.
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, GraphFormatError

MAX_DEGREE = 3
# the most vertices emit_graph6 encodes: the bound of graph6's 4-byte size field
G6_MAX_VERTICES = 258047

_G6_HEADER = ">>graph6<<"
# the longest prefix of bytes in graph6's range, 63 to 126
_G6_IN_RANGE = re.compile(rb"[\x3f-\x7e]*")
_G6_NONZERO_GROUP = re.compile(rb"[^?]")
# 6-bit group -> offsets of its set bits, 0 being the high bit
_G6_SET_BITS = [
    tuple(off for off in range(6) if group >> (5 - off) & 1) for group in range(64)
]
# byte b -> b + 63: turns 6-bit groups into graph6 characters
_G6_PRINTABLE = bytes((b + 63) % 256 for b in range(256))


class Graph:
    """Immutable simple graph with maximum degree three.

    Edges are normalised to ``(u, v)`` with ``u < v`` and keep their
    insertion order; the index of an edge in ``edges`` is its id.
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "_edge_ids")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise DomainError("vertex count must be non-negative")
        normalised: list[tuple[int, int]] = []
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        edge_ids: dict[tuple[int, int], int] = {}
        for edge in edges:
            u, v = edge
            if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
                raise DomainError(
                    f"edge ({u}, {v}) out of range for {vertex_count} vertices"
                )
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            # a normalised tuple is kept as given, not copied
            if u > v:
                u, v = v, u
                edge = (u, v)
            elif type(edge) is not tuple:
                edge = (u, v)
            eid = len(normalised)
            if edge_ids.setdefault(edge, eid) != eid:
                raise DomainError(f"duplicate edge ({u}, {v})")
            normalised.append(edge)
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
        for vertex, nbrs in enumerate(adjacency):
            if len(nbrs) > MAX_DEGREE:
                raise DomainError(
                    f"vertex {vertex} has degree {len(nbrs)}, maximum is {MAX_DEGREE}"
                )
        self.vertex_count = vertex_count
        self.edges = tuple(normalised)
        self.adjacency = tuple(tuple(nbrs) for nbrs in adjacency)
        self._edge_ids = edge_ids

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self.adjacency[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return tuple(eid for _, eid in self.adjacency[v])

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def edge_id(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self._edge_ids[(u, v)]
        except KeyError:
            raise DomainError(f"no edge ({u}, {v})") from None

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_ids

    def is_cubic(self) -> bool:
        return self.vertex_count > 0 and all(
            len(nbrs) == 3 for nbrs in self.adjacency
        )

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum."""
        seen = [False] * self.vertex_count
        out: list[list[int]] = []
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w, _ in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comp.sort()
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return self.vertex_count <= 1 or len(self.components()) == 1

    def __eq__(self, other: object) -> bool:
        """Same vertex count and same edge set.  Edge ids are positional and
        may differ between equal graphs; colourings compare stricter."""
        if self is other:
            return True
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self._edge_ids.keys() == other._edge_ids.keys()
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, frozenset(self._edge_ids)))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, m={self.edge_count})"


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``vertices``, as ``(sub, edge_map)``: sub-vertex
    ``i`` is ``vertices[i]`` (the last position for a repeated vertex) and
    sub-edge ``j`` is edge ``edge_map[j]``, in ascending id.  It reads only
    the given vertices' incidence lists; one outside g raises DomainError."""
    index = {v: i for i, v in enumerate(vertices)}
    for v in index:
        if not 0 <= v < g.vertex_count:
            raise DomainError(f"vertex {v} out of range for {g.vertex_count} vertices")
    # each edge once, from its lower end
    found = sorted((eid, i, index[w]) for v, i in index.items() for w, eid in g.adjacency[v] if v < w and w in index)
    return Graph(len(vertices), [(a, b) for _, a, b in found]), [eid for eid, _, _ in found]


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_payload(text: str) -> bytes:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    try:
        return s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ASCII byte in graph6 data", exc.start) from None


def _g6_read_size(data: bytes) -> tuple[int, int]:
    """Decode the leading size field, returning (n, bytes consumed)."""
    if not data:
        raise GraphFormatError("empty graph6 string", 0)
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise GraphFormatError("truncated extended size field", len(data))
        n = 0
        for i in range(1, 4):
            n = (n << 6) | (data[i] - 63)
        return n, 4
    if len(data) < 8:
        raise GraphFormatError("truncated extended size field", len(data))
    n = 0
    for i in range(2, 8):
        n = (n << 6) | (data[i] - 63)
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header allowed).

    Bits of the upper triangle are read column by column: for each vertex
    ``j`` the pairs ``(0,j) .. (j-1,j)`` in order.  Raises GraphFormatError
    with the offending byte offset on malformed input and DomainError when
    the encoded graph has a vertex of degree above three.
    """
    data = _g6_payload(text)
    pos = _G6_IN_RANGE.match(data).end()
    if pos < len(data):
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
    # only groups with a set bit are visited; bit k is pair (i, j) with
    # k = j(j-1)/2 + i, visited in increasing k, so column j and its first
    # bit col = j(j-1)/2 only ever move forward
    edges = []
    j = col = 0
    for hit in _G6_NONZERO_GROUP.finditer(data, start, expected):
        pos = hit.start()
        base = (pos - start) * 6
        for off in _G6_SET_BITS[data[pos] - 63]:
            k = base + off
            if k >= nbits:
                raise GraphFormatError("nonzero padding bit", pos)
            while k >= col + j:
                col += j
                j += 1
            edges.append((k - col, j))
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header)."""
    n = g.vertex_count
    if n <= 62:
        size = bytes([n + 63])
    elif n <= G6_MAX_VERTICES:
        size = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise DomainError("graph too large for graph6 encoding")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        # column-major position of pair (u, v), u < v
        k = v * (v - 1) // 2 + u
        body[k // 6] |= 32 >> (k % 6)
    return (size + body.translate(_G6_PRINTABLE)).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list codec


def parse_edge_list(text: str) -> Graph:
    """Decode a whitespace edge list, one ``u v`` pair per line.

    An optional first line ``n m`` fixes the vertex count; it is recognised
    when its second value equals the number of remaining non-empty lines and
    every later endpoint is below its first value.  Without a header the
    vertex count is ``max endpoint + 1``.
    """
    rows: list[tuple[int, int, int]] = []  # (lineno, a, b)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if a < 0 or b < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex label")
        rows.append((lineno, a, b))
    if not rows:
        return Graph(0, [])
    _, first_a, first_b = rows[0]
    body = rows[1:]
    is_header = (
        len(body) == first_b
        and all(a < first_a and b < first_a for _, a, b in body)
    )
    if is_header:
        n = first_a
        edge_rows = body
    else:
        n = max(max(a, b) for _, a, b in rows) + 1
        edge_rows = rows
    try:
        return Graph(n, [(a, b) for _, a, b in edge_rows])
    except DomainError as exc:
        raise GraphFormatError(f"invalid edge list: {exc}") from None


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named instances


def complete_graph(n: int) -> Graph:
    if n > MAX_DEGREE + 1:
        raise DomainError("complete graph exceeds maximum degree three")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite_33() -> Graph:
    return Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise DomainError("cycle needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def petersen_graph() -> Graph:
    """Outer cycle 0-4, inner pentagram 5-9 (i+5 adjacent to ((i+2) mod 5)+5),
    spokes i to i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def flower_snark(k: int) -> Graph:
    """Flower snark J_k for odd k >= 3: 4k vertices, 6k edges, cubic.

    Vertex layout: for each i in 0..k-1 a star centre ``4i`` joined to the
    three tips ``4i+1`` (inner cycle), ``4i+2`` and ``4i+3`` (outer strands).
    Inner tips form a k-cycle; outer strands close up with a half twist,
    giving one 2k-cycle.
    """
    if k < 3 or k % 2 == 0:
        raise DomainError("flower snark parameter must be odd and at least 3")
    edges = []
    for i in range(k):
        c = 4 * i
        edges += [(c, c + 1), (c, c + 2), (c, c + 3)]
    for i in range(k):
        edges.append((4 * i + 1, 4 * ((i + 1) % k) + 1))
    for i in range(k - 1):
        edges.append((4 * i + 2, 4 * (i + 1) + 2))
        edges.append((4 * i + 3, 4 * (i + 1) + 3))
    edges.append((4 * (k - 1) + 2, 3))
    edges.append((4 * (k - 1) + 3, 2))
    return Graph(4 * k, edges)


_NAMED_FIXED = {
    "k4": lambda: complete_graph(4),
    "k33": complete_bipartite_33,
    "petersen": petersen_graph,
}

_NAMED_PARAM = {
    "cycle": cycle_graph,
    "flower": flower_snark,
}


def make_named(name: str, k: int | None = None) -> Graph:
    """Build a named instance: k4, k33, petersen, cycle (with k), flower (with k)."""
    key = name.strip().lower()
    if key in _NAMED_FIXED:
        if k is not None:
            raise DomainError(f"{name} takes no size parameter")
        return _NAMED_FIXED[key]()
    if key in _NAMED_PARAM:
        if k is None:
            raise DomainError(f"{name} needs a size parameter")
        return _NAMED_PARAM[key](k)
    raise DomainError(f"unknown graph name {name!r}")


NAMED_GRAPHS = tuple(sorted(_NAMED_FIXED)) + tuple(sorted(_NAMED_PARAM))


# ---------------------------------------------------------------------------
# random instances


def random_subcubic(n: int, seed: int) -> Graph:
    """Connected random graph on n vertices with maximum degree three.

    Deterministic for a given (n, seed) across platforms: all randomness
    comes from random.Random seeded with a string key.  A random spanning
    tree with degree cap three is grown first, then extra edges are added
    while they keep the graph simple and subcubic.  The tree phase draws
    each new vertex's parent from one list of the tree vertices with a free
    slot, so the build takes about linear time (1 s of CPU for n = 100,000
    on one Xeon core).
    """
    if n < 1:
        raise DomainError("need at least one vertex")
    rng = random.Random(f"subcubic:{n}:{seed}")
    if n == 1:
        return Graph(1, [])
    labels = list(range(n))
    rng.shuffle(labels)
    edges: list[tuple[int, int]] = []
    deg = [0] * n
    adj: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        edges.append((u, v))
        adj.add((u, v))
        deg[u] += 1
        deg[v] += 1

    open_slots = [labels[0]]
    for v in labels[1:]:
        k = rng.randrange(len(open_slots))
        add(open_slots[k], v)
        if deg[open_slots[k]] == MAX_DEGREE:
            del open_slots[k]
        open_slots.append(v)
    # densify: bounded number of attempts keeps this deterministic and fast
    for _ in range(4 * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or deg[u] >= MAX_DEGREE or deg[v] >= MAX_DEGREE:
            continue
        if (min(u, v), max(u, v)) in adj:
            continue
        add(u, v)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# isomorphism


def _iso_labels(g: Graph) -> tuple[list[int], list[int], tuple]:
    """The adjacency bitmask of each vertex, its isomorphism-invariant label,
    and a quick-reject key equal for isomorphic graphs.

    Labels are seeded with (degree, triangle count) and refined three times
    by the sorted labels of the neighbours; they are ranks of sorted
    signatures, so isomorphic graphs get identical label multisets whatever
    their vertex numbering.
    """
    n = g.vertex_count
    nbrs = [g.neighbours(v) for v in range(n)]
    masks = [sum(1 << w for w in vn) for vn in nbrs]
    labels: list = [
        (len(vn), sum((masks[v] & masks[w]).bit_count() for w in vn))
        for v, vn in enumerate(nbrs)
    ]
    for _ in range(3):
        sigs = [(labels[v], tuple(sorted([labels[w] for w in vn]))) for v, vn in enumerate(nbrs)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        labels = [rank[sig] for sig in sigs]
    return masks, labels, (n, g.edge_count, tuple(sorted(labels)))


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test.

    The labels of _iso_labels only prune: the answer comes from a
    backtracking search for a bijection that preserves adjacency, over a
    breadth-first forest of g1 whose roots are taken from its rarest label
    class first, so each vertex but a root has a previously mapped
    neighbour.  The search runs on an explicit stack, so it has no
    recursion-depth limit.

    Cost: the labels take O(n log n) and the forest O(n).  A relabelled
    copy is usually found with little backtracking (cycle_graph(1500):
    0.02 s; random_subcubic(2000, 1): 0.15 s).  When every label is equal,
    as on regular triangle-free graphs, a refutation tries every g2 vertex
    as the first root's image, with a partial search from each, so it is
    quadratic on vertex-transitive pairs (C1500 against two C750: 2.6 s;
    GP(200, 3) against a 2-switched copy: 0.3 s) and exponential in the
    worst case.  Times: one core of a 2-vCPU Xeon, CPython 3.11.
    """
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    if g1.edges == g2.edges:
        return True
    _, labels1, key1 = _iso_labels(g1)
    masks2, labels2, key2 = _iso_labels(g2)
    if key1 != key2:
        return False
    # label -> bitmask of the g2 vertices carrying it; equal keys mean equal
    # label multisets, so its class sizes are g1's too
    label_class: dict[int, int] = {}
    for v, lab in enumerate(labels2):
        label_class[lab] = label_class.get(lab, 0) | (1 << v)
    # g1's search order, by depth: the breadth-first parent's depth (-1 for
    # a root) and the depths of earlier neighbours
    depth = [-1] * n
    order: list[int] = []
    anchors: list[int] = []
    for root in sorted(range(n), key=lambda v: (label_class[labels1[v]].bit_count(), v)):
        if depth[root] >= 0:
            continue
        depth[root] = len(order)
        order.append(root)
        anchors.append(-1)
        head = depth[root]
        while head < len(order):
            for w in g1.neighbours(order[head]):
                if depth[w] < 0:
                    depth[w] = len(order)
                    order.append(w)
                    anchors.append(head)
            head += 1
    earlier = [[depth[u] for u in g1.neighbours(v) if depth[u] < k] for k, v in enumerate(order)]
    classes = [label_class[labels1[v]] for v in order]
    # per depth: the g2 vertex mapped there, the untried candidates in
    # increasing vertex order, and the image of the earlier neighbours
    mapped = [0] * n
    pending = [0] * n
    image = [0] * n
    pending[0] = classes[0]
    used = 0
    k = 0
    while True:
        cand = pending[k]
        if not cand:
            k -= 1
            if k < 0:
                return False
            used ^= 1 << mapped[k]
            continue
        low = cand & -cand
        pending[k] = cand ^ low
        w = low.bit_length() - 1
        if masks2[w] & used != image[k]:
            continue
        mapped[k] = w
        used |= low
        k += 1
        if k == n:
            return True
        cand = classes[k] & ~used
        if anchors[k] >= 0:
            cand &= masks2[mapped[anchors[k]]]
        pending[k] = cand
        img = 0
        for d in earlier[k]:
            img |= 1 << mapped[d]
        image[k] = img


# ---------------------------------------------------------------------------
# exhaustive generation of connected cubic graphs


def enumerate_cubic(n: int) -> Iterator[Graph]:
    """Yield every connected cubic graph on n vertices, one per isomorphism
    class (isomorphism-free enumeration by orderly generation).

    Order contract: each class is yielded as its least breadth-first
    labelling (see deltamin.orderly), which is the first of its
    labellings in the breadth-first candidate stream, and classes come in
    the order of those first labellings.  This is exactly what deduplicating
    the stream by an exact isomorphism test, keeping first occurrences,
    yields; no pairwise test is made.

    Cost: the candidate tree is pruned as soon as a prefix is beaten, and
    almost all the time goes to the relabelling search.  On one core of a
    2-vCPU Xeon with CPython 3.11, n=12 (85 graphs) takes about 0.09 s,
    n=14 (509) 0.55 s and n=16 (4060) 4 s.

    n must be even and between 4 and 16; it is checked when this is called,
    before the first graph is made.
    """
    if not 4 <= n <= 16:
        raise DomainError("cubic enumeration supports 4 <= n <= 16")
    if n % 2:
        raise DomainError("no cubic graph has an odd vertex count")
    # imported here so that commands that never enumerate do not load it
    from .orderly import orderly_cubic_edge_sets

    return (Graph(n, edge_set) for edge_set in orderly_cubic_edge_sets(n))
