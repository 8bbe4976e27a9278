"""Edge colourings over four colours and Kempe-chain operations.

The colour set is ordered alpha < beta < gamma < delta.  delta is the
overflow colour: the quantity every solver in this package minimises is the
number of delta edges, and "delta-improper" colourings (monochromatic
adjacencies allowed at delta only) are the halfway state the properize
reduction repairs.

EdgeColouring is the record: immutable, checked, and what the solvers
return.  Its value is one string of code letters (a, b, g, d), which the
solvers build directly and the JSON prints; its Colour tuple is built only
when read.  ColourTable is where colours move: the repair, the descent,
the delta shift and the verifier run on it in place, over codes 0-3.

Every Kempe chain is walked by one walker over colour codes, _walk_chain:
a step looks at the at most three edges of the vertex it reaches, and
calls and builds nothing.
"""

from __future__ import annotations

import enum
import json
from bisect import insort
from typing import Iterable, Mapping, NamedTuple

from .errors import ContractViolationError, DomainError
from .graphs import Graph


class Colour(enum.Enum):
    ALPHA = "a"
    BETA = "b"
    GAMMA = "g"
    DELTA = "d"

    def __lt__(self, other: "Colour") -> bool:
        return COLOUR_ORDER.index(self) < COLOUR_ORDER.index(other)

    # Enum hashes the member name in Python; identity hashes in C.  Nothing
    # may depend on the order of a set of colours, as string hashes are
    # randomised per process anyway.
    __hash__ = object.__hash__


COLOUR_ORDER = (Colour.ALPHA, Colour.BETA, Colour.GAMMA, Colour.DELTA)
NON_DELTA = (Colour.ALPHA, Colour.BETA, Colour.GAMMA)
# the code letters in colour order: a letter's index is its ColourTable code
CODES = "abgd"
_COLOUR_OF = {c.value: c for c in Colour}  # for the Colour views of a colouring
_TO_TABLE = bytes.maketrans(CODES.encode(), bytes(range(4)))
_TO_LETTER = bytes.maketrans(bytes(range(4)), CODES.encode())


class ColouringKind(enum.Enum):
    PROPER = "proper"
    DELTA_IMPROPER = "delta-improper"
    INVALID = "invalid"


class EdgeColouring:
    """Total assignment of the four colours to the edges of a graph: the
    string codes, edge e's code letter at position e.  Immutable; edits go
    through with_colours, which returns a new object.
    """

    __slots__ = ("graph", "codes")

    def __init__(self, graph: Graph, colours: str | Iterable[Colour]):
        """colours is either a string of code letters or Colour members, one
        per edge in the graph's edge order."""
        if isinstance(colours, str):
            codes, bad = colours, colours.lstrip(CODES)[:1]
        else:
            colours = tuple(colours)
            bad = [c for c in colours if not isinstance(c, Colour)][:1]
            codes = colours if bad else "".join(c.value for c in colours)
        if len(codes) != graph.edge_count:
            raise DomainError(f"expected {graph.edge_count} colours, got {len(codes)}")
        if bad:
            raise DomainError(f"not a colour: {bad[0]!r}")
        self.graph = graph
        self.codes = codes

    @property
    def colours(self) -> tuple[Colour, ...]:
        return tuple(map(_COLOUR_OF.__getitem__, self.codes))

    def colour_of(self, eid: int) -> Colour:
        return _COLOUR_OF[self.codes[eid]]

    def colour_class(self, x: Colour) -> frozenset[int]:
        return frozenset(e for e, k in enumerate(self.codes) if k == x.value)

    def delta_count(self) -> int:
        return self.codes.count("d")

    def colours_at(self, v: int, skip: int | None = None) -> list[Colour]:
        """Colours on the edges incident to v, optionally skipping one edge."""
        return [_COLOUR_OF[self.codes[eid]] for _, eid in self.graph.adjacency[v] if eid != skip]

    def classification(self) -> ColouringKind:
        """Proper, delta-improper (clashes at delta only), or invalid, by
        ColourTable's clash rule."""
        try:
            return ColouringKind.DELTA_IMPROPER if ColourTable(self).deltas_meet() else ColouringKind.PROPER
        except DomainError:
            return ColouringKind.INVALID

    def with_colours(self, changes: Mapping[int, Colour]) -> "EdgeColouring":
        """A copy with the given edges recoloured."""
        new = list(self.codes)
        for eid, c in changes.items():
            if not isinstance(c, Colour):
                raise DomainError(f"not a colour: {c!r}")
            new[eid] = c.value
        return EdgeColouring(self.graph, "".join(new))

    def to_json(self) -> str:
        return json.dumps({"colours": list(self.codes)})

    @classmethod
    def from_json(cls, graph: Graph, text: str) -> "EdgeColouring":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad colouring JSON: {exc}") from None
        if not isinstance(payload, dict) or "colours" not in payload:
            raise DomainError('colouring JSON needs a "colours" array')
        codes = payload["colours"]
        if not isinstance(codes, list):
            raise DomainError('"colours" must be an array of colour codes')
        # each entry on its own, so that no joined run of letters passes
        for k in codes:
            if not isinstance(k, str) or len(k) != 1 or k not in CODES:
                raise DomainError(f"unknown colour code {k!r}")
        return cls(graph, "".join(codes))

    def __eq__(self, other: object) -> bool:
        """Colour assignments are positional, so equality requires the two
        graphs to list their edges in the same order, not merely to be equal
        as graphs."""
        return (
            isinstance(other, EdgeColouring)
            and self.graph.vertex_count == other.graph.vertex_count
            and self.graph.edges == other.graph.edges
            and self.codes == other.codes
        )

    def __hash__(self) -> int:
        return hash((self.graph.edges, self.codes))

    def __repr__(self) -> str:
        return f"EdgeColouring({self.codes})"


class KempeComponent(NamedTuple):
    """One connected component of the subgraph on two colour classes.

    vertices lists the component's vertices in traversal order; for a path
    the order runs from the lower-numbered endpoint, for a cycle it starts at
    the smallest vertex and the first vertex repeats at the end is omitted.
    edges holds the edge ids in the same traversal order.
    """

    is_cycle: bool
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def endpoints(self) -> tuple[int, int]:
        if self.is_cycle:
            raise DomainError("cycles have no endpoints")
        return self.vertices[0], self.vertices[-1]


class KempeDecomposition(NamedTuple):
    source: EdgeColouring
    pair: tuple[Colour, Colour]
    components: tuple[KempeComponent, ...]

    def component_at(self, v: int) -> int | None:
        """Index of the component containing vertex v, if any."""
        for i, comp in enumerate(self.components):
            if v in comp.vertices:
                return i
        return None


def _walk_chain(g: Graph, code: list[int], x: int, y: int, start: int, eid: int) -> tuple[list[int], list[int]]:
    """Follow the (x, y) chain of colour codes from start along edge eid: its
    vertices and edge ids in order, up to a path end, or on a cycle up to
    the edge that returns to start.

    At each vertex the walk goes on along the first incident edge, in
    adjacency order, whose code is x or y and that is not the edge it came
    by.  Where delta clashes, that rule can lead into a loop that misses
    start; a walk that has taken as many steps as there are edge directions
    without ending is in one, and raises DomainError."""
    adjacency = g.adjacency
    a, b = g.edges[eid]
    at = b if a == start else a
    verts, eids = [start], [eid]
    for _ in range(2 * len(code)):
        if at == start:
            return verts, eids
        verts.append(at)
        for w, e in adjacency[at]:
            if e != eid and (code[e] == x or code[e] == y):
                break
        else:
            return verts, eids
        eids.append(e)
        eid, at = e, w
    raise DomainError(f"the ({x},{y}) chain from vertex {start} does not end")


def _chain_components(g: Graph, code: list[int], x: int, y: int) -> list[tuple[bool, list[int], list[int]]]:
    """Every (x, y) chain of colour codes as (is_cycle, vertices, edge ids):
    paths first (by lower endpoint), then cycles (by smallest vertex, walked
    along its lower edge id).  One pass over the edges counts each vertex's
    chain edges and notes its lowest one; then each chain is walked once."""
    ends = g.edges
    count = [0] * g.vertex_count
    lowest = [-1] * g.vertex_count
    # downwards, so that the last edge noted at a vertex is its lowest
    for e in reversed([e for e, k in enumerate(code) if k == x or k == y]):
        a, b = ends[e]
        lowest[a] = lowest[b] = e
        count[a] += 1
        count[b] += 1
    seen = [False] * g.vertex_count
    components = []
    # every path is walked before the first cycle, so an unseen vertex with
    # two chain edges lies on a cycle, and the first one met is its smallest
    for is_cycle in (False, True):
        for v, here in enumerate(count):
            if here == 1 + is_cycle and not seen[v]:
                verts, eids = _walk_chain(g, code, x, y, v, lowest[v])
                # alternation of two colours forces even length
                assert not is_cycle or len(eids) % 2 == 0
                for w in verts:
                    seen[w] = True
                components.append((is_cycle, verts, eids))
    return components


def kempe_decompose(c: EdgeColouring, x: Colour, y: Colour) -> KempeDecomposition:
    """Split the edges coloured x or y into maximal paths and even cycles.

    Requires the restriction of c to {x, y} to be proper (no vertex with two
    incident edges of the same one of these colours); the DomainError names
    the lowest vertex where it is not.  Components appear paths first (by
    lower endpoint), then cycles (by smallest vertex, walked along its lower
    edge id).
    """
    if x is y:
        raise DomainError("need two distinct colours")
    g, code, kx, ky = c.graph, list(c.codes.encode().translate(_TO_TABLE)), CODES.index(x.value), CODES.index(y.value)
    for v, nbrs in enumerate(g.adjacency):
        here = [code[e] for _, e in nbrs]
        if here.count(kx) > 1 or here.count(ky) > 1:
            raise DomainError(
                f"restriction to {x.value},{y.value} is improper at vertex {v}"
            )
    components = tuple(
        KempeComponent(is_cycle, tuple(verts), tuple(eids))
        for is_cycle, verts, eids in _chain_components(g, code, kx, ky)
    )
    return KempeDecomposition(c, (x, y) if x < y else (y, x), components)


def kempe_swap(c: EdgeColouring, d: KempeDecomposition, index: int) -> EdgeColouring:
    """Exchange the two colours of d along its index-th component."""
    if d.source != c:
        raise ContractViolationError(
            "decomposition was computed from a different colouring"
        )
    if not 0 <= index < len(d.components):
        raise DomainError(f"no component {index}")
    x, y = d.pair
    codes = list(c.codes)
    for eid in d.components[index].edges:
        codes[eid] = y.value if codes[eid] == x.value else x.value
    return EdgeColouring(c.graph, "".join(codes))


class ColourTable:
    """A delta-improper colouring held for in-place Kempe moves, so that a
    move costs the edges it touches rather than a copy of the colouring.
    The one clash rule: the build refuses a clash off delta (DomainError),
    and deltas_meet tells whether delta clashes.

    A colour's code is its letter's index in CODES (delta is 3).  code[e] is
    edge e's code; at[3 * v + k] is the edge of code k < 3 at vertex v, or
    -1; deltas lists the delta edges, ascending, as recolour keeps them.
    Chains are walked over code, a step costing a look at each incident
    edge of the vertex reached.  For a pair that includes delta, delta must
    be a matching at the vertices such a chain reaches (the descent's
    plateau meets this, as it runs on a proper colouring); otherwise a walk
    may enter a loop that misses its start, and raises DomainError once it
    has stepped along every edge direction.
    """

    __slots__ = ("graph", "code", "at", "deltas")

    def __init__(self, c: EdgeColouring):
        g = c.graph
        self.graph = g
        self.code = list(c.codes.encode().translate(_TO_TABLE))
        self.at = [-1] * (3 * g.vertex_count)
        self.deltas = [e for e, k in enumerate(self.code) if k == 3]
        for e, (a, b) in enumerate(g.edges):
            k = self.code[e]
            if k == 3:
                continue
            for slot in (3 * a + k, 3 * b + k):
                if self.at[slot] != -1:
                    raise DomainError("colouring has a non-delta clash")
                self.at[slot] = e

    def colouring(self, codes: Iterable[int]) -> EdgeColouring:
        """The EdgeColouring of this table's graph with the given codes, such
        as a snapshot tuple(self.code)."""
        return EdgeColouring(self.graph, bytes(codes).translate(_TO_LETTER).decode())

    def deltas_meet(self) -> bool:
        """Whether two delta edges share a vertex, in O(s)."""
        return len({v for f in self.deltas for v in self.graph.edges[f]}) < 2 * len(self.deltas)

    def free(self, v: int) -> list[int]:
        """The codes below 3 that no edge at v has, ascending."""
        at, base = self.at, 3 * v
        return [k for k in range(3) if at[base + k] < 0]

    def recolour(self, changes: Mapping[int, int]) -> None:
        """Give each edge in changes its new code.  Every old slot is cleared
        before any new one is set, since along a swapped chain an edge takes
        the slot its neighbour leaves."""
        ends, code, at, deltas = self.graph.edges, self.code, self.at, self.deltas
        for e in changes:
            k = code[e]
            if k == 3:
                deltas.remove(e)
            else:
                a, b = ends[e]
                at[3 * a + k] = at[3 * b + k] = -1
        for e, k in changes.items():
            code[e] = k
            if k == 3:
                insort(deltas, e)
            else:
                a, b = ends[e]
                at[3 * a + k] = at[3 * b + k] = e

    def path_from(self, v: int, x: int, y: int) -> tuple[int, list[int]]:
        """Walk the (x, y) Kempe path that ends at v: its far end, and its
        edge ids in order from v.

        v must see exactly one of x and y (ContractViolationError when it
        sees neither or both), which makes it an end of a path component of
        components(x, y); this is that component, walked from v, at a cost
        of its length."""
        code = self.code
        first = [e for _, e in self.graph.adjacency[v] if code[e] == x or code[e] == y]
        if len(first) != 1:
            raise ContractViolationError(f"expected vertex {v} to end a ({x},{y}) path")
        verts, path = _walk_chain(self.graph, code, x, y, v, first[0])
        return verts[-1], path

    def components(self, x: int, y: int) -> list[tuple[bool, list[int], list[int]]]:
        """The (x, y) Kempe chains in kempe_decompose's order, as (is_cycle,
        vertices, edge ids): one pass over the edges, then each chain's
        length."""
        return _chain_components(self.graph, self.code, x, y)

    def swap(self, eids: Iterable[int], x: int, y: int) -> None:
        """Exchange codes x and y along a chain."""
        code = self.code
        self.recolour({e: y if code[e] == x else x for e in eids})


def properize(c: EdgeColouring) -> EdgeColouring:
    """Repair a delta-improper colouring into a proper one.

    Each round removes at least one edge from the delta class and never adds
    one, so the result's delta class is a subset of the input's (strict
    whenever the input had a clash).  A proper input is returned as the same
    object.  Invalid inputs (a clash on a non-delta colour) raise
    DomainError.

    The rounds run in place on a ColourTable, and each resolves the clash at
    the lowest vertex that has one.  Since the delta class only shrinks, no
    clash appears below a vertex once it is clash-free, so one pointer that
    never moves back finds those vertices: O(n) for the scan plus, per
    round, O(1) work at the clash and the length of a Kempe walk.
    """
    t = ColourTable(c)
    adjacency, code, at = t.graph.adjacency, t.code, t.at
    repaired = False
    u = 0
    while u < len(adjacency):
        # the edges at u that hold none of its slots are its delta edges
        if len(adjacency[u]) - (at[3 * u] >= 0) - (at[3 * u + 1] >= 0) - (at[3 * u + 2] >= 0) < 2:
            u += 1
            continue
        deltas = sorted(eid for _, eid in adjacency[u] if code[eid] == 3)
        changes = _resolve_clash(t, u, deltas)
        # the round must strictly shrink the delta class: some changed edge
        # leaves it and none joins it
        assert any(code[eid] == 3 for eid in changes), "clash resolution failed to shrink delta"
        assert 3 not in changes.values(), "clash resolution grew delta"
        t.recolour(changes)
        repaired = True
    return t.colouring(code) if repaired else c


def _resolve_clash(t: ColourTable, u: int, deltas: list[int]) -> dict[int, int]:
    """The recolouring that removes one delta edge at u, as {edge: code}."""
    g = t.graph
    e1, e2 = deltas[0], deltas[1]

    def other_end(eid: int) -> int:
        a, b = g.edges[eid]
        return b if a == u else a

    # x is the third edge's code, or delta (3) if none, which no free colour equals
    x = next((t.code[eid] for _, eid in g.adjacency[u] if eid not in (e1, e2)), 3)
    # direct recolouring: some colour other than x free at the far end
    for eid in (e1, e2):
        for k in t.free(other_end(eid)):
            if k != x:
                return {eid: k}
    # both far ends see all of the other two colours: swap the Kempe path of
    # (x, y) that ends at u, freeing x there, then give x to a delta edge
    # whose far end is not the path's other endpoint; y is the lowest
    # proper colour other than x
    y = 1 if x == 0 else 0
    far_end, path = t.path_from(u, x, y)
    target = e2 if other_end(e2) != far_end else e1
    changes = {eid: y if t.code[eid] == x else x for eid in path}
    changes[target] = x
    return changes
