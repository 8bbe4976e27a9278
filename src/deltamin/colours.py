"""Colour values: the four colours and the edge-colouring record.

The colour set is ordered alpha < beta < gamma < delta.  delta is the
overflow colour: the quantity every solver in this package minimises is the
number of delta edges.

EdgeColouring is the record: immutable, checked, and what the solvers
return.  Its value is one string of code letters (a, b, g, d), which the
solvers build directly and the JSON prints; its Colour tuple is built only
when read.  Where colours move, in place, is deltamin.colouring's
ColourTable, over codes 0-3: a letter's index in CODES.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from .errors import DomainError
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
        # imported here so that a command that only builds colourings does
        # not compile the Kempe toolkit
        from .colouring import ColourTable

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

    # json is imported by the two methods that use it, so that solve never
    # loads it
    def to_json(self) -> str:
        import json

        return json.dumps({"colours": list(self.codes)})

    @classmethod
    def from_json(cls, graph: Graph, text: str) -> "EdgeColouring":
        import json

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
