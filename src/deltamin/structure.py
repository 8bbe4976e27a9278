"""Classification of delta edges, the delta-shift move, and the structural
verifier.  The shift and the verifier's joining paths run on the colour
table (colouring.ColourTable).

Every delta edge of a delta-minimum proper colouring belongs to at least one
of three classes, named by the two-colour subgraph whose path joins the
edge's ends: A for (alpha,beta), B for (beta,gamma), C for (alpha,gamma).
Closing that path with the edge itself yields the edge's associated odd
cycle.  The verifier re-checks each published structural consequence as an
independent clause, so it doubles as a detector for colourings that are
proper but not minimum.
"""

from __future__ import annotations

import enum
import json
from itertools import combinations
from typing import Any, Mapping, NamedTuple, Optional

from .colouring import ColourTable
from .colours import CODES, Colour, EdgeColouring
from .errors import ClassificationError, ContractViolationError, DomainError


class DeltaClass(enum.Enum):
    A = "A"
    B = "B"
    C = "C"

    @property
    def pair(self) -> tuple[Colour, Colour]:
        return Colour(_LETTERS[self][0]), Colour(_LETTERS[self][1])

    @property
    def external_colour(self) -> Colour:
        """Colour of every edge leaving this class's associated cycles."""
        return Colour(_LETTERS[self][2])


# as code letters, each class's colour pair, then its cycles' external colour
_LETTERS = {DeltaClass.A: "abg", DeltaClass.B: "bga", DeltaClass.C: "agb"}
# each class's colour pair as ColourTable codes
_PAIR_CODES = {cls: (CODES.index(k[0]), CODES.index(k[1])) for cls, k in _LETTERS.items()}


class DeltaClassification(NamedTuple):
    colouring: EdgeColouring
    memberships: Mapping[int, frozenset[DeltaClass]]
    cycles: Mapping[tuple[int, DeltaClass], tuple[int, ...]]


def _joining_cycle(t: ColourTable, e: int, cls: DeltaClass) -> Optional[tuple[int, ...]]:
    """The delta edge e followed by the path of cls's colour pair that joins
    its ends, walked from the lower end; None when no such path exists.

    An end that sees both colours of the pair, or neither, ends no path of
    it (path_from would raise), so the walk starts only from an end that
    sees exactly one."""
    u, v = t.graph.edges[e]
    x, y = _PAIR_CODES[cls]
    free = t.free(u)
    if (x in free) == (y in free):
        return None
    far, path = t.path_from(u, x, y)
    return (e,) + tuple(path) if far == v else None


def _proper_table(c: EdgeColouring, refusal: str) -> ColourTable:
    """c's ColourTable, whose build refuses a non-delta clash, once its delta
    class is a matching; DomainError(refusal) when c is not proper."""
    try:
        t = ColourTable(c)
    except DomainError:
        raise DomainError(refusal) from None
    if t.deltas_meet():
        raise DomainError(refusal)
    return t


def _memberships_lenient(
    t: ColourTable,
) -> dict[int, dict[DeltaClass, tuple[int, ...]]]:
    """Class memberships for every delta edge of the table, by the
    joining-path criterion alone.  No parity filtering and no exception on
    an empty result; the verifier clauses judge what is recorded here."""
    found: dict[int, dict[DeltaClass, tuple[int, ...]]] = {}
    for e in t.deltas:
        per_class = {}
        for cls in DeltaClass:
            cycle = _joining_cycle(t, e, cls)
            if cycle is not None:
                per_class[cls] = cycle
        found[e] = per_class
    return found


def classify_delta_edges(c: EdgeColouring) -> DeltaClassification:
    """Class memberships and associated odd cycles of every delta edge.

    The input must be proper and delta-minimum.  Minimality is the caller's
    claim; it is falsified (ClassificationError) when some delta edge's ends
    are joined by no even path in any of the three colour pairs.  A delta
    edge with a degree-2 end legitimately lands in two classes and both are
    recorded.
    """
    t = _proper_table(c, "classification needs a proper colouring")
    memberships: dict[int, frozenset[DeltaClass]] = {}
    cycles: dict[tuple[int, DeltaClass], tuple[int, ...]] = {}
    for e, per_class in _memberships_lenient(t).items():
        kept = []
        for cls, cycle in per_class.items():
            if len(cycle) % 2 == 1:  # even path plus the edge itself
                kept.append(cls)
                cycles[(e, cls)] = cycle
        if not kept:
            raise ClassificationError(
                f"delta edge {e} has no joining even path; "
                "the colouring is not delta-minimum"
            )
        memberships[e] = frozenset(kept)
    return DeltaClassification(c, memberships, cycles)


# ---------------------------------------------------------------------------
# delta shift


def shift_delta(
    c: EdgeColouring,
    cl: DeltaClassification,
    e: int,
    cls: DeltaClass,
    e_target: int,
) -> EdgeColouring:
    """Move the delta colour from e to another edge of its associated cycle.

    Walks the cycle from e towards e_target in stored orientation, in place
    on one ColourTable: each step hands delta on to the next cycle edge and
    takes that edge's colour back to the previous one.  Off-cycle edges are
    untouched, the delta count is preserved, and e_target inherits the class
    with the same cycle.  The cost is one table build plus O(1) per step,
    where a copy and a whole-colouring check per step would cost O(m) each.

    The cycle is a maximal path of cls's colour pair closed by e, in a
    proper colouring: the far end of e misses the colour it receives, and
    every vertex the walk passes keeps three distinct colours unless it has
    a second delta edge.  So the one clash a step can make is a second delta
    edge at an end of the edge taking delta, which a delta-minimum colouring
    never has.  Each step looks at both ends of that edge before it
    recolours, and raises ContractViolationError on such a clash.  A
    colouring whose delta class is not a matching to begin with raises
    DomainError, checked once in O(s) after the table is built.
    """
    if cl.colouring != c:
        raise ContractViolationError("classification describes a different colouring")
    if e not in cl.memberships or cls not in cl.memberships[e]:
        raise DomainError(f"edge {e} is not classified {cls.value}")
    cycle = cl.cycles[(e, cls)]
    if e_target not in cycle:
        raise DomainError(f"edge {e_target} is not on the {cls.value} cycle of edge {e}")
    if e_target == e:
        return c
    t = ColourTable(c)
    ends, adjacency, code = c.graph.edges, c.graph.adjacency, t.code
    # the steps look only around the edge taking delta, so the rest of the
    # delta class must be a matching already
    if t.deltas_meet():
        raise DomainError("shift needs a proper colouring: two delta edges meet")
    prev = e
    for cur in cycle[1 : cycle.index(e_target) + 1]:
        if any(code[f] == 3 and f not in (prev, cur) for x in ends[cur] for _, f in adjacency[x]):
            raise ContractViolationError(
                f"shift step onto edge {cur} broke properness; "
                "the input colouring was not delta-minimum"
            )
        t.recolour({prev: code[cur], cur: 3})
        prev = cur
    # the input's delta-minimum claim: e_target inherits the class and cycle
    joined = _joining_cycle(t, e_target, cls)
    if joined is None or set(joined) != set(cycle):
        raise ContractViolationError("target edge lost its class or cycle after shift")
    return t.colouring(code)


# ---------------------------------------------------------------------------
# verifier


class ClauseResult(NamedTuple):
    clause_id: str
    passed: bool
    witness: Any = None


class VerificationReport(NamedTuple):
    clauses: tuple[ClauseResult, ...]
    delta_count: int
    counts: dict[str, int]
    strong_matching: bool

    @property
    def all_pass(self) -> bool:
        return all(cl.passed for cl in self.clauses)

    def clause(self, clause_id: str) -> ClauseResult:
        for cl in self.clauses:
            if cl.clause_id == clause_id:
                return cl
        raise DomainError(f"no clause {clause_id!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "clauses": [
                {"id": cl.clause_id, "pass": cl.passed, "witness": cl.witness}
                for cl in self.clauses
            ],
            "s": self.delta_count,
            "counts": dict(self.counts),
            "strong_matching": self.strong_matching,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _joins(c: EdgeColouring, delta_edges: list[int]) -> dict[tuple[int, int], list[int]]:
    """Each pair (e1, e2), e1 < e2, of delta edges joined by an edge, mapped
    to its joining edges, ascending.  Delta is a matching, so every vertex
    has at most one delta edge, its owner.  The walk looks only around the
    delta edges' ends and files a joining edge from its lower owner's side,
    so it meets each joining edge once."""
    ends, adjacency = c.graph.edges, c.graph.adjacency
    owner = {x: e for e in delta_edges for x in ends[e]}
    joins: dict[tuple[int, int], list[int]] = {}
    for e in delta_edges:
        for x in ends[e]:
            for y, eid in adjacency[x]:
                f = owner.get(y, e)  # a vertex off delta files nothing
                if f > e:
                    joins.setdefault((e, f), []).append(eid)
    for joining in joins.values():
        joining.sort()
    return joins


def _clause(name: str, bad: list, key: str) -> ClauseResult:
    """A clause that fails exactly when its list of offenders is non-empty."""
    return ClauseResult(name, not bad, {key: bad} if bad else None)


def _congruent_mod_2(a: int, b: int, c: int, s: int) -> bool:
    """The parity congruence |A| ≡ |B| ≡ |C| ≡ s (mod 2)."""
    return a % 2 == b % 2 == c % 2 == s % 2


def verify_theorem1(c: EdgeColouring, s_known: Optional[int] = None) -> VerificationReport:
    """Evaluate every published structural clause against a proper colouring.

    Clause failures are report entries, never exceptions, so the verifier
    can run on colourings that merely claim to be delta-minimum.  With
    s_known given, the parity clause checks congruence to it instead of to
    the colouring's own delta count.  parity_congruence is evaluated on
    cubic graphs only and passes vacuously otherwise; strong_matching_flag
    is informational (always passes, value reported separately).

    Properness is checked by the one table build.  Past it, one pass over
    the delta edges, ascending, and over each one's associated cycles
    fills every per-edge and per-cycle clause, the class members and an
    index of the cycles through each vertex.  The global clauses read what
    that pass built: cycles are compared only where they meet at a vertex,
    and the pair, trio and strong-matching clauses read one map of the
    edges joining delta edges.  So every step is per delta edge or cycle,
    a witness without one costs the table build alone, and the whole cost
    is linear in the graph plus the size of the report.
    """
    t = _proper_table(c, "verification needs a proper colouring")
    g, codes = c.graph, c.codes
    ends, adjacency, degree = g.edges, g.adjacency, g.degree
    found = _memberships_lenient(t)
    incidence, pattern, unclassified, oddness, external, consecutive = [], [], [], [], [], []
    members: dict[DeltaClass, list[int]] = {cls: [] for cls in DeltaClass}
    cycle_verts: list[tuple[int, set[int]]] = []  # (delta edge, its cycle's vertices)
    on: dict[int, list[int]] = {}  # vertex -> positions in cycle_verts of the cycles through it
    for e in t.deltas:
        u, v = ends[e]
        # delta_incidence: all three proper colours appear next to each
        # delta edge, so none is free at both its ends
        if set(t.free(u)).intersection(t.free(v)):
            incidence.append(e)
        # degree_pattern: end degrees (2,3) or (3,3), the only pairs of
        # degrees at most three that sum to five or more
        if degree(u) + degree(v) < 5:
            pattern.append(e)
        # classification_total: every delta edge joined in at least one class
        if not found[e]:
            unclassified.append(e)
        for cls, cycle in found[e].items():
            members[cls].append(e)
            # cycle_oddness: every recorded cycle odd, with exactly one delta edge
            if len(cycle) % 2 == 0 or [x for x in cycle if codes[x] == "d"] != [e]:
                oddness.append({"edge": e, "class": cls.value, "length": len(cycle)})
            # external_edge_colour: edges leaving a cycle wear the class colour
            verts = {x for eid in cycle for x in ends[eid]}
            want = _LETTERS[cls][2]
            external += ({"edge": e, "class": cls.value, "external": eid} for eid in sorted(
                eid for a in verts for b, eid in adjacency[a] if b not in verts and codes[eid] != want))
            # no_consecutive_degree2: no cycle edge joins two degree-2 vertices
            for eid in cycle:
                a, b = ends[eid]
                if degree(a) == 2 == degree(b):
                    consecutive.append({"edge": e, "class": cls.value, "vertices": [a, b]})
            for x in verts:
                on.setdefault(x, []).append(len(cycle_verts))
            cycle_verts.append((e, verts))

    # cycles_disjoint: cycles of distinct delta edges share no vertex; only
    # cycles that meet at a vertex are compared, in (e1, e2, class) order
    meeting = {(i, j) for idx in on.values() for i, j in combinations(idx, 2)
               if cycle_verts[i][0] != cycle_verts[j][0]}
    disjoint = [{"edges": [cycle_verts[i][0], cycle_verts[j][0]],
                 "vertices": sorted(cycle_verts[i][1] & cycle_verts[j][1])}
                for i, j in sorted(meeting, key=lambda p: (cycle_verts[p[0]][0], cycle_verts[p[1]][0], p))]

    # parity_congruence (cubic only): |A| ≡ |B| ≡ |C| ≡ s (mod 2)
    counts = {cls.value: len(es) for cls, es in members.items()}
    target = s_known if s_known is not None else len(t.deltas)
    ok = _congruent_mod_2(counts["A"], counts["B"], counts["C"], target) or not g.is_cubic()

    # pair_interaction: disjoint classes force 2K2, shared class allows one
    # joining edge; an unjoined pair passes, and one with an unclassified
    # edge is already reported by classification_total
    joins = _joins(c, t.deltas)
    pairs = [{"edges": [e1, e2], "joining": joining} for (e1, e2), joining in sorted(joins.items())
             if found[e1] and found[e2] and len(joining) > (1 if found[e1].keys() & found[e2].keys() else 0)]

    # triple_interaction: three same-class edges induce at most four edges.
    # A trio induces itself and the joins among its pairs, so only a trio
    # holding a pair joined twice, or two joined pairs, can fail
    triples = []
    for cls, es in members.items():
        near: dict[int, list[int]] = {e: [] for e in es}
        trios = set()
        for (e1, e2), joining in joins.items():
            if e1 in near and e2 in near:
                near[e1].append(e2)
                near[e2].append(e1)
                if len(joining) > 1:  # five induced edges with any third member
                    trios.update(tuple(sorted((e1, e2, e3))) for e3 in near if e3 != e1 and e3 != e2)
        for e, partners in near.items():  # two pairs joined through e
            trios.update(tuple(sorted((e, a, b))) for a, b in combinations(partners, 2))
        for trio in sorted(trios):
            induced = sorted([*trio, *(x for pair in combinations(trio, 2) for x in joins.get(pair, ()))])
            triples.append({"edges": list(trio), "class": cls.value, "induced": induced})

    clauses = (
        _clause("delta_incidence", incidence, "edges"),
        _clause("degree_pattern", pattern, "edges"),
        _clause("classification_total", unclassified, "edges"),
        _clause("cycle_oddness", oddness, "cycles"),
        _clause("external_edge_colour", external, "edges"),
        _clause("no_consecutive_degree2", consecutive, "pairs"),
        _clause("cycles_disjoint", disjoint, "pairs"),
        ClauseResult("parity_congruence", ok, None if ok else {"counts": dict(counts), "target": target}),
        _clause("pair_interaction", pairs, "pairs"),
        _clause("triple_interaction", triples, "triples"),
        ClauseResult("strong_matching_flag", True, None),  # informational only
    )
    return VerificationReport(clauses, len(t.deltas), counts, strong_matching=not joins)


# ---------------------------------------------------------------------------
# parity


class ParitySignature(NamedTuple):
    """(|A|, |B|, |C|, parity_ok)."""

    a: int
    b: int
    c: int
    parity_ok: bool

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.a, self.b, self.c


def parity_signature(cl: DeltaClassification) -> ParitySignature:
    """Class counts and their congruence to the delta count, mod 2.

    Defined for cubic graphs only; there every delta edge has exactly one
    membership (asserted), so the counts partition the delta class.
    """
    g = cl.colouring.graph
    if not g.is_cubic():
        raise DomainError("parity signature is defined for cubic graphs only")
    counts = {cls: 0 for cls in DeltaClass}
    for e, classes in cl.memberships.items():
        if len(classes) != 1:
            raise ContractViolationError(
                f"delta edge {e} has {len(classes)} memberships on a cubic graph"
            )
        counts[next(iter(classes))] += 1
    a, b, c = counts[DeltaClass.A], counts[DeltaClass.B], counts[DeltaClass.C]
    return ParitySignature(a, b, c, _congruent_mod_2(a, b, c, cl.colouring.delta_count()))
