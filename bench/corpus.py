"""Seeded benchmark inputs, built without the package under test.

The generators here mirror the package's named constructions (so a
"natural" labelling means the package's own vertex numbering) but share no
code with it: the parent and the changed commit must receive byte-identical
inputs for the same seed even if the package's generators change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

CUBIC_CLASSES = Path(__file__).with_name("cubic_10_12.g6")

_SIX = (5, 4, 3, 2, 1, 0)


@dataclass(frozen=True)
class Item:
    """One input graph: its graph6 line, its edges in the order the package
    parses them (graph6 column order), and what the checker may assume."""

    g6: str
    n: int
    edges: tuple[tuple[int, int], ...]
    known_s: Optional[int] = None  # s fixed by construction (checked against resistance_exact)
    s_floor: int = 0  # proven lower bound on s, for upper-bound records


def g6_order(edges) -> tuple[tuple[int, int], ...]:
    """Edges normalised to u < v and sorted into graph6 column order."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    return tuple(sorted(norm, key=lambda e: (e[1], e[0])))


def encode_graph6(n: int, edges) -> str:
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in edges:
        k = v * (v - 1) // 2 + u if u < v else u * (u - 1) // 2 + v
        body[k // 6] |= 1 << (5 - k % 6)
    return (head + bytes(b + 63 for b in body)).decode("ascii")


def decode_graph6(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and edges (graph6 column order) of a small graph6 line."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if n > 62:
        raise ValueError("decode_graph6 handles n <= 62 only")
    edges = []
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    bits = (((b - 63) >> s) & 1 for b in data[1:] for s in _SIX)
    for pair, bit in zip(pairs, bits):
        if bit:
            edges.append(pair)
    return n, tuple(edges)


def item(n: int, edges, known_s: Optional[int] = None, s_floor: int = 0) -> Item:
    ordered = g6_order(edges)
    return Item(encode_graph6(n, ordered), n, ordered, known_s, s_floor)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# ---------------------------------------------------------------------------
# named constructions


def petersen() -> list[tuple[int, int]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return edges


def flower(k: int) -> list[tuple[int, int]]:
    """Flower snark J_k (odd k >= 3) on 4k vertices."""
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
    return edges


def petersen_ring(blocks: int) -> list[tuple[int, int]]:
    """Cubic ring of Petersen-minus-edge blocks: edge (0, 1) is removed from
    each copy and vertex 1 of block b is joined to vertex 0 of block b+1.
    Each block needs its own delta edge, so s equals the block count."""
    base = [e for e in petersen() if e != (0, 1)]
    edges = []
    for b in range(blocks):
        off = 10 * b
        edges += [(u + off, v + off) for u, v in base]
        edges.append((off + 1, 10 * ((b + 1) % blocks)))
    return edges


def random_subcubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected random graph with maximum degree three: a degree-capped
    random spanning tree, then up to 4n random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    deg = [0] * n
    present: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        present.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1

    open_ = [order[0]]
    for v in order[1:]:
        u = rng.choice(open_)
        add(u, v)
        open_.append(v)
        if deg[u] == 3:
            open_.remove(u)
    for _ in range(4 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < 3 and deg[v] < 3 and (min(u, v), max(u, v)) not in present:
            add(u, v)
    return list(present)


def cubic_classes() -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every connected cubic graph on 10 and 12 vertices (19 + 85 classes)."""
    lines = CUBIC_CLASSES.read_text(encoding="ascii").split()
    return [decode_graph6(ln) for ln in lines]


# ---------------------------------------------------------------------------
# workload corpora


def census(rng: random.Random, relabellings: int, randoms: int) -> list[Item]:
    items = []
    for n, edges in cubic_classes():
        for _ in range(relabellings):
            items.append(item(n, relabel(n, edges, rng)))
    for _ in range(randoms):
        n = rng.randrange(8, 15)
        items.append(item(n, random_subcubic(n, rng)))
    rng.shuffle(items)
    return items


def snarks(rng: random.Random, relabellings: int) -> list[Item]:
    """Class-2 cubic graphs in natural labelling plus seeded relabellings of
    all but J7 (n=28), whose solve time depends too much on the labelling
    for a steady benchmark."""
    natural = [(10, petersen()), (20, flower(5)), (28, flower(7)), (20, petersen_ring(2))]
    items = [item(n, e, known_s=2) for n, e in natural]
    for n, edges in natural:
        if n == 28:
            continue
        for _ in range(relabellings):
            items.append(item(n, relabel(n, edges, rng), known_s=2))
    return items


def large(rng: random.Random, sizes: tuple[int, ...]) -> list[Item]:
    """Flower snarks J9..J21 (2-factor start) and random subcubic graphs
    (greedy start); every one is above the default exact limit."""
    items = [item(4 * k, flower(k), s_floor=2) for k in range(9, 22, 2)]
    for n in sizes:
        items.append(item(n, random_subcubic(n, rng)))
    return items


def petersen_ring3() -> Item:
    return item(30, petersen_ring(3), known_s=3)


def flower29() -> Item:
    return item(116, flower(29), s_floor=2)

