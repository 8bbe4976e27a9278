"""Orderly generation of the connected cubic graphs on n vertices, one
labelled graph per isomorphism class, with no pairwise isomorphism test.

The method is McKay's orderly generation (*Isomorph-free exhaustive
generation*, J. Algorithms 1998) applied to breadth-first labellings.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterator, Sequence

from .graphs import MAX_DEGREE

# a choice key gives each old partner a slot of this many bits; labels stay
# below 32
_LABEL_BITS = 5


def _choice_key(new_count: int, chosen: Sequence[int]) -> int:
    """One vertex's choice, ``new_count`` fresh neighbours and the sorted
    old partners ``chosen``, packed into an int.

    Among the choices of one vertex, ``new_count + len(chosen)`` is fixed,
    and the ints order like the tuples ``(new_count, tuple(chosen))``.
    """
    key = new_count
    for j in chosen:
        key = key << _LABEL_BITS | j
    return key << _LABEL_BITS * (MAX_DEGREE - len(chosen))


def orderly_cubic_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge sets of the connected cubic graphs on n vertices, one per
    isomorphism class: the least breadth-first labelling of each class.

    Candidates.  Vertices are completed in label order.  Vertex 0 gets the
    fresh neighbours 1, 2, 3; each later vertex i gets its missing
    neighbours as ``new_count`` fresh vertices (the next unused labels) and
    a combination ``chosen`` of old ones (labelled, above i, not full).
    Fresh counts are tried in increasing order and combinations in
    lexicographic order, and the choices at vertices 0..i-1 fix the state
    at vertex i, so candidates come in lexicographic order of their key
    sequences ``key_i = (new_count_i, chosen_i)``.  A class's candidates
    are its breadth-first labellings: at position k of one, the key is the
    number of unlabelled neighbours and the sorted labels above k of the
    labelled ones.

    Orderly test.  A candidate is kept only when no breadth-first
    relabelling has a strictly smaller key sequence, so each class gives
    the first of its labellings that the generator reaches.  The test runs
    after each completed vertex i, on the relabellings rooted at completed
    vertices, and compares keys only while a relabelling processes
    completed vertices, whose keys no later choice changes.  A strictly
    smaller prefix beats every completion, so the whole subtree is pruned.
    A relabelling that reaches a vertex not yet completed waits on that
    vertex's list and resumes when the vertex is completed; after the last
    vertex none waits, so the last test is the full one over all roots.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    keys: list[int] = []  # keys[i]: the choice key of completed vertex i
    # waiting[v]: relabellings stopped at position k on vertex v, each as
    # (k, next free label, label of each vertex or -1, vertex at each label)
    waiting: list[list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in range(n)
    ]

    def resume(i: int) -> list[int] | None:
        """After vertex i is completed: resume the relabellings waiting on
        it and start the one rooted at it.  None when one of them has a
        smaller key prefix; otherwise the vertices whose waiting lists grew,
        one entry per relabelling added."""
        grown: list[int] = []

        def smaller(k: int, nxt: int, lab: list[int], order: list[int]) -> bool:
            if k == n:
                return False  # an automorphism: equal, not smaller
            v = order[k]
            if v > i:
                waiting[v].append((k, nxt, tuple(lab), tuple(order)))
                grown.append(v)
                return False
            fresh = []
            later = []
            for w in nbrs[v]:
                label = lab[w]
                if label < 0:
                    fresh.append(w)
                elif label > k:
                    later.append(label)
            later.sort()
            key = _choice_key(len(fresh), later)
            if key != keys[k]:
                return key < keys[k]
            if not fresh:
                return smaller(k + 1, nxt, lab, order)
            # the fresh neighbours take the next labels, in every order
            for perm in permutations(fresh):
                for label, w in enumerate(perm, nxt):
                    lab[w] = label
                    order[label] = w
                if smaller(k + 1, nxt + len(perm), lab, order):
                    return True
            for w in fresh:
                lab[w] = -1
            return False

        root_lab = [-1] * n
        root_lab[i] = 0
        root_order = [i] * n
        for k, nxt, lab, order in waiting[i] + [(0, 1, root_lab, root_order)]:
            if smaller(k, nxt, list(lab), list(order)):
                for v in grown:
                    waiting[v].pop()
                return None
        return grown

    def complete(i: int, introduced: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if i == n:
            # in the order they were added: at their lower end, by vertex
            yield tuple((v, w) for v in range(n) for w in nbrs[v] if w > v)
            return
        need = MAX_DEGREE - len(nbrs[i])
        # edges are added at their lower end, so i has no neighbour above it yet
        old = [j for j in range(i + 1, introduced) if len(nbrs[j]) < MAX_DEGREE]
        max_new = min(need, n - introduced)
        for new_count in range(max_new + 1):
            for chosen in combinations(old, need - new_count):
                partners = chosen + tuple(range(introduced, introduced + new_count))
                for j in partners:
                    nbrs[i].append(j)
                    nbrs[j].append(i)
                nxt = introduced + new_count
                # the next vertex to complete must already exist, and while
                # vertices remain uninstantiated some completed-side slack
                # must remain to introduce them
                viable = i + 1 == n or i + 1 < nxt
                if viable and nxt < n:
                    slack = sum(MAX_DEGREE - len(nbrs[j]) for j in range(i + 1, nxt))
                    viable = slack > 0
                if viable:
                    keys.append(_choice_key(new_count, chosen))
                    grown = resume(i)
                    if grown is not None:
                        yield from complete(i + 1, nxt)
                        for v in grown:
                            waiting[v].pop()
                    keys.pop()
                for j in partners:
                    nbrs[i].pop()
                    nbrs[j].pop()

    yield from complete(0, 1)
