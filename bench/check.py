"""Checks of the CLI's output, and a self-test showing the checks bite.

A graph fails when its record is missing or duplicated, is an error record,
reports a wrong s, or carries a witness that is not a proper 4-edge-colouring
with exactly s delta edges.  Exact workloads compare s with a reference;
upper-bound records must respect the graph's proven lower bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from corpus import Item, item

CUBIC_12_CLASSES = 85


@dataclass
class Outcome:
    attempted: int
    failed: int
    s_total: int = 0


def witness_ok(item: Item, rec: dict) -> bool:
    colours = rec.get("colours")
    if not isinstance(colours, list) or len(colours) != len(item.edges):
        return False
    seen: set[tuple[int, str]] = set()
    for (u, v), col in zip(item.edges, colours):
        if col not in ("a", "b", "g", "d") or (u, col) in seen or (v, col) in seen:
            return False
        seen.add((u, col))
        seen.add((v, col))
    return colours.count("d") == rec.get("s")


def record_ok(item: Item, rec: dict | None, reference: int | None, analyze: bool) -> bool:
    if rec is None or "error" in rec:
        return False
    if rec.get("n") != item.n or rec.get("m") != len(item.edges):
        return False
    s = rec.get("s")
    if not isinstance(s, int) or s < item.s_floor:
        return False
    if reference is not None and s != reference:
        return False
    if analyze and not isinstance(rec.get("verification"), dict):
        return False
    return witness_ok(item, rec)


def check_records(stdout: str, items: list[Item], references: list[int | None], analyze: bool) -> Outcome:
    """Score solve/analyze JSON lines against the corpus, record by index.

    analyze's exit status is deliberately ignored: it is 1 whenever an
    upper-bound witness fails a structural clause, which is expected."""
    by_index: dict[int, dict | None] = {}
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
            idx = rec["index"]
        except (ValueError, KeyError, TypeError):
            continue
        # a duplicated index poisons that graph
        by_index[idx] = None if idx in by_index else rec
    failed = s_total = 0
    for idx, (item, ref) in enumerate(zip(items, references)):
        rec = by_index.get(idx)
        if record_ok(item, rec, ref, analyze):
            s_total += rec["s"]
        else:
            failed += 1
    return Outcome(len(items), failed, s_total)


def check_enumeration(stdout: str, n: int = 12, expected: int = CUBIC_12_CLASSES) -> Outcome:
    """The emitted graph6 lines must be `expected` connected cubic graphs on
    n vertices, pairwise non-isomorphic by networkx."""
    import warnings

    import networkx as nx

    # networkx >= 3.5 warns that its hashes changed; only equality within a run matters
    warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)
    kept: dict[str, list] = {}
    good = bad = 0
    for line in stdout.split():
        try:
            g = nx.from_graph6_bytes(line.encode("ascii"))
        except (ValueError, nx.NetworkXError):
            bad += 1
            continue
        if g.number_of_nodes() != n or any(d != 3 for _, d in g.degree()) or not nx.is_connected(g):
            bad += 1
            continue
        bucket = kept.setdefault(nx.weisfeiler_lehman_graph_hash(g), [])
        if any(nx.is_isomorphic(g, h) for h in bucket):
            bad += 1
            continue
        bucket.append(g)
        good += 1
    return Outcome(expected, min(expected, max(0, expected - good) + bad))


# ---------------------------------------------------------------------------
# self-test


def _record(index: int, item: Item, s: int, colours: str) -> dict:
    return {"index": index, "n": item.n, "m": len(item.edges), "s": s,
            "method": "Exact", "colours": list(colours)}


def self_test() -> list[str]:
    """Mutations that each must raise the failure count; returns the names
    of those that did not (empty when the checker works)."""
    k4 = item(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    c5 = item(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    items, refs = [k4, c5], [0, 1]
    good = [_record(0, k4, 0, "abggba"), _record(1, c5, 1, "abadb")]

    def failures(records: list[dict]) -> int:
        text = "".join(json.dumps(r) + "\n" for r in records)
        return check_records(text, items, refs, analyze=False).failed

    broken = []
    if failures(good) != 0:
        broken.append("clean records")
    mutations = {
        "wrong s": [good[0], dict(good[1], s=2, colours=list("adadb"))],
        "improper witness": [good[0], dict(good[1], colours=list("aaadb"))],
        "delta count differs from s": [good[0], dict(good[1], colours=list("abagb"))],
        "dropped record": [good[0]],
        "error record": [good[0], {"index": 1, "error": "boom"}],
    }
    for name, records in mutations.items():
        if failures(records) == 0:
            broken.append(name)
    if check_enumeration(k4.g6 + "\n", n=4, expected=1).failed != 0:
        broken.append("clean enumeration")
    if check_enumeration("", n=4, expected=1).failed == 0:
        broken.append("dropped class")
    if check_enumeration(k4.g6 + "\n" + k4.g6 + "\n", n=4, expected=1).failed == 0:
        broken.append("duplicate class")
    return broken
