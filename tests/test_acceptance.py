"""Acceptance gate: the eight build criteria.

Each criterion is one test.  Every test routes its verdict through
`record`, so the summary block at the end of the run (see conftest)
prints one PASS/FAIL line per criterion regardless of where pytest
stops.
"""

import random
import time

from conftest import record_criterion

from deltamin import (
    Colour,
    ColouringKind,
    DeltaClass,
    EdgeColouring,
    checks,
    classify_delta_edges,
    kempe_decompose,
    make_named,
    shift_delta,
    solve_exact,
    verify_theorem1,
)

A, B, G, D = Colour.ALPHA, Colour.BETA, Colour.GAMMA, Colour.DELTA


def record(number: int, failed: list[str]) -> None:
    record_criterion(number, "FAIL: " + failed[0] if failed else "PASS")
    assert not failed, f"criterion {number}: " + "; ".join(failed[:10])


def test_criterion_1_golden_values():
    start = time.monotonic()
    _, failed = checks.golden_values()
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failed.append(f"took {elapsed:.1f}s, budget is 10s")
    record(1, failed)


def test_criterion_2_two_factor_bound(corpus_witnesses):
    record(2, checks.two_factor_bound(corpus_witnesses)[1])


def test_criterion_3_resistance_equivalence(corpus_witnesses):
    graphs = checks.random_graphs(random.Random("acceptance:resistance"), 500, range(1, 11))
    record(3, checks.resistance_equivalence(corpus_witnesses, graphs)[1])


def test_criterion_4_properize_contract():
    colourings = checks.random_improper_colourings(random.Random("acceptance:properize"), 1000, range(2, 13))
    record(4, checks.properize_contract(colourings)[1])


def test_criterion_5_verifier_on_corpus_witnesses(corpus_witnesses):
    failed = []
    checked = 0
    for (n, i), result in sorted(corpus_witnesses.items()):
        if result.s_value == 0:
            continue
        checked += 1
        report = verify_theorem1(result.witness, s_known=result.s_value)
        for cl in report.clauses:
            if not cl.passed:
                failed.append(f"n={n} graph {i}: clause {cl.clause_id} failed: {cl.witness}")
    if checked == 0:
        failed.append("no corpus witness with s >= 1; the corpus is wrong")
    record(5, failed)


def test_criterion_6_shift_on_petersen_witnesses():
    base = solve_exact(make_named("petersen")).witness
    # several optimal witnesses: the solver's, plus each single-shift image
    witnesses = [base]
    cl0 = classify_delta_edges(base)
    seed_edge = min(cl0.memberships)
    seed_cls = min(cl0.memberships[seed_edge], key=lambda x: x.value)
    for target in cl0.cycles[(seed_edge, seed_cls)][1:]:
        witnesses.append(shift_delta(base, cl0, seed_edge, seed_cls, target))

    failed = []
    for wi, w in enumerate(witnesses):
        cl = classify_delta_edges(w)
        for e, classes in cl.memberships.items():
            for cls in classes:
                cycle = cl.cycles[(e, cls)]
                on_cycle = set(cycle)
                for target in cycle:
                    out = shift_delta(w, cl, e, cls, target)
                    if out.classification() is not ColouringKind.PROPER:
                        failed.append(f"witness {wi} edge {e}: shift to {target} not proper")
                    if out.delta_count() != w.delta_count():
                        failed.append(f"witness {wi} edge {e}: delta count changed")
                    if any(
                        out.colour_of(x) is not w.colour_of(x)
                        for x in range(w.graph.edge_count)
                        if x not in on_cycle
                    ):
                        failed.append(f"witness {wi} edge {e}: off-cycle colour changed")
                    if target != e:
                        back_cl = classify_delta_edges(out)
                        back = shift_delta(out, back_cl, target, cls, e)
                        if back.colour_class(D) != w.colour_class(D):
                            failed.append(
                                f"witness {wi} edge {e}: shifting back lost the delta class"
                            )
    record(6, failed)


def test_criterion_7_parity_identity(corpus_witnesses):
    failed = []
    for (n, i), result in sorted(corpus_witnesses.items()):
        w = result.witness
        cl = classify_delta_edges(w)
        counts = {cls: 0 for cls in DeltaClass}
        for classes in cl.memberships.values():
            for cls in classes:
                counts[cls] += 1
        dec = kempe_decompose(w, A, B)
        deg1 = sum(len(c.endpoints()) for c in dec.components if not c.is_cycle)
        want = 2 * counts[DeltaClass.A] + counts[DeltaClass.B] + counts[DeltaClass.C]
        if deg1 != want:
            failed.append(f"n={n} graph {i}: {deg1} degree-1 endpoints, identity wants {want}")
        if deg1 % 2:
            failed.append(f"n={n} graph {i}: odd degree-1 endpoint count {deg1}")
    record(7, failed)


def corrupt(witness: EdgeColouring, rng: random.Random) -> EdgeColouring | None:
    """Recolour one edge with a delta-free neighbourhood to delta: stays
    proper, adds one delta edge, and is never delta-minimum."""
    g = witness.graph
    options = []
    for eid in range(g.edge_count):
        if witness.colour_of(eid) is D:
            continue
        u, v = g.edges[eid]
        if D in witness.colours_at(u) or D in witness.colours_at(v):
            continue
        options.append(eid)
    if not options:
        return None
    return witness.with_colours({rng.choice(options): D})


def test_criterion_8_mutation_sensitivity():
    rng = random.Random("acceptance:mutation")
    bases = [
        (make_named("petersen"), solve_exact(make_named("petersen"))),
        (make_named("k33"), solve_exact(make_named("k33"))),
        (make_named("flower", 5), solve_exact(make_named("flower", 5))),
    ]
    flagged = 0
    total = 100
    for trial in range(total):
        g, result = bases[trial % len(bases)]
        mutated = corrupt(result.witness, rng)
        assert mutated is not None
        assert mutated.classification() is ColouringKind.PROPER
        report = verify_theorem1(mutated, s_known=result.s_value)
        if not report.all_pass:
            flagged += 1
    failed = []
    if flagged < 95:
        failed.append(f"only {flagged} of {total} corruptions flagged")
    record_criterion(
        8, f"PASS ({flagged}/{total} flagged)" if not failed else "FAIL: " + failed[0]
    )
    assert not failed, failed
