"""Shared fixtures and the acceptance-criteria summary.

The enumerated cubic corpora are expensive enough (seconds at n=10) that
they are built once per session and shared across test modules.
"""

import pytest

from deltamin import Graph, checks, solve_exact

# Verdict registry for the acceptance tests; one summary line is printed
# per criterion after the run.
CRITERIA = {
    1: "golden values (K4, K3,3, C5, Petersen)",
    2: "two-factor odd-cycle bound over the cubic corpus",
    3: "resistance equals s on cubic corpus + 500 random subcubic",
    4: "properize contract over 1000 random improper colourings",
    5: "verifier clauses on every corpus witness with s >= 1",
    6: "delta shift along associated cycles on Petersen witnesses",
    7: "degree-one endpoint parity identity on cubic witnesses",
    8: "mutation sensitivity of the verifier (>= 95 of 100)",
}

_RESULTS: dict[int, str] = {}


def record_criterion(number: int, verdict: str) -> None:
    _RESULTS[number] = verdict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        verdict = _RESULTS.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number}: {verdict}  [{CRITERIA[number]}]"
        )


@pytest.fixture(scope="session")
def cubic_corpus() -> dict[int, list[Graph]]:
    return checks.cubic_corpus()


@pytest.fixture(scope="session")
def corpus_witnesses(cubic_corpus):
    """solve_exact over the whole corpus, keyed by (n, index)."""
    return checks.solve_corpus(cubic_corpus)


@pytest.fixture(scope="session")
def petersen_result():
    from deltamin import make_named

    return solve_exact(make_named("petersen"))
