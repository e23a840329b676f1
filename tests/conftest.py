import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=60)
settings.load_profile("ci")

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def enumerate_signed_sums(steps):
    """Independent oracle: the sums of all 2**n sign assignments, exact integer
    counts, with equal sums merged after every step so that 40 steps stay small.

    Returns (values, counts) with probability counts / 2**n.
    """
    values, counts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for a in steps:
        values, where = np.unique(np.concatenate([values - a, values + a]),
                                  return_inverse=True)
        merged = np.zeros(values.size, dtype=np.int64)
        np.add.at(merged, where, np.concatenate([counts, counts]))
        counts = merged
    return values, counts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xA5A5)
