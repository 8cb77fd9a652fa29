"""Session fixtures shared across test modules."""

import time

import pytest

from blockcone import example36 as ex


@pytest.fixture(scope="session")
def q3_count():
    """The q = 3 seed-0 bundle with B's one count taken, built once per
    session for criterion 10 and the q = 3 theorems, and the seconds that
    the build and the count took."""
    t0 = time.perf_counter()
    bundle = ex.example_build(3, 0)
    bundle.coverage
    return bundle, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bundle_q3(q3_count):
    return q3_count[0]
