import os

# LAPACK's eigh rounds differently with more than one OpenBLAS thread; the
# reference outputs under out/ are the single-threaded result.  The variable
# only takes effect if it is set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

from expanderlab import build_lps  # noqa: E402
from helpers import sieve_primes  # noqa: E402

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def primes_1e6():
    """Sieve oracle: every prime below 10**6."""
    return sieve_primes(1_000_000)


@pytest.fixture(scope="session")
def x513():
    return build_lps(5, 13)


@pytest.fixture(scope="session")
def x1317():
    return build_lps(13, 17)
