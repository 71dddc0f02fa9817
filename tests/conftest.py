import os

# The references under out/ were written with one OpenBLAS thread, and the
# suite runs with one too.  At every size a certificate comes from a
# Lanczos recurrence summed with np.sum, residuals summed the same way and,
# up to 4096 vertices, a Cholesky proof; none of these follows the thread
# count.  Tests in test_planner.py check that two threads give the same
# bytes for construct(7, 1000), its k2product route, construct(3|4|5, 1),
# the 6-cube, K64, construct(29, 1000) and construct(8, 10000), and
# test_spectral.py for certify(build_lps(5, 37)) and
# certify(build_lps(5, 61)); no other certificate is checked.  The variable
# only takes effect if it is set before numpy or scipy is first imported;
# scipy brings its own OpenBLAS, which now loads at the first sparse call.
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
