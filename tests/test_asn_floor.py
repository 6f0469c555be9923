"""Property test: the no-error floor by which the outcome search orders
its options never exceeds a simulated sample size."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamilton_rla import RiskParams
from hamilton_rla.risk import _trial_draws, asn_floor, estimate_asn

# down to margins below float resolution, where 1 - m/(2*gamma) rounds to 1
# and the assertion needs a full count (a huge delegate count gives those)
MARGINS = st.floats(min_value=1e-20, max_value=3.0)
POPULATIONS = st.one_of(st.integers(1, 60), st.integers(10**4, 10**5))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    margin=MARGINS,
    error_rate=st.floats(min_value=0.0, max_value=0.05),
    alpha=st.floats(min_value=0.001, max_value=0.3),
    gamma=st.floats(min_value=1.01, max_value=3.0),
    population=POPULATIONS,
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    stream=st.text(max_size=8),
)
@example(margin=0.378, error_rate=0.0, alpha=0.05, gamma=1.1, population=10**5, trials=1, seed=1, stream="")
@example(margin=1e-20, error_rate=0.002, alpha=0.05, gamma=1.1, population=10**5, trials=2, seed=1, stream="")
def test_simulated_sample_sizes_never_undercut_the_floor(
    margin, error_rate, alpha, gamma, population, trials, seed, stream
):
    params = RiskParams(alpha=alpha, gamma=gamma, error_rate=error_rate, trials=trials, seed=seed)
    floor = asn_floor(margin, params)
    for trial in range(trials):
        rng = random.Random(f"{seed}|{stream}|{trial}")
        assert _trial_draws(margin, params, population, rng) >= floor
    assert estimate_asn(margin, params, population, stream) >= floor
