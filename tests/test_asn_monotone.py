"""Property test: with common random numbers, every simulated trial and the
estimate never rise with the margin, and none undercuts the no-error count."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamilton_rla import RiskParams
from hamilton_rla.risk import _shared_trials, _trial_draws, clean_draws, estimate_asn

# down to margins below float resolution, where 1 - m/(2*gamma) rounds to 1
# and the assertion needs a full count (a huge delegate count gives those)
MARGINS = st.floats(min_value=1e-20, max_value=3.0)
# margins a few percent apart, whose trials differ only through the errors
CLUSTERED = st.builds(
    lambda base, steps: [base * (1 + step) for step in steps],
    st.floats(min_value=0.01, max_value=0.5),
    st.lists(st.floats(min_value=0.0, max_value=0.1), min_size=2, max_size=6),
)
POPULATIONS = st.one_of(st.integers(1, 60), st.integers(10**4, 10**5))


def _non_increasing(values):
    return all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    margins=st.one_of(st.lists(MARGINS, min_size=1, max_size=6), CLUSTERED),
    error_rate=st.floats(min_value=0.0, max_value=0.05),
    alpha=st.floats(min_value=0.001, max_value=0.3),
    gamma=st.floats(min_value=1.01, max_value=3.0),
    population=POPULATIONS,
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**32),
)
@example(margins=[0.378], error_rate=0.0, alpha=0.05, gamma=1.1, population=10**5, trials=1, seed=1)
@example(margins=[1e-20, 0.1], error_rate=0.002, alpha=0.05, gamma=1.1, population=10**5, trials=2, seed=1)
@example(
    margins=[0.05, 0.051, 0.052, 0.053], error_rate=0.02, alpha=0.05, gamma=1.1, population=10**5, trials=3, seed=1
)
def test_simulated_sample_sizes_never_rise_with_the_margin(
    margins, error_rate, alpha, gamma, population, trials, seed
):
    params = RiskParams(alpha=alpha, gamma=gamma, error_rate=error_rate, trials=trials, seed=seed)
    margins = sorted(margins)
    floors = [clean_draws(m, alpha, gamma) - 1 for m in margins]
    for gaps in _shared_trials(seed, error_rate, trials):
        lengths = [_trial_draws(m, params, population, gaps) for m in margins]
        assert _non_increasing(lengths)
        assert all(n >= floor for n, floor in zip(lengths, floors))
    estimates = [estimate_asn(m, params, population) for m in margins]
    assert _non_increasing(estimates)
    assert all(n >= floor for n, floor in zip(estimates, floors))
