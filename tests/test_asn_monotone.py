"""Property tests of the expected-overstatement sample size: it equals a
brute-force scan of every draw count, never rises with the margin, and
never undercuts the no-error count."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamilton_rla import RiskParams
from hamilton_rla.risk import FULL_COUNT, RiskState, clean_draws, estimate_asn

# down to margins below float resolution, where 1 - m/(2*gamma) rounds to 1
# and the assertion needs a full count (a huge delegate count gives those)
MARGINS = st.floats(min_value=1e-20, max_value=3.0)
# margins a few percent apart, whose estimates differ only a little
CLUSTERED = st.builds(
    lambda base, steps: [base * (1 + step) for step in steps],
    st.floats(min_value=0.01, max_value=0.5),
    st.lists(st.floats(min_value=0.0, max_value=0.1), min_size=2, max_size=6),
)
# small enough that scanning every draw count of a full count stays fast
POPULATIONS = st.one_of(st.integers(1, 60), st.integers(1000, 5000))


def scanned_asn(margin, params, population):
    """The first draw count n whose p-value, with floor(error_rate*n + 1/2)
    one-vote overstatements and the rest clean, reaches alpha."""
    for n in range(1, population + 1):
        overstatements = math.floor(params.error_rate * n + 0.5)
        state = RiskState(margin, params.gamma, clean=n - overstatements, one_vote=overstatements)
        if state.log_product <= math.log(params.alpha):
            return n
    return FULL_COUNT


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    margins=st.one_of(st.lists(MARGINS, min_size=1, max_size=6), CLUSTERED),
    error_rate=st.floats(min_value=0.0, max_value=0.05),
    alpha=st.floats(min_value=0.001, max_value=0.3),
    gamma=st.floats(min_value=1.01, max_value=3.0),
    population=POPULATIONS,
)
@example(margins=[0.378], error_rate=0.0, alpha=0.05, gamma=1.1, population=5000)
@example(margins=[1e-20, 0.1], error_rate=0.002, alpha=0.05, gamma=1.1, population=5000)
@example(margins=[0.05, 0.051, 0.052, 0.053], error_rate=0.02, alpha=0.05, gamma=1.1, population=5000)
# alpha a power of the clean factor, where the divided estimate is one draw off and the adjustment
# loops settle it: one draw high (down to 102; down to 126, then a full count of 127) and one draw
# low (up to 81; up past a population of 167)
@example(margins=[0.09865092867816708], error_rate=0.002, alpha=0.0603398574328295, gamma=1.816664448317344,
         population=103)
@example(margins=[0.12259398876096453], error_rate=0.022153869446087607, alpha=0.0695051641405931,
         gamma=2.9273789603491003, population=127)
@example(margins=[0.0817246203216583], error_rate=0.002, alpha=0.0743089772578995, gamma=1.2780741148101475,
         population=81)
@example(margins=[0.09505673706455206], error_rate=0.01112237839841617, alpha=0.028700165518185952,
         gamma=1.937436065913432, population=167)
def test_sample_sizes_match_a_scan_and_never_rise_with_the_margin(margins, error_rate, alpha, gamma, population):
    params = RiskParams(alpha=alpha, gamma=gamma, error_rate=error_rate)
    margins = sorted(margins)
    estimates = [estimate_asn(m, params, population) for m in margins]
    assert estimates == [scanned_asn(m, params, population) for m in margins]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))
    assert all(n >= clean_draws(m, alpha, gamma) - 1 for m, n in zip(margins, estimates))


def test_default_parameters_table():
    params = RiskParams(alpha=0.05, gamma=1.1, error_rate=0.002)
    margins = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
    assert [estimate_asn(m, params, 20_000) for m in margins] == [FULL_COUNT, 2649, 924, 395, 131, 65, 32, 12, 5]
