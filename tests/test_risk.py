import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from conftest import count_pairs, km_step
from hamilton_rla import RiskParams, estimate_audit_asn, read_manifest, tabulate, write_manifest
from hamilton_rla.assertions import IrvWins, NonViable, PairwiseDiff, Viable, assorter_value
from hamilton_rla.risk import (
    CLEAN,
    FULL_COUNT,
    ONE_VOTE,
    TWO_VOTE,
    UNDERSTATEMENT,
    CannotAuditError,
    RiskState,
    _factors,
    discrepancy,
    estimate_asn,
    run_audit_round,
    sample_stream,
)
from hamilton_rla.viability import build_audit_spec

TAU = Fraction(3, 20)
BIG = 10**6


def closed_form(margin, alpha=0.05, gamma=1.1):
    if margin >= 2 * gamma:
        return 1
    return math.ceil(math.log(alpha) / math.log(1 - margin / (2 * gamma)))


def test_huge_margin_confirms_in_one_draw():
    # factor collapses to zero when margin >= 2*gamma
    state = RiskState(margin=4.073, gamma=1.1)
    assert _factors(4.073, 1.1) == (0.0, 0.0, 0.0)
    state = km_step(state, CLEAN)
    assert state.p_value == 0.0
    assert state.draws == 1
    assert estimate_asn(4.073, RiskParams(seed=3), BIG) == 1


def test_zero_error_closed_form_moderate_margin():
    params = RiskParams(error_rate=0.0, seed=5)
    assert estimate_asn(0.378, params, BIG) == closed_form(0.378) == 16
    # with the default error rate the median stays near the closed form
    assert abs(estimate_asn(0.378, RiskParams(seed=5), BIG) - 17) <= 5


def test_error_rate_below_float_resolution_acts_as_zero():
    # 1 - 1e-300 rounds to 1, so the geometric gap has no finite scale
    assert estimate_asn(0.378, RiskParams(error_rate=1e-300, seed=5), BIG) == closed_form(0.378)


def test_zero_error_closed_form_random_margins():
    rng = random.Random(99)
    params = RiskParams(error_rate=0.0, seed=8)
    for _ in range(50):
        m = rng.uniform(1e-4, 2.2 - 1e-9)
        assert estimate_asn(m, params, BIG) == closed_form(m), m
    for _ in range(10):
        m = rng.uniform(2.2, 10.0)
        assert estimate_asn(m, params, BIG) == 1


def test_overstatement_factors_exceed_clean():
    for m in (0.01, 0.12, 0.378, 1.1, 2.0):
        clean, one_vote, two_vote = _factors(m, 1.1)
        assert one_vote > clean
        assert two_vote > one_vote
        # an understatement is scored as a clean draw
        assert RiskState(m, 1.1, understatement=1).product == clean
    # one-vote factor is clean / (1 - 1/(2*gamma)), two-vote clean / (1 - 1/gamma)
    clean, one_vote, two_vote = _factors(0.12, 1.1)
    assert one_vote == pytest.approx(clean / (1 - 1 / 2.2))
    assert two_vote == pytest.approx(clean / (1 - 1 / 1.1))


def test_km_step_monotonicity_and_counts():
    state = RiskState(margin=0.3, gamma=1.1)
    p0 = state.p_value
    state = km_step(state, CLEAN)
    assert state.p_value < p0
    state = km_step(state, ONE_VOTE)
    assert state.one_vote == 1
    assert state.discrepancies == {CLEAN: 1, ONE_VOTE: 1, TWO_VOTE: 0, UNDERSTATEMENT: 0}
    assert state.draws == 2


def test_km_step_rejects_nonpositive_margin():
    with pytest.raises(CannotAuditError):
        _factors(0.0, 1.1)
    with pytest.raises(CannotAuditError):
        km_step(RiskState(margin=-0.1, gamma=1.1), CLEAN)


def test_p_value_order_independent():
    """p is a function of category counts, not of processing order."""
    draws = [CLEAN] * 10 + [ONE_VOTE] * 2 + [TWO_VOTE] + [UNDERSTATEMENT] * 3
    rng = random.Random(1)
    results = set()
    for _ in range(10):
        rng.shuffle(draws)
        state = RiskState(margin=0.25, gamma=1.1)
        for cat in draws:
            state = km_step(state, cat)
        results.add(state.p_value)
    assert len(results) == 1


def test_discrepancy_categories():
    a = IrvWins("W", "L", frozenset())
    assert discrepancy(a, ("W",), ("W",)) == CLEAN
    assert discrepancy(a, ("W",), ("L",)) == TWO_VOTE  # full flip: omega = u
    assert discrepancy(a, ("W",), ()) == ONE_VOTE
    assert discrepancy(a, ("L",), ("W",)) == UNDERSTATEMENT
    v = Viable("C", frozenset(), TAU)
    # CVR says C, paper blank: omega = 1/(2t) - 1/2 > u/2
    assert discrepancy(v, ("C",), ()) == TWO_VOTE
    assert discrepancy(v, ("X",), ()) == UNDERSTATEMENT  # 0 - 1/2 < 0
    n = NonViable("C", frozenset(), TAU)
    # CVR not-C vs paper C: omega = u - 0 -> two-vote
    assert discrepancy(n, ("X",), ("C",)) == TWO_VOTE


def _reference_discrepancy(assertion, cvr, paper):
    """The classification in exact assorter values, as SHANGRLA states it."""
    omega = assorter_value(assertion, cvr) - assorter_value(assertion, paper)
    if omega == 0:
        return CLEAN
    if omega < 0:
        return UNDERSTATEMENT
    return ONE_VOTE if omega <= assertion.upper_bound / 2 else TWO_VOTE


def test_discrepancy_matches_exact_assorter_values_random():
    """The integer-points classification equals the Fraction one on every
    pair of blank, exhausted, single-choice and random rankings, and each
    form meets the one-vote bound exactly somewhere (t = 1/2 puts it at a
    blank for the threshold forms; d = 0 at an unqualified ballot)."""
    rng = random.Random(53)
    labels = ["A", "B", "C", "D", "E"]
    thresholds = [Fraction(1, 2), TAU, Fraction(1, 7), Fraction(999, 1000), Fraction(1)]
    offsets = [Fraction(0), Fraction(-99, 100), Fraction(99, 100), Fraction(-4, 5), Fraction(2, 5)]
    boundary = Counter()
    for _ in range(100):
        first, second, *others = rng.sample(labels, len(labels))
        out = frozenset(rng.sample(others, rng.randint(0, len(others))))
        t, d = rng.choice(thresholds), rng.choice(offsets)
        viable = frozenset(labels) - out
        forms = [Viable(first, out, t), IrvWins(first, second, out), PairwiseDiff(first, second, d, viable)]
        if t < 1:
            forms.append(NonViable(first, out, t))
        rankings = [(), *((c,) for c in labels), tuple(out), tuple(rng.sample(labels, rng.randint(1, 5)))]
        for a in forms:
            for cvr in rankings:
                for paper in rankings:
                    assert discrepancy(a, cvr, paper) == _reference_discrepancy(a, cvr, paper), (a, cvr, paper)
                    omega = assorter_value(a, cvr) - assorter_value(a, paper)
                    boundary[type(a).__name__] += omega == a.upper_bound / 2
    assert set(boundary) == {"Viable", "NonViable", "IrvWins", "PairwiseDiff"}
    assert all(boundary.values()), boundary


def test_estimate_asn_nonpositive_margin_full_count():
    assert math.isinf(estimate_asn(0.0, RiskParams(seed=1), BIG))
    assert math.isinf(estimate_asn(-1, RiskParams(seed=1), BIG))


def test_estimate_asn_population_cap_sentinel():
    # margin too small to confirm within the universe
    params = RiskParams(error_rate=0.0, seed=2)
    assert math.isinf(estimate_asn(0.001, params, 100))
    assert estimate_asn(0.001, params, BIG) == closed_form(0.001)


def test_estimate_asn_reproducible_and_seed_keyed():
    params = RiskParams(seed=77, error_rate=0.02)
    a = estimate_asn(0.1, params, BIG)
    assert a == estimate_asn(0.1, params, BIG)
    values = {estimate_asn(0.1, RiskParams(seed=s, error_rate=0.02), BIG) for s in range(5)}
    assert len(values) > 1
    assert all(abs(v - closed_form(0.1)) < 0.5 * closed_form(0.1) for v in values)


def test_estimate_asn_monotone_in_margin_and_error():
    params = RiskParams(error_rate=0.0, seed=4)
    values = [estimate_asn(m, params, BIG) for m in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]
    assert values == sorted(values, reverse=True)
    # statistically nondecreasing in the error rate
    lo = estimate_asn(0.05, RiskParams(error_rate=0.0, seed=6, trials=100), BIG)
    hi = estimate_asn(0.05, RiskParams(error_rate=0.02, seed=6, trials=100), BIG)
    assert hi >= lo


def test_estimate_audit_asn_is_max(plurality_profile):
    outcome = tabulate(plurality_profile)
    spec, _ = build_audit_spec(plurality_profile, outcome, 1, RiskParams(seed=42))
    per = [estimate_asn(e.margin, spec.params, spec.total_ballots) for e in spec.entries]
    assert estimate_audit_asn(spec) == max(per)


def test_estimate_audit_asn_zero_margin_sentinel():
    from hamilton_rla import AuditSpec, SpecEntry

    entry = SpecEntry(Viable("Ann", frozenset(), TAU), Fraction(0), math.inf)
    spec = AuditSpec((entry,), 1, "requires-full-count", 1000, RiskParams(seed=1))
    assert math.isinf(estimate_audit_asn(spec))


def test_estimate_audit_asn_full_count_status():
    """A spec whose search found no assertion for some branch needs a full
    count, however small the estimates of the assertions it does list."""
    from hamilton_rla import AuditSpec, SpecEntry

    entry = SpecEntry(Viable("Ann", frozenset(), TAU), Fraction(1, 2), 28)
    spec = AuditSpec((entry,), 1, "requires-full-count", 1000, RiskParams(seed=1))
    assert math.isinf(estimate_audit_asn(spec))


def test_single_assertion_spec_asn_is_that_assertion():
    """The overall estimate is the spec's stored per-assertion estimate, not a
    fresh simulation (which gives 12 for this margin)."""
    from hamilton_rla import AuditSpec, SpecEntry

    a = Viable("Ann", frozenset(), TAU)
    entry = SpecEntry(a, Fraction(1, 2), 28)
    spec = AuditSpec((entry,), 1, "complete", 1000, RiskParams(seed=6))
    assert estimate_audit_asn(spec) == 28


def test_clean_replay_confirms_at_estimated_size(plurality_profile):
    """Drawing the estimated sample with error-free paper ballots confirms."""
    outcome = tabulate(plurality_profile)
    spec, _ = build_audit_spec(plurality_profile, outcome, 1, RiskParams(seed=42))
    size = estimate_audit_asn(spec)
    assert abs(size - 46) <= 0.3 * 46
    # synthesize the full CVR universe for the contest
    cvrs = {}
    i = 0
    for ranking, count in plurality_profile.rankings.items():
        for _ in range(count):
            cvrs[f"b{i}"] = ranking
            i += 1
    manifest = list(islice(sample_stream(42, list(cvrs)), int(size)))
    pairs = [(e.assertion, float(e.margin)) for e in spec.entries]
    states, status, _ = run_audit_round(pairs, count_pairs(cvrs, [(manifest, cvrs)]), alpha=0.05, gamma=1.1)
    assert status == "confirmed"
    assert all(s.draws == int(size) for s in states.values())


def test_sample_stream_deterministic_and_continuable():
    universe = [f"b{i}" for i in range(50)]
    first = list(islice(sample_stream(123, universe), 10))
    assert first == list(islice(sample_stream(123, universe), 10))
    assert list(islice(sample_stream(123, universe), 0)) == []
    combined = list(islice(sample_stream(123, universe), 25))
    assert combined[:10] == first
    assert list(islice(sample_stream(123, universe), 10, 25)) == combined[10:]
    for cut in range(26):  # one stream read in two slices, cut anywhere, is one sequence
        stream = sample_stream(123, universe)
        assert list(islice(stream, cut)) + list(islice(stream, 25 - cut)) == combined


def test_sample_stream_uniform_frequencies():
    universe = [str(i) for i in range(10)]
    counts = Counter(islice(sample_stream(99, universe), 1_000_000))
    expect = 100_000
    sigma = math.sqrt(1_000_000 * 0.1 * 0.9)
    for label in universe:
        assert abs(counts[label] - expect) < 5 * sigma


def test_manifest_round_trip(tmp_path):
    draws = ["b3", "b1", "b3"]
    path = tmp_path / "manifest.csv"
    write_manifest(draws, path)
    assert read_manifest(path) == draws


def _toy_audit():
    a = IrvWins("W", "L", frozenset())
    cvrs = {f"b{i}": ("W",) if i % 3 else ("L",) for i in range(60)}
    return a, cvrs


def test_run_audit_round_clean_confirms():
    a, cvrs = _toy_audit()
    manifest = [f"b{i}" for i in range(1, 50) if i % 3]
    states, status, extra = run_audit_round([(a, 0.5)], count_pairs(cvrs, [(manifest, cvrs)]), alpha=0.05, gamma=1.1)
    assert status == "confirmed"
    assert extra == 0
    (state,) = states.values()
    assert state.draws == len(manifest)
    assert state.p_value <= 0.05


def test_run_audit_round_overstatements_escalate():
    a, cvrs = _toy_audit()
    manifest = ["b1", "b2", "b4"]
    paper = {b: ("L",) for b in cvrs}  # every drawn CVR overstates maximally
    states, status, extra = run_audit_round([(a, 0.5)], count_pairs(cvrs, [(manifest, paper)]), alpha=0.05, gamma=1.1)
    assert status == "escalate"
    assert extra > 0
    (state,) = states.values()
    assert state.two_vote == 3
    assert state.p_value == 1.0  # capped


def test_suggestion_counts_the_overstatement_above_one():
    """47 clean and 11 one-vote draws at margin 0.2 leave a raw product of
    about 3.125, which the p-value caps at 1.  Confirming from there takes
    ceil(ln(0.05 / 3.125) / ln(1 - 0.2/2.2)) = 44 clean draws, not the 32
    that start from the capped value."""
    a, cvrs = _toy_audit()
    first = (["b1"] * 47 + ["b2"] * 11, {"b1": ("W",), "b2": ()})
    states, status, suggestion = run_audit_round([(a, 0.2)], count_pairs(cvrs, [first]), alpha=0.05, gamma=1.1)
    (state,) = states.values()
    assert (status, state.clean, state.one_vote, state.p_value) == ("escalate", 47, 11, 1.0)
    assert suggestion == 44


@pytest.mark.parametrize("margin", [0.05, 0.2, 0.6, 1.5])
@pytest.mark.parametrize("one_vote", [0, 3, 11, 25])
def test_suggested_clean_draws_are_the_fewest_that_confirm(margin, one_vote):
    a, cvrs = _toy_audit()
    first = (["b1"] * 20 + ["b2"] * one_vote, {"b1": ("W",), "b2": ()})
    _, status, suggestion = run_audit_round([(a, margin)], count_pairs(cvrs, [first]), alpha=0.05, gamma=1.1)
    if status == "confirmed":
        return

    def after(extra):
        pairs = count_pairs(cvrs, [first, (["b1"] * extra, cvrs)])
        return run_audit_round([(a, margin)], pairs, alpha=0.05, gamma=1.1)[1]

    assert after(suggestion) == "confirmed"
    assert after(suggestion - 1) == "escalate"


def test_run_audit_round_margin_below_float_resolution_requires_full_count():
    """No number of draws moves the p-value of a margin the clean factor
    rounds away, so the round reports a full count, not an escalation."""
    a, cvrs = _toy_audit()
    _, status, suggestion = run_audit_round([(a, 1e-17)], count_pairs(cvrs, [(["b1"], cvrs)]), 0.05, 1.1)
    assert (status, suggestion) == ("requires-full-count", FULL_COUNT)


def _random_assertion(rng, labels):
    first, second, *others = rng.sample(labels, len(labels))
    out = frozenset(rng.sample(others, rng.randint(0, len(others))))
    kind = rng.randrange(4)
    if kind == 0:
        return Viable(first, out, Fraction(rng.randint(1, 9), 20))
    if kind == 1:
        return NonViable(first, out, Fraction(rng.randint(1, 9), 20))
    if kind == 2:
        return IrvWins(first, second, out)
    return PairwiseDiff(first, second, Fraction(rng.randint(-9, 9), 10), frozenset(labels) - out)


def _per_ballot_round(assertions, cvrs, manifest, papers, prior, gamma):
    """Reference: every drawn ballot scored against every assertion in turn."""
    states = {a.key: prior[a.key] if prior else RiskState(margin=m, gamma=gamma) for a, m in assertions}
    for ballot_id in manifest:
        for a, _ in assertions:
            states[a.key] = km_step(states[a.key], discrepancy(a, cvrs[ballot_id], papers[ballot_id]))
    return states


def test_grouped_round_matches_per_ballot_scoring():
    labels = ["A", "B", "C", "D", "E"]
    seen_types, seen_categories, repeats, rereads = set(), Counter(), 0, 0
    for seed in range(20):
        rng = random.Random(seed)
        pool = [()] + [tuple(rng.sample(labels, rng.randint(1, 4))) for _ in range(6)]
        cvrs = {f"b{i}": rng.choice(pool) for i in range(30)}
        by_key = {}
        for _ in range(12):
            a = _random_assertion(rng, labels)
            by_key[a.key] = (a, rng.uniform(0.01, 0.6))
        assertions = list(by_key.values())
        rounds, expected = [], None
        for _ in range(2):  # the reference's second round starts from its first round's states
            manifest = rng.choices(list(cvrs), k=rng.randint(1, 60))
            repeats += len(manifest) - len(set(manifest))
            # the board reads most papers as recorded, some as blank, some as another
            # ranking, and reads a ballot drawn again in a later round afresh
            papers = {
                b: ranking if rng.random() < 0.6 else () if rng.random() < 0.5 else rng.choice(pool)
                for b, ranking in cvrs.items()
            }
            rounds.append((manifest, papers))
            expected = _per_ballot_round(assertions, cvrs, manifest, papers, expected, 1.1)
        states, _, _ = run_audit_round(assertions, count_pairs(cvrs, rounds), 0.05, 1.1)
        assert states == expected
        (first, first_papers), (second, second_papers) = rounds
        rereads += sum(first_papers[b] != second_papers[b] for b in set(first) & set(second))
        seen_types.update(type(a) for a, _ in assertions)
        for state in states.values():
            seen_categories.update(state.discrepancies)
    assert seen_types == {Viable, NonViable, IrvWins, PairwiseDiff}
    assert repeats > 0 and rereads > 0
    assert all(seen_categories[c] > 0 for c in (CLEAN, ONE_VOTE, TWO_VOTE, UNDERSTATEMENT))


@pytest.mark.parametrize("margin", [0.0, -0.1])
def test_run_audit_round_nonpositive_margin_cannot_be_audited(margin):
    a, cvrs = _toy_audit()
    b = IrvWins("L", "W", frozenset())
    with pytest.raises(CannotAuditError):
        run_audit_round([(a, 0.5), (b, margin)], count_pairs(cvrs, [(["b1", "b1"], cvrs)]), alpha=0.05, gamma=1.1)


def test_risk_params_validation():
    with pytest.raises(ValueError):
        RiskParams(alpha=0)
    with pytest.raises(ValueError):
        RiskParams(gamma=1.0)
    with pytest.raises(ValueError):
        RiskParams(error_rate=1.0)
    with pytest.raises(ValueError):
        RiskParams(trials=0)
