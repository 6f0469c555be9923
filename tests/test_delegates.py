import random
from fractions import Fraction

import pytest

from conftest import enumerate_allocations, random_plurality_profile
from hamilton_rla import PairwiseDiff, UnsupportedOutcomeError, build_profile, tabulate
from hamilton_rla.assertions import margin
from hamilton_rla.delegates import find_violated_assertion, gen_delegate_assertions
from hamilton_rla.viability import AuditContext


def test_exact_level_assertions_for_example(plurality_profile):
    outcome = tabulate(plurality_profile)
    dset = gen_delegate_assertions(outcome, 3)
    by_pair = {(a.winner, a.loser): a for a in dset.assertions}
    assert by_pair[("Ann", "Bob")].offset == Fraction(2, 5)
    assert by_pair[("Bob", "Ann")].offset == Fraction(-4, 5)
    assert len(dset.assertions) == 2
    assert not dset.skipped
    margins = {
        pair: float(margin(a, plurality_profile).margin) for pair, a in by_pair.items()
    }
    assert abs(margins[("Bob", "Ann")] - 1.1) < 0.01
    assert abs(margins[("Ann", "Bob")] - 0.12) < 0.01


def test_level2_uses_extra_slack(plurality_profile):
    outcome = tabulate(plurality_profile)
    dset = gen_delegate_assertions(outcome, 2)
    by_pair = {(a.winner, a.loser): a for a in dset.assertions}
    assert by_pair[("Ann", "Bob")].offset == Fraction(1, 5)  # (4-1-2)/5
    # (1-4-2)/5 = -1: vacuous, skipped
    assert ("Bob", "Ann") not in by_pair
    assert len(dset.skipped) == 1
    assert dset.skipped[0].offset == Fraction(-1)


def test_single_viable_candidate_empty_set():
    profile = build_profile(["A", "B"], [(["A"], 90), (["B"], 10)], Fraction(1, 2), 5, "plurality")
    outcome = tabulate(profile)
    dset = gen_delegate_assertions(outcome, 3)
    assert dset.assertions == ()


def test_vacuous_extreme_pair_skipped():
    # a_m = 0 vs a_n = D gives offset -(D+1)/D <= -1
    profile = build_profile(
        ["A", "B"], [(["A"], 97), (["B"], 3)], Fraction(1, 100), 6, "plurality"
    )
    outcome = tabulate(profile)
    assert outcome.allocation == {"A": 6, "B": 0}
    dset = gen_delegate_assertions(outcome, 3)
    pairs = {(a.winner, a.loser) for a in dset.assertions}
    assert ("A", "B") in pairs  # offset 5/6
    assert ("B", "A") not in pairs  # offset -7/6 vacuous
    assert dset.skipped[0].offset <= -1


def test_all_offsets_in_open_interval():
    rng = random.Random(3)
    for _ in range(100):
        profile = random_plurality_profile(rng)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        for level in (2, 3):
            for a in gen_delegate_assertions(outcome, level).assertions:
                assert Fraction(-1) < a.offset < Fraction(1)


def test_closed_form_margin_matches_assorter_scan(plurality_profile):
    outcome = tabulate(plurality_profile)
    ctx = AuditContext(plurality_profile)
    for a in gen_delegate_assertions(outcome, 3).assertions:
        assert ctx.exact_margin(a) == margin(a, plurality_profile).margin


def test_misallocation_3_2_is_caught(plurality_profile):
    outcome = tabulate(plurality_profile)
    violated = find_violated_assertion(plurality_profile, {"Ann": 3, "Bob": 2}, outcome)
    assert violated is not None
    # proportions 0.786/0.214: the (Bob, Ann) comparison with d=-2/5 fails
    assert (violated.winner, violated.loser) == ("Bob", "Ann")
    assert violated.offset == Fraction(-2, 5)
    assert margin(violated, plurality_profile).margin <= 0


def test_true_allocation_returns_none(plurality_profile):
    outcome = tabulate(plurality_profile)
    assert find_violated_assertion(plurality_profile, {"Ann": 4, "Bob": 1}, outcome) is None


def test_alt_allocation_must_cover_viable_set(plurality_profile):
    outcome = tabulate(plurality_profile)
    with pytest.raises(ValueError):
        find_violated_assertion(plurality_profile, {"Ann": 5}, outcome)
    with pytest.raises(ValueError):
        find_violated_assertion(plurality_profile, {"Ann": 3, "Bob": 1}, outcome)


def test_enumerate_allocations_counts():
    allocations = list(enumerate_allocations(["A", "B", "C"], 4))
    assert len(allocations) == 15  # C(4+2, 2)
    assert all(sum(a.values()) == 4 for a in allocations)
    assert len({tuple(sorted(a.items())) for a in allocations}) == 15


def test_every_wrong_allocation_violated_small_fuzz():
    """Every incorrect allocation must fail at least one exact-level assertion."""
    rng = random.Random(17)
    elections = 0
    while elections < 150:
        profile = random_plurality_profile(rng, max_candidates=5, max_delegates=10)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        if len(outcome.viable) < 2:
            continue
        elections += 1
        viable = sorted(outcome.viable)
        for alt in enumerate_allocations(viable, outcome.delegates):
            witness = find_violated_assertion(profile, alt, outcome)
            if alt == dict(outcome.allocation):
                assert witness is None
            else:
                assert witness is not None, (profile.rankings, alt, outcome.allocation)


def test_two_delegate_overaward_violates_level2_fuzz():
    """If a candidate is over-awarded by two, some slack-2 assertion fails."""
    rng = random.Random(19)
    elections = 0
    while elections < 150:
        profile = random_plurality_profile(rng, max_candidates=5, max_delegates=10)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        viable = sorted(outcome.viable)
        if len(viable) < 2 or outcome.delegates < 2:
            continue
        true = dict(outcome.allocation)
        over = rng.choice(viable)
        pool = [c for c in viable if c != over and true[c] >= 0]
        # push two extra delegates onto `over`, taking from others where possible
        takeable = [c for c in pool for _ in range(true[c])]
        if len(takeable) < 2:
            continue
        elections += 1
        reported = dict(true)
        reported[over] += 2
        for victim in rng.sample(takeable, 2):
            reported[victim] -= 1
        ctx = AuditContext(profile)
        slack2_violated = False
        for m in viable:
            for n in viable:
                if m == n:
                    continue
                d = Fraction(reported[m] - reported[n] - 2, outcome.delegates)
                if d <= -1:
                    continue
                value = ctx.exact_margin(PairwiseDiff(m, n, d, outcome.viable))
                if value <= 0:
                    slack2_violated = True
        assert slack2_violated, (profile.rankings, reported, true)
