import random
from fractions import Fraction

import pytest

from conftest import random_irv_profile
from hamilton_rla import build_profile, tabulate
from hamilton_rla.assertions import (
    IrvWins,
    NonViable,
    PairwiseDiff,
    Viable,
    assertion_key,
    assorter_value,
    margin,
)
from hamilton_rla.tabulation import count_piles
from hamilton_rla.viability import AuditContext

TAU = Fraction(3, 20)


def test_viable_assorter_values():
    a = Viable("Ann", frozenset(), TAU)
    assert a.upper_bound == Fraction(10, 3)  # 1/(2t)
    assert assorter_value(a, ("Ann", "Dee", "Cal", "Bob")) == Fraction(10, 3)
    assert assorter_value(a, ("Bob",)) == 0
    assert assorter_value(a, ()) == Fraction(1, 2)
    # exhausted after eliminations is a valid vote not for the candidate
    b = Viable("Ann", frozenset({"Cal"}), TAU)
    assert assorter_value(b, ("Cal",)) == 0


def test_nonviable_assorter_values():
    a = NonViable("Cal", frozenset(), TAU)
    assert a.upper_bound == Fraction(10, 17)  # 1/(2(1-t))
    assert assorter_value(a, ("Cal",)) == 0
    assert assorter_value(a, ("Ann",)) == Fraction(10, 17)
    assert assorter_value(a, ()) == Fraction(1, 2)
    # exhausted-after-E counts with the other-candidates class
    b = NonViable("Cal", frozenset({"Dee"}), TAU)
    assert assorter_value(b, ("Dee",)) == Fraction(10, 17)


def test_irv_wins_assorter_values():
    a = IrvWins("Bob", "Cal", frozenset({"Dee"}))
    assert a.upper_bound == 1
    assert assorter_value(a, ("Bob",)) == 1
    assert assorter_value(a, ("Dee", "Cal")) == 0  # transfers to Cal
    assert assorter_value(a, ("Ann",)) == Fraction(1, 2)
    assert assorter_value(a, ()) == Fraction(1, 2)
    assert assorter_value(a, ("Dee",)) == Fraction(1, 2)  # exhausted


def test_pairwise_diff_assorter_values():
    viable = frozenset({"Ann", "Bob"})
    a = PairwiseDiff("Bob", "Ann", Fraction(-4, 5), viable)
    assert a.upper_bound == 5  # 1/(1+d)
    assert assorter_value(a, ("Bob", "Cal")) == 5
    assert assorter_value(a, ("Cal", "Bob")) == 5  # qualifies for Bob
    assert assorter_value(a, ("Ann",)) == 0
    assert assorter_value(a, ("Cal",)) == Fraction(1, 2)  # unqualified
    assert assorter_value(a, ()) == Fraction(1, 2)
    three = PairwiseDiff("A", "B", Fraction(0), frozenset({"A", "B", "C"}))
    assert assorter_value(three, ("C",)) == Fraction(1, 2)  # other viable: u/2


@pytest.mark.parametrize("t", [Fraction(1, 7), TAU, Fraction(1, 4), Fraction(1, 2), Fraction(999, 1000), Fraction(1)])
@pytest.mark.parametrize("d", [Fraction(-99, 100), Fraction(-4, 5), Fraction(0), Fraction(2, 5), Fraction(99, 100)])
def test_upper_bounds_have_their_closed_forms(t, d):
    """Each form's bound, derived from its points, is the closed form, and
    every scale is even, so a blank scores exactly 1/2."""
    forms = {
        Viable("A", frozenset({"C"}), t): 1 / (2 * t),
        IrvWins("A", "B", frozenset({"C"})): 1,
        PairwiseDiff("A", "B", d, frozenset({"A", "B"})): 1 / (1 + d),
    }
    if t < 1:
        forms[NonViable("A", frozenset({"C"}), t)] = 1 / (2 * (1 - t))
    for a, bound in forms.items():
        assert a.upper_bound == bound, a
        assert a.scale % 2 == 0 and assorter_value(a, ()) == Fraction(1, 2), a


def test_assertion_invariants_validated():
    with pytest.raises(ValueError):
        Viable("A", frozenset({"A"}), TAU)
    with pytest.raises(ValueError):
        NonViable("A", frozenset(), Fraction(1))
    with pytest.raises(ValueError):
        IrvWins("A", "A", frozenset())
    with pytest.raises(ValueError):
        PairwiseDiff("A", "B", Fraction(-6, 5), frozenset({"A", "B"}))
    with pytest.raises(ValueError):
        PairwiseDiff("A", "B", Fraction(0), frozenset({"A"}))


def test_viability_margins_match_reported_values(plurality_profile):
    margins = {
        ("viable", "Ann"): 4.073,
        ("viable", "Bob"): 0.378,
        ("nonviable", "Cal"): 0.152,
        ("nonviable", "Dee"): 0.163,
    }
    for (kind, cand), expected in margins.items():
        if kind == "viable":
            a = Viable(cand, frozenset(), TAU)
        else:
            a = NonViable(cand, frozenset(), TAU)
        got = float(margin(a, plurality_profile).margin)
        assert abs(got - expected) < 0.001, (cand, got)


def test_delegate_margins_match_reported_values(plurality_profile, irv_profile):
    viable = frozenset({"Ann", "Bob"})
    fast = PairwiseDiff("Bob", "Ann", Fraction(-4, 5), viable)
    slow = PairwiseDiff("Ann", "Bob", Fraction(2, 5), viable)
    for profile in (plurality_profile, irv_profile):
        assert abs(float(margin(fast, profile).margin) - 1.1) < 0.01
        assert abs(float(margin(slow, profile).margin) - 0.12) < 0.01


def test_unanimous_viable_margin_is_inverse_threshold():
    profile = build_profile(["A", "B"], [(["A"], 100)], TAU, 2, "plurality")
    summary = margin(Viable("A", frozenset(), TAU), profile)
    assert summary.margin == 1 / TAU - 1


def test_holds_on_example(plurality_profile):
    assert margin(NonViable("Cal", frozenset(), TAU), plurality_profile).margin > 0
    assert not margin(Viable("Cal", frozenset(), TAU), plurality_profile).margin > 0


# thresholds and offsets at the edges of their ranges, besides the profile's
# own threshold and offsets in tenths
EDGE_THRESHOLDS = [Fraction(1), Fraction(1, 7), Fraction(999, 1000)]
EDGE_OFFSETS = [Fraction(-99, 100), Fraction(99, 100)]


def _random_assertions(profile, rng):
    labels = list(profile.labels)
    out = []
    for _ in range(6):
        kind = rng.randrange(4)
        c = rng.choice(labels)
        others = [x for x in labels if x != c]
        esize = rng.randint(0, len(others))
        eliminated = frozenset(rng.sample(others, esize))
        t = rng.choice([profile.threshold, *EDGE_THRESHOLDS])
        if kind == 0:
            out.append(Viable(c, eliminated, t))
        elif kind == 1 and t < 1:
            out.append(NonViable(c, eliminated, t))
        elif kind == 2 and others:
            loser = rng.choice(others)
            eliminated = eliminated - {loser}
            out.append(IrvWins(c, loser, eliminated))
        elif kind == 3 and others:
            loser = rng.choice(others)
            viable = frozenset({c, loser}) | frozenset(
                rng.sample(others, rng.randint(0, len(others) - 1))
            )
            d = rng.choice([Fraction(rng.randint(-9, 9), 10), *EDGE_OFFSETS])
            out.append(PairwiseDiff(c, loser, d, viable))
    return out


def test_assorter_values_in_range_random():
    rng = random.Random(23)
    for _ in range(40):
        profile = random_irv_profile(rng)
        for a in _random_assertions(profile, rng):
            u = a.upper_bound
            for ranking in profile.rankings:
                v = assorter_value(a, ranking)
                assert 0 <= v <= u
            s = margin(a, profile)
            assert 0 <= s.mean <= u
            assert -1 <= s.margin <= 2 * u - 1


def test_margin_sign_equals_tally_inequalities_random():
    """margin > 0 must coincide exactly with the tabulation-level inequality."""
    rng = random.Random(29)
    for _ in range(40):
        profile = random_irv_profile(rng)
        valid = profile.valid_ballots
        if valid == 0:
            continue
        for a in _random_assertions(profile, rng):
            s = margin(a, profile)
            if isinstance(a, (Viable, NonViable)):
                piles, _ = count_piles(profile, a.eliminated)
                tally = piles[a.candidate]
                t = a.threshold
                if isinstance(a, Viable):
                    assert (s.margin > 0) == (Fraction(tally, valid) > t)
                else:
                    assert (s.margin > 0) == (Fraction(tally, valid) < t)
            elif isinstance(a, IrvWins):
                piles, _ = count_piles(profile, a.eliminated)
                assert (s.margin > 0) == (piles[a.winner] > piles[a.loser])
            else:
                tallies = {c: 0 for c in a.viable}
                for ranking, n in profile.rankings.items():
                    for choice in ranking:
                        if choice in a.viable:
                            tallies[choice] += n
                            break
                q = sum(tallies.values())
                if q:
                    lhs = Fraction(tallies[a.winner], q)
                    rhs = Fraction(tallies[a.loser], q) + a.offset
                    assert (s.margin > 0) == (lhs > rhs)


def test_fast_holds_matches_exact_margin_random():
    rng = random.Random(31)
    for _ in range(30):
        profile = random_irv_profile(rng)
        if profile.valid_ballots == 0:
            continue
        ctx = AuditContext(profile)
        for a in _random_assertions(profile, rng):
            assert ctx.holds(a) == (margin(a, profile).margin > 0)
            assert ctx.exact_margin(a) == margin(a, profile).margin


def test_zero_offset_reduces_to_pairwise_majority():
    """With d = 0 the difference assorter equals the majority assorter pointwise."""
    rng = random.Random(37)
    for _ in range(30):
        profile = random_irv_profile(rng)
        labels = list(profile.labels)
        winner, loser = rng.sample(labels, 2)
        viable = frozenset(labels)  # same validity class as IrvWins with no one out
        diff = PairwiseDiff(winner, loser, Fraction(0), viable)
        maj = IrvWins(winner, loser, frozenset())
        for ranking in profile.rankings:
            assert assorter_value(diff, ranking) == assorter_value(maj, ranking)


def test_pairwise_diff_margin_positive_iff_tabulated_outcome(plurality_profile):
    outcome = tabulate(plurality_profile)
    p = {c: Fraction(outcome.final_tally[c], outcome.qualified_total) for c in outcome.viable}
    for m_c in outcome.viable:
        for n_c in outcome.viable:
            if m_c == n_c:
                continue
            for d_num in range(-9, 10):
                d = Fraction(d_num, 10)
                a = PairwiseDiff(m_c, n_c, d, outcome.viable)
                assert (margin(a, plurality_profile).margin > 0) == (p[m_c] > p[n_c] + d)


def test_assertion_keys_unique_and_stable():
    a1 = Viable("A", frozenset({"B", "C"}), TAU)
    a2 = Viable("A", frozenset({"C", "B"}), TAU)
    assert assertion_key(a1) == assertion_key(a2)
    b = NonViable("A", frozenset({"B", "C"}), TAU)
    assert assertion_key(a1) != assertion_key(b)
