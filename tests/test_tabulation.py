import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_irv_profile, random_plurality_profile
from hamilton_rla import ElectionProfile, UnsupportedOutcomeError, build_profile, tabulate
from hamilton_rla.tabulation import count_piles, irv_viability, plurality_viability, top_remaining


def test_top_remaining_transfers():
    assert top_remaining(("Cal", "Bob"), {"Cal"}) == "Bob"
    assert top_remaining(("Cal",), {"Cal"}) is None
    assert top_remaining(("Ann", "Dee"), set()) == "Ann"
    assert top_remaining((), set()) is None


def test_plurality_example(plurality_profile):
    result = plurality_viability(plurality_profile)
    assert result.viable == {"Ann", "Bob"}
    assert result.elimination_order == ()
    assert result.final_piles == {"Ann": 57532, "Bob": 15630, "Cal": 1600, "Dee": 846}


def test_plurality_single_candidate_all_votes():
    profile = build_profile(["Solo"], [(["Solo"], 10)], "0.15", 3, "plurality")
    assert plurality_viability(profile).viable == {"Solo"}


def test_plurality_candidate_just_below_threshold():
    # 14.93% of the vote: short of 15%
    profile = build_profile(
        ["Front", "Near"],
        [(["Front"], 8507), (["Near"], 1493)],
        "0.15",
        5,
        "plurality",
    )
    assert plurality_viability(profile).viable == {"Front"}


def test_plurality_no_viable_candidate_unsupported():
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 34), (["B"], 33), (["C"], 33)],
        Fraction(1, 2),
        3,
        "plurality",
    )
    with pytest.raises(UnsupportedOutcomeError):
        plurality_viability(profile)


def test_blank_only_profile_unsupported():
    profile = build_profile(["A"], [([], 5)], "0.15", 1, "plurality")
    with pytest.raises(UnsupportedOutcomeError):
        plurality_viability(profile)


def test_irv_example_rounds(irv_profile):
    result = irv_viability(irv_profile)
    assert result.elimination_order == ("Cal", "Dee")
    assert result.viable == {"Ann", "Bob"}
    r1, r2, r3 = result.rounds
    assert r1.piles == {"Ann": 50000, "Bob": 9630, "Cal": 7600, "Dee": 8378}
    assert r1.eliminated == "Cal"
    # transfers: [Cal,Bob] to Bob, [Cal] exhausted
    assert r2.piles == {"Ann": 50000, "Bob": 15630, "Dee": 8378}
    assert r2.exhausted == 1600
    assert r2.eliminated == "Dee"
    assert r3.piles == {"Ann": 57532, "Bob": 15630}
    assert r3.exhausted == 2446
    assert r3.eliminated is None
    # round proportions measured against the fixed valid total
    assert abs(100 * r1.piles["Cal"] / 75608 - 10.052) < 0.001
    assert abs(100 * r2.piles["Dee"] / 75608 - 11.080) < 0.001


def test_irv_immediate_stop_when_all_clear():
    profile = build_profile(
        ["A", "B"],
        [(["A", "B"], 60), (["B"], 40)],
        "0.15",
        2,
        "irv",
    )
    result = irv_viability(profile)
    assert result.elimination_order == ()
    assert result.viable == {"A", "B"}


def test_irv_all_eliminated_unsupported():
    # bullet votes only; everyone stays below 40% after exhaustion
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 34), (["B"], 33), (["C"], 33)],
        Fraction(2, 5),
        2,
        "irv",
    )
    with pytest.raises(UnsupportedOutcomeError):
        irv_viability(profile)


def test_irv_lowest_tie_roster_order_and_warning():
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 50), (["B", "A"], 25), (["C", "A"], 25)],
        "0.3",
        2,
        "irv",
    )
    result = irv_viability(profile)
    assert result.elimination_order[0] == "B"  # tie with C broken toward roster order
    assert result.tie_warning


def test_irv_ballot_conservation_and_monotone_piles():
    rng = random.Random(7)
    for _ in range(60):
        profile = random_irv_profile(rng)
        try:
            result = irv_viability(profile)
        except UnsupportedOutcomeError:
            continue
        valid = profile.valid_ballots
        previous: dict[str, int] = {}
        for rnd in result.rounds:
            assert sum(rnd.piles.values()) + rnd.exhausted == valid
            for cand, pile in rnd.piles.items():
                assert pile >= previous.get(cand, 0)
            previous = dict(rnd.piles)
            if rnd.eliminated is not None:
                assert rnd.eliminated == min(
                    rnd.piles, key=lambda c: (rnd.piles[c], profile.labels.index(c))
                )


def test_irv_line_order_does_not_matter():
    base = [
        (["A", "B"], 30),
        (["B"], 25),
        (["C", "A"], 20),
        (["C"], 5),
        ([], 3),
    ]
    profiles = [
        build_profile(["A", "B", "C"], list(order), "0.25", 4, "irv")
        for order in permutations(base)
    ]
    outcomes = {repr(tabulate(p)) for p in profiles}
    assert len(outcomes) == 1


def test_allocation_example(irv_profile):
    allocation = tabulate(irv_profile)
    assert allocation.qualified_total == 73162
    assert abs(float(allocation.quotas["Ann"]) - 3.932) < 0.001
    assert abs(float(allocation.quotas["Bob"]) - 1.068) < 0.001
    assert allocation.floors == {"Ann": 3, "Bob": 1}
    assert allocation.leftover == 1
    assert allocation.allocation == {"Ann": 4, "Bob": 1}
    assert not allocation.tie_flag


def test_allocation_single_viable_gets_everything():
    profile = build_profile(["A", "B"], [(["A"], 90), (["B"], 10)], Fraction(1, 2), 7, "plurality")
    allocation = tabulate(profile)
    assert allocation.allocation == {"A": 7}
    assert allocation.leftover == 0


def test_allocation_matches_largest_remainder_definition():
    """Brute-force check of the defining properties on random contests,
    plurality and instant-runoff: an IRV allocation is made over the piles
    left after its eliminations."""
    rng = random.Random(11)
    checked = {"plurality": 0, "irv": 0}
    contests = [random_plurality_profile(rng, max_candidates=6, max_delegates=12) for _ in range(400)]
    contests += [random_irv_profile(rng, max_candidates=6) for _ in range(400)]
    for profile in contests:
        try:
            allocation = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        delegates = profile.delegates
        quotas = allocation.quotas
        floors = allocation.floors
        # each quota is D times the candidate's share of the viable final piles
        final = allocation.rounds[-1].piles
        assert set(allocation.allocation) == allocation.viable
        assert allocation.qualified_total == sum(final[c] for c in allocation.viable)
        assert quotas == {c: Fraction(delegates * final[c], allocation.qualified_total) for c in allocation.viable}
        assert sum(allocation.allocation.values()) == delegates
        rounded_up = set()
        for c, a in allocation.allocation.items():
            assert a in (floors[c], floors[c] + 1)
            assert 0 <= quotas[c] - floors[c] < 1
            if a == floors[c] + 1:
                rounded_up.add(c)
        # the rounded-up set is exactly the first r under the declared order
        order = sorted(
            allocation.allocation,
            key=lambda c: (
                -(quotas[c] - floors[c]),
                -allocation.final_tally[c],
                profile.labels.index(c),
            ),
        )
        assert rounded_up == set(order[: allocation.leftover])
        checked[profile.style] += 1
    assert min(checked.values()) >= 200


def test_allocation_boundary_tie_flagged():
    # equal tallies give equal remainders competing for one leftover delegate
    profile = build_profile(["A", "B"], [(["A"], 50), (["B"], 50)], "0.15", 3, "plurality")
    allocation = tabulate(profile)
    assert allocation.tie_flag
    assert allocation.allocation == {"A": 2, "B": 1}  # roster tie-break


def test_allocation_exact_quotas_no_tie_flag():
    # integer quotas leave no leftover delegates, so the tie is harmless
    profile = build_profile(["A", "B"], [(["A"], 50), (["B"], 50)], "0.15", 2, "plurality")
    allocation = tabulate(profile)
    assert allocation.allocation == {"A": 1, "B": 1}
    assert allocation.leftover == 0
    assert not allocation.tie_flag


def test_tabulate_refuses_a_profile_without_delegates():
    """``build_profile`` refuses a delegate count below 1; a profile built
    directly with none still cannot be allocated."""
    profile = ElectionProfile(("A", "B"), {("A",): 3, ("B",): 1}, Fraction(1, 10), 0, "plurality")
    with pytest.raises(ValueError, match="delegate count must be positive"):
        tabulate(profile)


def test_tabulate_example1_matches_example3(plurality_profile, irv_profile):
    o1 = tabulate(plurality_profile)
    o2 = tabulate(irv_profile)
    assert o1.allocation == o2.allocation == {"Ann": 4, "Bob": 1}
    assert o1.qualified_total == o2.qualified_total == 73162
    assert o2.final_tally["Cal"] == 7600  # pile when eliminated
    assert o2.final_tally["Dee"] == 8378


def test_count_piles_blank_handling():
    profile = build_profile(["A", "B"], [(["A"], 3), ([], 2)], "0.15", 1, "irv")
    piles, exhausted = count_piles(profile, frozenset())
    assert piles == {"A": 3, "B": 0}
    assert exhausted == 0
    assert profile.valid_ballots == 3
    assert profile.total_ballots == 5
