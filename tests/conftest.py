import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Mapping

import pytest

from hamilton_rla import ElectionProfile, PairwiseDiff, ReportedOutcome, build_profile
from hamilton_rla.delegates import LEVEL_SLACK
from hamilton_rla.model import write_json
from hamilton_rla.risk import RiskState, _log_factors
from hamilton_rla.tabulation import count_piles

DATA = Path(__file__).parent / "data"

TAU = Fraction(15, 100)


def km_step(state: RiskState, category: str) -> RiskState:
    """The per-ballot scoring oracle: record one drawn ballot of the given
    discrepancy category."""
    _log_factors(state.margin, state.gamma)  # validates the margin
    return replace(state, **{category: getattr(state, category) + 1})


def save_election(profile: ElectionProfile, path) -> None:
    """Write a profile in the election JSON format that load_election reads."""
    payload = {
        "candidates": list(profile.labels),
        "threshold": str(profile.threshold),
        "delegates": profile.delegates,
        "style": profile.style,
        "ballots": [{"ranking": list(r), "count": n} for r, n in profile.rankings.items()],
    }
    write_json(payload, path)


def count_pairs(cvrs, rounds) -> Counter:
    """The draws of (manifest, papers) rounds counted per (CVR ranking, paper
    ranking) pair, each draw paired with its own round's paper."""
    return Counter((cvrs[b], papers[b]) for manifest, papers in rounds for b in manifest)


@pytest.fixture
def plurality_profile() -> ElectionProfile:
    """Four-candidate plurality contest: two viable, two short of 15%."""
    return build_profile(
        ["Ann", "Bob", "Cal", "Dee"],
        [(["Ann"], 57532), (["Bob"], 15630), (["Cal"], 1600), (["Dee"], 846)],
        TAU,
        5,
        "plurality",
    )


@pytest.fixture
def irv_profile() -> ElectionProfile:
    """Ranked version of the same contest; Cal then Dee are eliminated."""
    return build_profile(
        ["Ann", "Bob", "Cal", "Dee"],
        [
            (["Ann", "Dee", "Cal", "Bob"], 50000),
            (["Bob", "Cal"], 9630),
            (["Cal", "Bob"], 6000),
            (["Cal"], 1600),
            (["Dee", "Ann", "Cal"], 7532),
            (["Dee", "Cal"], 846),
        ],
        TAU,
        5,
        "irv",
    )


LABELS = ["A", "B", "C", "D", "E", "F", "G", "H"]


def random_plurality_profile(
    rng: random.Random,
    max_candidates: int = 6,
    max_ballots: int = 500,
    threshold: Fraction = TAU,
    max_delegates: int = 12,
) -> ElectionProfile:
    n = rng.randint(2, max_candidates)
    labels = LABELS[:n]
    ballots = []
    remaining = rng.randint(n, max_ballots)
    for label in labels:
        count = rng.randint(0, remaining)
        remaining -= count
        if count:
            ballots.append(([label], count))
    if rng.random() < 0.3:
        ballots.append(([], rng.randint(1, 20)))  # blanks
    if not ballots:
        ballots.append(([labels[0]], 1))
    return build_profile(labels, ballots, threshold, rng.randint(1, max_delegates), "plurality")


def random_irv_profile(
    rng: random.Random,
    max_candidates: int = 6,
    max_ballots: int = 300,
    threshold: Fraction = TAU,
    delegates: int | None = None,
) -> ElectionProfile:
    n = rng.randint(3, max_candidates)
    labels = LABELS[:n]
    groups = rng.randint(3, 12)
    ballots = []
    budget = max_ballots
    for _ in range(groups):
        length = rng.randint(1, n)
        ranking = rng.sample(labels, length)
        count = rng.randint(1, max(1, budget // groups))
        budget -= count
        ballots.append((ranking, count))
        if budget <= 0:
            break
    if rng.random() < 0.2:
        ballots.append(([], rng.randint(1, 10)))
    return build_profile(labels, ballots, threshold, delegates or rng.randint(1, 8), "irv")


def top_choice(ranking, eliminated):
    """The ballot's first choice not in ``eliminated``; None when it has none."""
    return next((choice for choice in ranking if choice not in eliminated), None)


def scan_piles(profile: ElectionProfile, eliminated) -> tuple[dict[str, int], int]:
    """The reference tally: each non-blank ranking's top standing choice."""
    piles = {c: 0 for c in profile.labels if c not in eliminated}
    exhausted = 0
    for ranking, count in profile.rankings.items():
        if not ranking:
            continue
        top = top_choice(ranking, eliminated)
        if top is None:
            exhausted += count
        else:
            piles[top] += count
    return piles, exhausted


def elimination_sets(labels) -> list[frozenset[str]]:
    """Every subset of ``labels``, in ascending size."""
    return [frozenset(c) for size in range(len(labels) + 1) for c in combinations(labels, size)]


def assert_tallies_match_scan(profile: ElectionProfile, sets) -> None:
    """``count_piles`` equals ``scan_piles``, pile order included, on each set."""
    for eliminated in sets:
        piles, exhausted = count_piles(profile, eliminated)
        expected_piles, expected_exhausted = scan_piles(profile, eliminated)
        assert list(piles.items()) == list(expected_piles.items()), eliminated
        assert exhausted == expected_exhausted, eliminated


def enumerate_allocations(viable, delegates: int):
    """All ways to award ``delegates`` over ``viable`` (compositions)."""
    labels = list(viable)

    def rec(i: int, remaining: int, acc: dict[str, int]):
        if i == len(labels) - 1:
            acc[labels[i]] = remaining
            yield dict(acc)
            return
        for take in range(remaining + 1):
            acc[labels[i]] = take
            yield from rec(i + 1, remaining - take, acc)

    if labels:
        yield from rec(0, delegates, {})


def perturb_profile(profile: ElectionProfile, rng: random.Random) -> ElectionProfile:
    """Randomly move or resize a few ranking groups, keeping the roster fixed."""
    rankings = {r: n for r, n in profile.rankings.items()}
    labels = list(profile.labels)
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        if rankings and op < 0.5:
            source = rng.choice(list(rankings))
            delta = rng.randint(1, max(1, rankings[source] // 10))
            rankings[source] -= delta
            if rankings[source] <= 0:
                del rankings[source]
            target = tuple(rng.sample(labels, rng.randint(1, len(labels))))
            if profile.style == "plurality":
                target = target[:1]
            rankings[target] = rankings.get(target, 0) + delta
        else:
            target = tuple(rng.sample(labels, rng.randint(1, len(labels))))
            if profile.style == "plurality":
                target = target[:1]
            rankings[target] = rankings.get(target, 0) + rng.randint(1, 10)
    ballots = [(list(r), n) for r, n in rankings.items() if n > 0]
    if not ballots:
        ballots = [([labels[0]], 1)]
    return build_profile(labels, ballots, profile.threshold, profile.delegates, profile.style)


def find_violated_assertion(
    profile: ElectionProfile,
    alt_allocation: Mapping[str, int],
    outcome: ReportedOutcome,
) -> PairwiseDiff | None:
    """Return an exact-allocation assertion built from ``alt_allocation`` that
    fails (margin <= 0) on the profile's true ballots, or None when the
    alternative is in fact the correct allocation ``outcome`` of the profile.

    Any allocation differing from the true largest-remainder result admits
    such a witness (see the ``hamilton_rla.delegates`` docstring); the
    search checks every non-vacuous ordered pair on the qualified tallies,
    exactly.
    """
    viable = [c for c in profile.labels if c in outcome.viable]
    if set(alt_allocation) != set(viable):
        raise ValueError("alternative allocation must cover exactly the viable set")
    if sum(alt_allocation.values()) != outcome.delegates:
        raise ValueError("alternative allocation must award every delegate")
    if dict(alt_allocation) == dict(outcome.allocation):
        return None

    witnesses = []
    for m in viable:
        for n in viable:
            d = Fraction(alt_allocation[m] - alt_allocation[n] - LEVEL_SLACK[3], outcome.delegates)
            if m != n and d > -1:  # d <= -1 is vacuous, never the witness
                witnesses.append(PairwiseDiff(m, n, d, outcome.viable))
    if not witnesses:
        return None
    # every witness shares the viable set, hence its classes
    classes, _ = count_piles(profile, witnesses[0].removed(profile.labels))
    return next((a for a in witnesses if a.scaled_margin(classes, profile.valid_ballots) <= 0), None)


def cyclic_contest(strengths) -> ElectionProfile:
    """Two first-preference leaders and a ring of minor candidates, each
    passing its votes to the next one or two in the ring."""
    labels = [f"c{i}" for i in range(len(strengths))]
    ring = labels[2:]
    ballots = []
    for i, (label, weight) in enumerate(zip(labels, strengths)):
        if i < 2:
            ballots.append(([label], weight))
        else:
            nxt, nxt2 = ring[(i - 1) % len(ring)], ring[i % len(ring)]
            ballots.append(([label, nxt, nxt2], weight * 2 // 3))
            ballots.append(([label, nxt2], weight - weight * 2 // 3))
    return build_profile(labels, ballots, TAU, 14, "irv")


# the benchmark's irv-search contest
TEN_STRENGTHS = (4400, 3160, 2400, 2200, 2000, 1800, 1700, 1600, 1340, 1100)
# four more ring candidates: the largest cyclic contest the tests search
FOURTEEN_STRENGTHS = TEN_STRENGTHS + (1500, 1250, 1150, 1050)


# first-choice strengths of the deep-rankings contest's eight candidates
DEEP_STRENGTHS = (40, 30, 22, 18, 14, 10, 8, 6)


def deep_contest(rng: random.Random, distinct: int = 1500) -> ElectionProfile:
    """Eight candidates and ``distinct`` distinct rankings of one to all
    eight of them, each counted up to its first choice's strength in
    ``DEEP_STRENGTHS``, plus blank ballots.  Only integer draws
    (``randrange`` and ``sample``), whose values every supported Python
    gives alike."""
    rankings: dict[tuple[str, ...], int] = {}
    while len(rankings) < distinct:
        ranking = tuple(rng.sample(LABELS, rng.randrange(1, len(LABELS) + 1)))
        strength = DEEP_STRENGTHS[LABELS.index(ranking[0])]
        rankings[ranking] = rankings.get(ranking, 0) + rng.randrange(1, strength + 1)
    rankings[()] = rng.randrange(1, 200)
    return build_profile(LABELS, [(list(r), n) for r, n in rankings.items()], TAU, 14, "irv")
