import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hamilton_rla import ElectionProfile, build_profile
from hamilton_rla.risk import RiskState, step_factor

DATA = Path(__file__).parent / "data"

TAU = Fraction(15, 100)


def km_step(state: RiskState, category: str) -> RiskState:
    """The per-ballot scoring oracle: record one drawn ballot of the given
    discrepancy category."""
    step_factor(state.margin, state.gamma, category)  # validates margin and category
    return replace(state, **{category: getattr(state, category) + 1})


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
