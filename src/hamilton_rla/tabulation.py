"""Viability tabulation and largest-remainder delegate allocation.

Viability cutoffs are always measured against the fixed count of valid
(non-blank) cast ballots, not the shrinking per-round continuing total:
a candidate is viable when their pile holds at least ``threshold`` of
that fixed denominator.  Instant-runoff rounds repeatedly eliminate the
lowest pile until every standing candidate clears the cutoff.

Piles are tallied through the profile's prefix tree of rankings
(``ElectionProfile.ranking_tree``), which grows on demand: a count
descends only through eliminated labels, and the first count to walk
down a node builds that node's children from the rankings through it.
Tallying thus touches only the rankings below eliminated prefixes, and
a grown node is kept for the profile's later counts.

Delegates are then awarded to viable candidates by the largest-remainder
rule: each candidate ``c`` gets ``floor(q_c)`` delegates from quota
``q_c = D * tally_c / Q``, and the leftover delegates go to the largest
fractional remainders.  All quotas and proportions are exact rationals;
remainder comparisons are therefore exact, which matters because real
contests turn on remainder differences of a few thousandths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import (
    IRV,
    PLURALITY,
    ElectionProfile,
    Ranking,
    ReportedOutcome,
    Round,
    UnsupportedOutcomeError,
)


@dataclass(frozen=True)
class ViabilityResult:
    viable: frozenset[str]
    elimination_order: tuple[str, ...]
    rounds: tuple[Round, ...]
    tie_warning: bool

    @property
    def final_piles(self) -> Mapping[str, int]:
        return self.rounds[-1].piles


@dataclass(frozen=True)
class AllocationResult:
    qualified_total: int
    proportions: Mapping[str, Fraction]
    quotas: Mapping[str, Fraction]
    floors: Mapping[str, int]
    leftover: int
    allocation: Mapping[str, int]
    remainder_rank: tuple[str, ...]
    tie_flag: bool


def top_remaining(ranking: Ranking, eliminated: frozenset[str] | set[str]) -> str | None:
    """First choice on the ballot not yet eliminated; None when exhausted or blank."""
    for choice in ranking:
        if choice not in eliminated:
            return choice
    return None


def _grow(node: list, depth: int, pending: list) -> None:
    """Build a pending node's ``ended`` count and children from ``pending``,
    the pairs whose rankings pass through it ``depth`` labels deep.

    Each child starts pending with its own pairs.  The results go to
    locals and are stored before ``pending`` is dropped, so a node grown
    twice (by tallies racing on a shared profile) ends up the same.
    """
    ended = 0
    children: dict[str, list] = {}
    for pair in pending:
        ranking, count = pair
        if len(ranking) == depth:
            ended += count
            continue
        label = ranking[depth]
        child = children.get(label)
        if child is None:
            children[label] = [count, 0, None, [pair]]
        else:
            child[0] += count
            child[3].append(pair)
    node[1] = ended
    node[2] = children
    node[3] = None


def count_piles(
    profile: ElectionProfile, eliminated: frozenset[str] | set[str]
) -> tuple[dict[str, int], int]:
    """Pile sizes for standing candidates plus the exhausted (non-blank) count.

    Walks the profile's ranking tree through eliminated labels only,
    growing each pending node it walks down: every ballot below a standing
    child tops that child's pile, and a ballot whose ranking ends on an
    eliminated prefix is exhausted.
    """
    piles = {label: 0 for label in profile.labels if label not in eliminated}
    exhausted = 0
    stack = [(profile.ranking_tree, 0)]
    while stack:
        node, depth = stack.pop()
        pending = node[3]
        if pending is not None:
            _grow(node, depth, pending)
        exhausted += node[1]
        for label, child in node[2].items():
            if label in eliminated:
                stack.append((child, depth + 1))
            else:
                piles[label] += child[0]
    return piles, exhausted


def _meets_threshold(tally: int, threshold: Fraction, valid: int) -> bool:
    # tally / valid >= threshold, exactly
    return tally * threshold.denominator >= threshold.numerator * valid


def plurality_viability(profile: ElectionProfile) -> ViabilityResult:
    """Single-round viability: everyone at or above the cutoff is viable."""
    if profile.style != PLURALITY:
        raise ValueError("profile is not a plurality contest")
    valid = profile.valid_ballots
    if valid == 0:
        raise UnsupportedOutcomeError("no valid votes were cast in the contest")
    piles, exhausted = count_piles(profile, frozenset())
    viable = frozenset(
        c for c, tally in piles.items() if _meets_threshold(tally, profile.threshold, valid)
    )
    if not viable:
        raise UnsupportedOutcomeError(
            "no candidate reaches the viability threshold; alternate rules apply"
        )
    return ViabilityResult(viable, (), (Round(piles, exhausted, None),), tie_warning=False)


def irv_viability(profile: ElectionProfile) -> ViabilityResult:
    """Eliminate the lowest pile until all standing candidates clear the cutoff.

    Exactly one candidate leaves per round.  A lowest-tally tie is broken
    toward the candidate earliest in the roster and flagged, since an
    exact tie leaves the elimination unauditable (some assertion margin
    is zero).
    """
    if profile.style != IRV:
        raise ValueError("profile is not an instant-runoff contest")
    valid = profile.valid_ballots
    if valid == 0:
        raise UnsupportedOutcomeError("no valid votes were cast in the contest")

    eliminated: set[str] = set()
    order: list[str] = []
    rounds: list[Round] = []
    tie_warning = False
    while True:
        standing = [c for c in profile.labels if c not in eliminated]
        if not standing:
            raise UnsupportedOutcomeError(
                "every candidate was eliminated before reaching the viability threshold"
            )
        piles, exhausted = count_piles(profile, eliminated)
        if all(_meets_threshold(piles[c], profile.threshold, valid) for c in standing):
            rounds.append(Round(piles, exhausted, None))
            return ViabilityResult(frozenset(standing), tuple(order), tuple(rounds), tie_warning)
        lowest = min(piles[c] for c in standing)
        tied = [c for c in standing if piles[c] == lowest]
        if len(tied) > 1:
            tie_warning = True
        victim = tied[0]
        rounds.append(Round(piles, exhausted, victim))
        eliminated.add(victim)
        order.append(victim)


def hamilton_allocate(
    viability: ViabilityResult, delegates: int, roster: Sequence[str]
) -> AllocationResult:
    """Largest-remainder allocation of ``delegates`` over the viable set.

    Remainder ties are broken toward the larger final tally, then roster
    order.  ``tie_flag`` is set only when the tie falls on the boundary of
    the leftover awards (positions r-1 and r of the remainder ranking):
    only there does the tie-break decide a delegate, which zeroes the
    margin of the corresponding allocation assertion.
    """
    if not viability.viable:
        raise ValueError("allocation requires at least one viable candidate")
    if delegates < 1:
        raise ValueError("delegate count must be positive")
    viable = [c for c in roster if c in viability.viable]
    tallies = {c: viability.final_piles[c] for c in viable}
    qualified = sum(tallies.values())
    if qualified == 0:
        raise UnsupportedOutcomeError("viable candidates hold no ballots")

    proportions = {c: Fraction(tallies[c], qualified) for c in viable}
    quotas = {c: delegates * proportions[c] for c in viable}
    floors = {c: math.floor(quotas[c]) for c in viable}
    leftover = delegates - sum(floors.values())

    index = {c: i for i, c in enumerate(roster)}
    ranked = sorted(
        viable,
        key=lambda c: (-(quotas[c] - floors[c]), -tallies[c], index[c]),
    )
    awarded = set(ranked[:leftover])
    allocation = {c: floors[c] + (1 if c in awarded else 0) for c in viable}

    tie_flag = False
    if 0 < leftover < len(viable):
        boundary_in = quotas[ranked[leftover - 1]] - floors[ranked[leftover - 1]]
        boundary_out = quotas[ranked[leftover]] - floors[ranked[leftover]]
        tie_flag = boundary_in == boundary_out
    return AllocationResult(
        qualified_total=qualified,
        proportions=proportions,
        quotas=quotas,
        floors=floors,
        leftover=leftover,
        allocation=allocation,
        remainder_rank=tuple(ranked),
        tie_flag=tie_flag,
    )


def tabulate(profile: ElectionProfile) -> ReportedOutcome:
    """Full pipeline: viability rounds, then delegate allocation."""
    viability = plurality_viability(profile) if profile.style == PLURALITY else irv_viability(profile)
    allocation = hamilton_allocate(viability, profile.delegates, profile.labels)

    final_tally: dict[str, int] = {}
    for rnd in viability.rounds:
        if rnd.eliminated is not None:
            final_tally[rnd.eliminated] = rnd.piles[rnd.eliminated]
    for c, tally in viability.final_piles.items():
        final_tally[c] = tally

    return ReportedOutcome(
        style=profile.style,
        threshold=profile.threshold,
        delegates=profile.delegates,
        total_ballots=profile.total_ballots,
        valid_ballots=profile.valid_ballots,
        viable=viability.viable,
        elimination_order=viability.elimination_order,
        rounds=viability.rounds,
        final_tally=final_tally,
        qualified_total=allocation.qualified_total,
        proportions=allocation.proportions,
        quotas=allocation.quotas,
        floors=allocation.floors,
        leftover=allocation.leftover,
        allocation=allocation.allocation,
        remainder_rank=allocation.remainder_rank,
        tie_flag=allocation.tie_flag,
        viability_tie_warning=viability.tie_warning,
    )
