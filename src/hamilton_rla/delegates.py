"""Pairwise-difference assertions certifying a largest-remainder allocation.

For every ordered pair of viable candidates ``(m, n)`` the audit checks

    p_m > p_n + (a_m - a_n - s) / D

where ``p`` are qualified-vote proportions, ``a`` the reported delegate
counts, ``D`` the delegates at stake, and ``s`` the slack: ``s = 1``
verifies the exact allocation (level 3), ``s = 2`` verifies that nobody
was over-awarded by two or more delegates (level 2).  Pairs whose offset
``d = (a_m - a_n - s)/D`` is at or below -1 are vacuously true (any
qualified proportion satisfies them) and are skipped.

Why a wrong allocation always violates some ``s = 1`` assertion: suppose
the reported ``a`` differs from the correct largest-remainder allocation
``a'`` of the true ballots.  Both sum to ``D``, so some ``m`` has
``a_m >= a'_m + 1`` (over-awarded) and some ``n`` has ``a_n <= a'_n - 1``
(under-awarded).  Writing ``q = p * D`` for the true quotas:

* if ``m`` was rounded up,   ``q_m < a'_m  <= a_m - 1``;
* if ``m`` was rounded down, ``q_m < a'_m + 1 <= a_m``;
* if ``n`` was rounded up,   ``q_n >= a'_n - 1 >= a_n``;
* if ``n`` was rounded down, ``q_n >= a'_n >= a_n + 1``.

Three of the four case combinations immediately give
``q_m - q_n < a_m - a_n - 1``.  In the remaining case (``m`` rounded
down, ``n`` rounded up) the largest-remainder rule itself supplies the
missing step: ``n`` received a leftover delegate and ``m`` did not, so
``m``'s remainder is no larger than ``n``'s, i.e.
``q_m - a'_m <= q_n - (a'_n - 1)``, and again
``q_m - q_n <= a'_m - a'_n + 1 <= a_m - a_n - 1``.  Either way the
``s = 1`` assertion for ``(m, n)`` fails (margin <= 0) on the true
ballots.

The same case analysis with an over-award of two or more (``a_m >=
a'_m + 2``) tightens every bound by one and yields
``q_m - q_n <= a_m - a_n - 2``, which is exactly the ``s = 2`` assertion
failing — hence the level-2 form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .assertions import PairwiseDiff
from .model import ElectionProfile, ReportedOutcome
from .tabulation import count_piles

LEVEL_SLACK = {2: 2, 3: 1}


@dataclass(frozen=True)
class SkippedPair:
    winner: str
    loser: str
    offset: Fraction
    reason: str


@dataclass(frozen=True)
class DelegateAssertionSet:
    assertions: tuple[PairwiseDiff, ...]
    skipped: tuple[SkippedPair, ...]
    tie_flag: bool


def pair_offset(allocation: Mapping[str, int], delegates: int, m: str, n: str, slack: int) -> Fraction:
    return Fraction(allocation[m] - allocation[n] - slack, delegates)


def gen_delegate_assertions(outcome: ReportedOutcome, level: int) -> DelegateAssertionSet:
    """Both orderings of every viable pair, at the level's slack.

    With a single viable candidate the allocation is forced and the set is
    empty.  ``tie_flag`` is propagated from the allocation: an exact
    remainder tie at the award boundary makes some margin zero, which
    forces a full count downstream.
    """
    if level not in LEVEL_SLACK:
        raise ValueError(f"delegate assertions exist only for levels {sorted(LEVEL_SLACK)}")
    slack = LEVEL_SLACK[level]
    viable = [c for c in outcome.final_tally if c in outcome.viable]
    assertions: list[PairwiseDiff] = []
    skipped: list[SkippedPair] = []
    for m in viable:
        for n in viable:
            if m == n:
                continue
            d = pair_offset(outcome.allocation, outcome.delegates, m, n, slack)
            if d <= -1:
                skipped.append(SkippedPair(m, n, d, "vacuous: holds for any qualified proportions"))
                continue
            assertions.append(PairwiseDiff(m, n, d, outcome.viable))
    return DelegateAssertionSet(tuple(assertions), tuple(skipped), outcome.tie_flag)


def find_violated_assertion(
    profile: ElectionProfile,
    alt_allocation: Mapping[str, int],
    outcome: ReportedOutcome,
) -> PairwiseDiff | None:
    """Return an exact-allocation assertion built from ``alt_allocation`` that
    fails (margin <= 0) on the profile's true ballots, or None when the
    alternative is in fact the correct allocation ``outcome`` of the profile.

    Any allocation differing from the true largest-remainder result admits
    such a witness (see module docstring); the search checks every
    non-vacuous ordered pair on the qualified tallies, exactly.
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
            d = pair_offset(alt_allocation, outcome.delegates, m, n, LEVEL_SLACK[3])
            if m != n and d > -1:  # d <= -1 is vacuous, never the witness
                witnesses.append(PairwiseDiff(m, n, d, outcome.viable))
    if not witnesses:
        return None
    # every witness shares the viable set, hence its classes
    classes, _ = count_piles(profile, witnesses[0].removed(profile.labels))
    return next((a for a in witnesses if a.scaled_margin(classes, profile.valid_ballots) <= 0), None)
