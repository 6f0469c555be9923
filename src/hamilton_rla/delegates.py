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

from fractions import Fraction

from .assertions import PairwiseDiff
from .model import ReportedOutcome

LEVEL_SLACK = {2: 2, 3: 1}


def gen_delegate_assertions(
    outcome: ReportedOutcome, level: int
) -> tuple[list[PairwiseDiff], list[tuple[str, str, Fraction]]]:
    """Both orderings of every viable pair, at the level's slack.

    Returns the assertions and the skipped vacuous pairs, each as
    ``(winner, loser, offset)`` with ``offset <= -1``, both in final-tally
    order.  With a single viable candidate the allocation is forced and
    both lists are empty.  An exact remainder tie at the award boundary
    (the outcome's ``tie_flag``) makes some margin zero, which forces a
    full count.
    """
    if level not in LEVEL_SLACK:
        raise ValueError(f"delegate assertions exist only for levels {sorted(LEVEL_SLACK)}")
    slack = LEVEL_SLACK[level]
    viable = [c for c in outcome.final_tally if c in outcome.viable]
    assertions: list[PairwiseDiff] = []
    skipped: list[tuple[str, str, Fraction]] = []
    for m in viable:
        for n in viable:
            if m == n:
                continue
            d = Fraction(outcome.allocation[m] - outcome.allocation[n] - slack, outcome.delegates)
            if d <= -1:
                skipped.append((m, n, d))
                continue
            assertions.append(PairwiseDiff(m, n, d, outcome.viable))
    return assertions, skipped
