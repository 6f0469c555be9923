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

The instant-runoff search tallies thousands of sets, each one candidate
larger than another, so it walks from the root only once (``_first_piles``)
and derives every other set's piles from a one-smaller set's
(``_transfer``): only the candidate eliminated last has ballots that move,
and the walk starts at that candidate's *pile nodes*, the tree nodes whose
ballots make up their pile.  ``count_piles`` and the transfer share one
grow-and-descend loop, ``_descend``.

Delegates are then awarded to viable candidates by the largest-remainder
rule: each candidate ``c`` gets ``floor(q_c)`` delegates from quota
``q_c = D * tally_c / Q``, and the leftover delegates go to the largest
fractional remainders.  All quotas and proportions are exact rationals;
remainder comparisons are therefore exact, which matters because real
contests turn on remainder differences of a few thousandths.

Remainder ties are broken toward the larger final tally, then roster
order.  ``tie_flag`` is set only when the tie falls on the boundary of the
leftover awards (positions r-1 and r of the remainder ranking): only there
does the tie-break decide a delegate, which zeroes the margin of the
corresponding allocation assertion.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .model import PLURALITY, ElectionProfile, ReportedOutcome, Round, UnsupportedOutcomeError, _check_style


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


def _descend(stack: list[tuple[list, int]], eliminated: frozenset[str] | set[str], piles: dict[str, int],
             found: dict[str, list]) -> int:
    """Walk the ranking tree down from the ``(node, depth)`` pairs on
    ``stack`` through eliminated labels only, growing each pending node it
    walks down, and return the ballots whose ranking ends on the way.

    Every ballot below a standing child is added to that child's pile in
    ``piles``, and the child and its depth go to its label's list in
    ``found`` if it has one.  ``stack`` is popped empty.
    """
    exhausted = 0
    while stack:
        node, depth = stack.pop()
        pending = node[3]
        if pending is not None:
            _grow(node, depth, pending)
        exhausted += node[1]
        depth += 1
        for label, child in node[2].items():
            if label in eliminated:
                stack.append((child, depth))
            else:
                piles[label] += child[0]
                if label in found:
                    found[label].append((child, depth))
    return exhausted


def count_piles(
    profile: ElectionProfile, eliminated: frozenset[str] | set[str]
) -> tuple[dict[str, int], int]:
    """Pile sizes for standing candidates plus the exhausted (non-blank) count.

    Walks the profile's ranking tree from its root through eliminated
    labels only: every ballot below a standing child tops that child's
    pile, and a ballot whose ranking ends on an eliminated prefix is
    exhausted.
    """
    piles = {label: 0 for label in profile.labels if label not in eliminated}
    return piles, _descend([(profile.ranking_tree, 0)], eliminated, piles, {})


# Some standing candidates' pile nodes: the ranking-tree nodes whose ballots
# make up their piles, as ``(node, depth)`` pairs in a tuple of shared lists.
PileNodes = dict[str, tuple[list[tuple[list, int]], ...]]


def _first_piles(profile: ElectionProfile) -> tuple[dict[str, int], PileNodes]:
    """The first-preference piles, and every candidate's pile nodes: the root's children."""
    piles = {label: 0 for label in profile.labels}
    found: dict[str, list] = {label: [] for label in piles}
    _descend([(profile.ranking_tree, 0)], frozenset(), piles, found)
    return piles, {label: (new,) for label, new in found.items()}


def _transfer(
    piles: dict[str, int], nodes: PileNodes, gone: str, eliminated: frozenset[str], keep: Sequence[str]
) -> tuple[dict[str, int], PileNodes]:
    """The piles once ``gone`` is eliminated too, and the pile nodes of the
    candidates in ``keep``, from the ``piles`` and ``nodes`` of the set
    without ``gone``; ``eliminated`` is the set with it.

    Only ``gone``'s ballots move: the walk starts at its pile nodes, and
    the nodes it finds for a kept candidate are chained onto theirs as one
    more list, so neither argument, nor any list they share, is changed.
    """
    piles = dict(piles)
    del piles[gone]
    found: dict[str, list] = {label: [] for label in keep}
    _descend([pair for chunk in nodes[gone] for pair in chunk], eliminated, piles, found)
    return piles, {label: nodes[label] + (new,) if new else nodes[label] for label, new in found.items()}


def _meets_threshold(tally: int, threshold: Fraction, valid: int) -> bool:
    # tally / valid >= threshold, exactly
    return tally * threshold.denominator >= threshold.numerator * valid


def tabulate(profile: ElectionProfile) -> ReportedOutcome:
    """Full pipeline: viability rounds, then the largest-remainder
    allocation of the profile's delegates over the viable set.

    Each round counts the piles left by the eliminations so far.  A
    plurality contest stops after its one count: everyone at or above the
    cutoff is viable.  An instant-runoff contest eliminates the lowest
    pile, one candidate per round, until every standing candidate clears
    the cutoff.  A lowest-tally tie is broken toward the candidate
    earliest in the roster and flagged, since an exact tie leaves the
    elimination unauditable (some assertion margin is zero).  Each
    candidate's final tally is their pile when they leave, or in the last
    round.  Any other style is refused as ``build_profile`` refuses it.
    """
    _check_style(profile.style)
    valid = profile.valid_ballots
    if valid == 0:
        raise UnsupportedOutcomeError("no valid votes were cast in the contest")
    eliminated: set[str] = set()
    rounds: list[Round] = []
    final_tally: dict[str, int] = {}
    tie_warning = False
    while True:
        piles, exhausted = count_piles(profile, eliminated)
        viable = [c for c, tally in piles.items() if _meets_threshold(tally, profile.threshold, valid)]
        if profile.style == PLURALITY or len(viable) == len(piles):
            break
        lowest = min(piles.values())
        tied = [c for c, tally in piles.items() if tally == lowest]
        tie_warning = tie_warning or len(tied) > 1
        rounds.append(Round(piles, exhausted, tied[0]))
        final_tally[tied[0]] = lowest
        eliminated.add(tied[0])
        if len(piles) == 1:
            raise UnsupportedOutcomeError(
                "every candidate was eliminated before reaching the viability threshold"
            )
    if not viable:
        raise UnsupportedOutcomeError(
            "no candidate reaches the viability threshold; alternate rules apply"
        )
    elimination_order = tuple(rnd.eliminated for rnd in rounds)
    rounds.append(Round(piles, exhausted, None))
    final_tally.update(piles)

    delegates = profile.delegates
    if delegates < 1:
        raise ValueError("delegate count must be positive")
    qualified = sum(final_tally[c] for c in viable)
    proportions = {c: Fraction(final_tally[c], qualified) for c in viable}
    quotas = {c: delegates * proportions[c] for c in viable}
    floors = {c: math.floor(quotas[c]) for c in viable}
    leftover = delegates - sum(floors.values())
    remainders = {c: quotas[c] - floors[c] for c in viable}
    # a stable sort of the roster-ordered viable list: roster order breaks the last ties
    ranked = sorted(viable, key=lambda c: (-remainders[c], -final_tally[c]))
    awarded = set(ranked[:leftover])
    tie_flag = 0 < leftover < len(viable) and remainders[ranked[leftover - 1]] == remainders[ranked[leftover]]

    return ReportedOutcome(
        style=profile.style,
        threshold=profile.threshold,
        delegates=delegates,
        total_ballots=profile.total_ballots,
        valid_ballots=profile.valid_ballots,
        viable=frozenset(viable),
        elimination_order=elimination_order,
        rounds=tuple(rounds),
        final_tally=final_tally,
        qualified_total=qualified,
        proportions=proportions,
        quotas=quotas,
        floors=floors,
        leftover=leftover,
        allocation={c: floors[c] + (1 if c in awarded else 0) for c in viable},
        remainder_rank=tuple(ranked),
        tie_flag=tie_flag,
        viability_tie_warning=tie_warning,
    )
