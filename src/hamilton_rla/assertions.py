"""Audit assertions and their ballot-scoring assorters.

Every assertion is an inequality over ballot proportions.  It is scored by
an *assorter*: a function assigning each ballot a nonnegative rational
bounded by ``upper_bound``.  The assertion holds on a profile exactly when
the assorter's mean over all cast ballots exceeds 1/2, i.e. when the
margin ``2 * mean - 1`` is positive.

Every assorter classes a non-blank ballot by its top choice once the
assertion's eliminated set is removed (``None`` when the ballot exhausts)
and gives it that class's integer ``points`` (``other_points`` for a class
not named) over an even ``scale``; a blank scores ``scale // 2``, i.e. 1/2,
under every assertion.  The four forms, with ``t = p/q`` and ``d = r/s``:

``Viable(c, E, t)``
    Candidate ``c`` holds more than proportion ``t`` of the valid vote
    once the candidates in ``E`` are eliminated.  Scale ``2p``: ``q``
    (``1/(2t)``) for ``c``, 0 for every other class, exhausted included.

``NonViable(c, E, t)``
    Candidate ``c`` holds less than proportion ``t`` after eliminating
    ``E``.  Scale ``2(q-p)``: 0 for ``c``, ``q`` (``1/(2(1-t))``) for every
    other class, exhausted included.

``IrvWins(w, l, E)``
    ``w`` out-tallies ``l`` after eliminating ``E``.  Scale 2: 2 for
    ``w``'s pile, 0 for ``l``'s, 1 for everything else.

``PairwiseDiff(m, n, d, V)``
    Among ballots qualified for the viable set ``V`` (top choice within
    ``V`` exists), ``m``'s share beats ``n``'s share by more than ``d``.
    Its classes are the piles with everyone outside ``V`` eliminated.
    Scale ``2(s+r)``: ``2s`` (``1/(1+d)``) for ``m``, 0 for ``n``, ``s``
    for another viable candidate, ``s+r`` (1/2) for unqualified ballots.

The rest derives from the points: ``upper_bound`` is the most points over
the scale, and ``scaled_margin`` (the margin times the scale and the
number of cast ballots) sums ``2*points - scale`` over the class tallies,
so the assertion holds exactly when it is positive.  That sum is a linear
form, derived once per assertion as ``margin_terms``: a constant
``2*other_points - scale`` per valid ballot plus ``2*(points -
other_points)`` per ballot of each named class.  ``scaled_margin``
evaluates it on the tallies, and the IRV search evaluates the same terms
on each option's piles.  The functions at the end of the module score one
ballot at a time: the exact reference the tally path is tested against.

An assertion's derived values (``scale``, ``points``, ``other_points``,
``max_points``, ``upper_bound``, ``margin_terms``, ``key`` and its
``description``) are ``functools.cached_property`` attributes, computed on
first read from the frozen fields and stored on the object.

This module defines the forms and their scoring, not their JSON: an
assertion's spec object is written and read by ``model``
(``assertion_to_dict`` and ``assertion_from_dict``).  The module imports
nothing from the package at run time, so ``model`` imports it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, Collection, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from .model import ElectionProfile, Ranking


class Assertion:
    """The protocol shared by the four assertion forms.

    Subclasses define ``tag`` (the spec JSON type), the assorter as
    integer ``points`` per class with ``other_points`` for every class not
    named there over an even ``scale``, and ``key`` (the canonical identity
    string, which deduplicates spec entries and keys per-assertion audit
    state) and ``description`` (the ``str`` form).  The bound and the
    margin derive from the points.
    """

    tag: ClassVar[str]
    eliminated: frozenset[str]
    scale: int
    points: Mapping[str | None, int]
    other_points: int
    key: str
    description: str

    def __str__(self) -> str:
        return self.description

    def removed(self, labels: Collection[str]) -> frozenset[str]:
        """Candidates treated as eliminated when classing ballots that rank
        only candidates in ``labels``."""
        return self.eliminated

    @cached_property
    def max_points(self) -> int:
        return max(self.other_points, *self.points.values())

    @cached_property
    def upper_bound(self) -> Fraction:
        return Fraction(self.max_points, self.scale)

    def ballot_points(self, ranking: "Ranking") -> int:
        """One ballot's assorter value times ``scale``: the points of its first
        choice not in ``removed``, or of ``None`` when it has none left."""
        if not ranking:  # blank for the contest
            return self.scale // 2
        removed = self.removed(ranking)
        for choice in ranking:
            if choice not in removed:
                return self.points.get(choice, self.other_points)
        return self.points.get(None, self.other_points)

    @cached_property
    def margin_terms(self) -> tuple[int, Mapping[str | None, int]]:
        """``scaled_margin`` as a linear form: the coefficient of the
        valid-ballot count, ``2*other_points - scale``, and each named
        class's coefficient of its tally, ``2*(points - other_points)``."""
        other = self.other_points
        return 2 * other - self.scale, {cls: 2 * (points - other) for cls, points in self.points.items()}

    def scaled_margin(self, piles: Mapping[str, int], valid: int) -> int:
        """The margin times ``scale`` and the cast-ballot count, from the class
        tallies (the piles of the standing candidates after ``removed``) and
        the valid-ballot count; blanks add nothing."""
        constant, coefficients = self.margin_terms
        margin = constant * valid
        for cls, coefficient in coefficients.items():
            margin += coefficient * (valid - sum(piles.values()) if cls is None else piles[cls])
        return margin


def _set_repr(labels: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


@dataclass(frozen=True)
class _ThresholdAssertion(Assertion):
    """Shared shape of ``Viable`` and ``NonViable``: ``candidate`` against
    proportion ``threshold`` of the valid vote once ``eliminated`` are out."""

    candidate: str
    eliminated: frozenset[str]
    threshold: Fraction

    def __post_init__(self) -> None:
        if self.candidate in self.eliminated:
            raise ValueError(f"candidate {self.candidate!r} cannot be in its own elimination set")

    @cached_property
    def key(self) -> str:
        return f"{self.tag}:{self.candidate}:E={','.join(sorted(self.eliminated))}:t={self.threshold}"

    @cached_property
    def description(self) -> str:
        return f"{type(self).__name__}({self.candidate} | out {_set_repr(self.eliminated)} | t={self.threshold})"


class Viable(_ThresholdAssertion):
    tag = "viable"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.threshold.numerator <= self.threshold.denominator:
            raise ValueError(f"threshold {self.threshold} outside (0, 1]")

    other_points = 0

    @cached_property
    def scale(self) -> int:
        return 2 * self.threshold.numerator

    @cached_property
    def points(self) -> Mapping[str | None, int]:
        return {self.candidate: self.threshold.denominator}


class NonViable(_ThresholdAssertion):
    tag = "nonviable"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.threshold.numerator < self.threshold.denominator:
            raise ValueError(f"non-viability threshold {self.threshold} outside (0, 1)")

    @cached_property
    def scale(self) -> int:
        return 2 * (self.threshold.denominator - self.threshold.numerator)

    @cached_property
    def points(self) -> Mapping[str | None, int]:
        return {self.candidate: 0}

    @cached_property
    def other_points(self) -> int:
        return self.threshold.denominator


@dataclass(frozen=True)
class IrvWins(Assertion):
    winner: str
    loser: str
    eliminated: frozenset[str]

    tag: ClassVar[str] = "irv_wins"
    scale: ClassVar[int] = 2
    other_points: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ValueError("winner and loser must differ")
        if self.winner in self.eliminated or self.loser in self.eliminated:
            raise ValueError("winner/loser cannot be in the elimination set")

    @cached_property
    def points(self) -> Mapping[str | None, int]:
        return {self.winner: 2, self.loser: 0}

    @cached_property
    def key(self) -> str:
        return f"{self.tag}:{self.winner}>{self.loser}:E={','.join(sorted(self.eliminated))}"

    @cached_property
    def description(self) -> str:
        return f"IrvWins({self.winner} > {self.loser} | out {_set_repr(self.eliminated)})"


@dataclass(frozen=True)
class PairwiseDiff(Assertion):
    winner: str
    loser: str
    offset: Fraction
    viable: frozenset[str]

    tag: ClassVar[str] = "pairwise_diff"

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ValueError("winner and loser must differ")
        if self.winner not in self.viable or self.loser not in self.viable:
            raise ValueError("both compared candidates must be in the viable set")
        if not -1 < self.offset < 1:
            raise ValueError(f"offset {self.offset} outside (-1, 1)")

    def removed(self, labels: Collection[str]) -> frozenset[str]:
        return frozenset(labels) - self.viable

    @cached_property
    def scale(self) -> int:
        return 2 * (self.offset.denominator + self.offset.numerator)

    @cached_property
    def points(self) -> Mapping[str | None, int]:
        return {self.winner: 2 * self.other_points, self.loser: 0, None: self.scale // 2}

    @cached_property
    def other_points(self) -> int:
        return self.offset.denominator

    @cached_property
    def key(self) -> str:
        return f"{self.tag}:{self.winner}>{self.loser}:d={self.offset}:V={','.join(sorted(self.viable))}"

    @cached_property
    def description(self) -> str:
        return f"PairwiseDiff({self.winner} > {self.loser} + {self.offset} | viable {_set_repr(self.viable)})"


@dataclass(frozen=True)
class AssorterSummary:
    """Exact assorter statistics over one profile."""

    upper_bound: Fraction
    mean: Fraction
    margin: Fraction


def assorter_value(assertion: Assertion, ranking: "Ranking") -> Fraction:
    """Score one ballot ranking under the assertion's assorter."""
    return Fraction(assertion.ballot_points(ranking), assertion.scale)


def margin(assertion: Assertion, profile: "ElectionProfile") -> AssorterSummary:
    """Exact assorter mean and margin over every cast ballot (blanks included),
    scored one ballot at a time: the reference the tally path is tested against."""
    total = profile.total_ballots
    if total == 0:
        raise ValueError("cannot score an empty profile")
    acc = Fraction(0)
    for ranking, count in profile.rankings.items():
        acc += count * assorter_value(assertion, ranking)
    mean = acc / total
    return AssorterSummary(assertion.upper_bound, mean, 2 * mean - 1)


def describe(assertion: Assertion) -> str:
    """Short human-readable rendering for tables and proof logs."""
    return assertion.description
