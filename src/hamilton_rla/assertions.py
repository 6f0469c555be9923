"""Audit assertions and their ballot-scoring assorters.

Every assertion is an inequality over ballot proportions.  It is scored by
an *assorter*: a function assigning each ballot a nonnegative rational
bounded by ``upper_bound``.  The assertion holds on a profile exactly when
the assorter's mean over all cast ballots exceeds 1/2, i.e. when the
margin ``2 * mean - 1`` is positive.

Every assorter classes a non-blank ballot by its top choice once the
assertion's eliminated set is removed (``None`` when the ballot exhausts)
and scores it by that class.  Blank ballots score 1/2 under every
assertion.  The four forms:

``Viable(c, E, t)``
    Candidate ``c`` holds more than proportion ``t`` of the valid vote
    once the candidates in ``E`` are eliminated.  Ballots whose top
    remaining choice is ``c`` score ``1/(2t)``; other non-blank ballots
    score 0 (including ballots exhausted after ``E``).

``NonViable(c, E, t)``
    Candidate ``c`` holds less than proportion ``t`` after eliminating
    ``E``.  Non-blank ballots not currently for ``c`` score
    ``1/(2(1-t))`` (exhausted ballots included); ballots for ``c`` score
    0.

``IrvWins(w, l, E)``
    ``w`` out-tallies ``l`` after eliminating ``E``: 1 for ``w``'s pile,
    0 for ``l``'s, 1/2 for everything else.

``PairwiseDiff(m, n, d, V)``
    Among ballots qualified for the viable set ``V`` (top choice within
    ``V`` exists), ``m``'s share beats ``n``'s share by more than ``d``.
    Its classes are the piles with everyone outside ``V`` eliminated:
    ``1/(1+d)`` for class ``m``, 0 for class ``n``, ``1/(2(1+d))`` for a
    vote for another viable candidate, 1/2 for unqualified (exhausted)
    ballots.

Each class below holds everything that differs between the forms; the
functions at the end of the module apply that protocol one ballot at a
time.  All arithmetic is exact (`fractions.Fraction`); convert to float
only for display.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Collection, Mapping

from .tabulation import top_remaining

if TYPE_CHECKING:  # pragma: no cover
    from .model import ElectionProfile, Ranking

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class Assertion:
    """The protocol shared by the four assertion forms.

    Subclasses define ``tag`` (the spec JSON type), ``upper_bound``, the
    per-class ``scores`` with ``other_score`` for every class not named
    there, ``holds`` on integer tallies, and ``key``, ``__str__`` and the
    dict form.
    """

    tag: ClassVar[str]
    eliminated: frozenset[str]
    upper_bound: Fraction
    scores: Mapping[str | None, Fraction]
    other_score: Fraction
    key: str

    def removed(self, labels: Collection[str]) -> frozenset[str]:
        """Candidates treated as eliminated when classing ballots that rank
        only candidates in ``labels``."""
        return self.eliminated

    def holds(self, piles: Mapping[str, int], valid: int) -> bool:
        """Exact margin positivity from the class tallies (the piles of the
        standing candidates after ``removed``) and the valid-ballot count."""
        raise NotImplementedError


def _set_repr(labels: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def _label(data: Mapping, field: str) -> str:
    """A candidate label read from a spec object."""
    value = data[field]
    if not isinstance(value, str):
        raise TypeError(f"{field!r} must be a string, not {value!r}")
    return value


def _label_set(data: Mapping, field: str) -> frozenset[str]:
    """A set of candidate labels read from a spec object's list."""
    value = data[field]
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise TypeError(f"{field!r} must be a list of strings, not {value!r}")
    return frozenset(value)


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

    def __str__(self) -> str:
        return f"{type(self).__name__}({self.candidate} | out {_set_repr(self.eliminated)} | t={self.threshold})"

    def to_dict(self) -> dict:
        return {
            "type": self.tag,
            "winner": self.candidate,
            "eliminated": sorted(self.eliminated),
            "t": str(self.threshold),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Assertion:
        return cls(_label(data, "winner"), _label_set(data, "eliminated"), Fraction(data["t"]))


class Viable(_ThresholdAssertion):
    tag = "viable"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold {self.threshold} outside (0, 1]")

    @cached_property
    def upper_bound(self) -> Fraction:
        return 1 / (2 * self.threshold)

    @cached_property
    def scores(self) -> Mapping[str | None, Fraction]:
        return {self.candidate: self.upper_bound}

    other_score = ZERO

    def holds(self, piles: Mapping[str, int], valid: int) -> bool:
        t = self.threshold
        return piles[self.candidate] * t.denominator > t.numerator * valid


class NonViable(_ThresholdAssertion):
    tag = "nonviable"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.threshold < 1:
            raise ValueError(f"non-viability threshold {self.threshold} outside (0, 1)")

    @cached_property
    def upper_bound(self) -> Fraction:
        return 1 / (2 * (1 - self.threshold))

    @cached_property
    def scores(self) -> Mapping[str | None, Fraction]:
        return {self.candidate: ZERO}

    @cached_property
    def other_score(self) -> Fraction:
        return self.upper_bound

    def holds(self, piles: Mapping[str, int], valid: int) -> bool:
        t = self.threshold
        return piles[self.candidate] * t.denominator < t.numerator * valid


@dataclass(frozen=True)
class IrvWins(Assertion):
    winner: str
    loser: str
    eliminated: frozenset[str]

    tag: ClassVar[str] = "irv_wins"
    upper_bound: ClassVar[Fraction] = ONE
    other_score: ClassVar[Fraction] = HALF

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ValueError("winner and loser must differ")
        if self.winner in self.eliminated or self.loser in self.eliminated:
            raise ValueError("winner/loser cannot be in the elimination set")

    @cached_property
    def scores(self) -> Mapping[str | None, Fraction]:
        return {self.winner: ONE, self.loser: ZERO}

    def holds(self, piles: Mapping[str, int], valid: int) -> bool:
        return piles[self.winner] > piles[self.loser]

    @cached_property
    def key(self) -> str:
        return f"{self.tag}:{self.winner}>{self.loser}:E={','.join(sorted(self.eliminated))}"

    def __str__(self) -> str:
        return f"IrvWins({self.winner} > {self.loser} | out {_set_repr(self.eliminated)})"

    def to_dict(self) -> dict:
        return {
            "type": self.tag,
            "winner": self.winner,
            "loser": self.loser,
            "eliminated": sorted(self.eliminated),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Assertion:
        return cls(_label(data, "winner"), _label(data, "loser"), _label_set(data, "eliminated"))


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
    def upper_bound(self) -> Fraction:
        return 1 / (1 + self.offset)

    @cached_property
    def scores(self) -> Mapping[str | None, Fraction]:
        return {self.winner: self.upper_bound, self.loser: ZERO, None: HALF}

    @cached_property
    def other_score(self) -> Fraction:
        return self.upper_bound / 2

    def holds(self, piles: Mapping[str, int], valid: int) -> bool:
        d = self.offset
        return (piles[self.winner] - piles[self.loser]) * d.denominator > d.numerator * sum(piles.values())

    @cached_property
    def key(self) -> str:
        return f"{self.tag}:{self.winner}>{self.loser}:d={self.offset}:V={','.join(sorted(self.viable))}"

    def __str__(self) -> str:
        return f"PairwiseDiff({self.winner} > {self.loser} + {self.offset} | viable {_set_repr(self.viable)})"

    def to_dict(self) -> dict:
        return {
            "type": self.tag,
            "winner": self.winner,
            "loser": self.loser,
            "d": str(self.offset),
            "viable": sorted(self.viable),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Assertion:
        return cls(_label(data, "winner"), _label(data, "loser"), Fraction(data["d"]), _label_set(data, "viable"))


ASSERTION_TYPES: dict[str, type] = {cls.tag: cls for cls in (Viable, NonViable, IrvWins, PairwiseDiff)}


@dataclass(frozen=True)
class AssorterSummary:
    """Exact assorter statistics over one profile."""

    upper_bound: Fraction
    mean: Fraction
    margin: Fraction


def upper_bound(assertion: Assertion) -> Fraction:
    return assertion.upper_bound


def assorter_value(assertion: Assertion, ranking: "Ranking") -> Fraction:
    """Score one ballot ranking under the assertion's assorter."""
    if not ranking:  # blank for the contest
        return HALF
    top = top_remaining(ranking, assertion.removed(ranking))
    return assertion.scores.get(top, assertion.other_score)


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
    return AssorterSummary(upper_bound(assertion), mean, 2 * mean - 1)


def holds_on(assertion: Assertion, profile: "ElectionProfile") -> bool:
    """True iff the assertion's margin is (exactly) positive on the profile."""
    return margin(assertion, profile).margin > 0


def assertion_key(assertion: Assertion) -> str:
    """Canonical identity string: used for deduplication, ordering and PRNG streams."""
    return assertion.key


def describe(assertion: Assertion) -> str:
    """Short human-readable rendering for tables and proof logs."""
    return str(assertion)
