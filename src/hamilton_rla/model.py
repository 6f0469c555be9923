"""Domain types plus file ingestion and serialization.

Formats:

* Election JSON: ``{"candidates": [...], "threshold": "15/100",
  "delegates": 5, "style": "irv", "ballots": [{"ranking": [...],
  "count": 50000}, ...]}``.  The threshold may be a rational string
  ("3/20"), a plain decimal string ("0.15") or a JSON number.
* Cast-vote-record CSV: header ``ballot_id,ranking``; the ranking cell is
  ``|``-separated candidate labels, empty cell = blank ballot.
* Audit-spec JSON (schema 2): the schema version, level, status and
  ballot count at top level, ``metadata`` (risk parameters and seed), and
  one object per assertion holding the assertion, its exact margin and its
  ``eae``; exact rationals are serialized as ``p/q`` strings so a
  save/load round trip is the identity.  The assorter's upper bound
  follows from the assertion and its mean from the margin, so neither is
  stored.
"""
from __future__ import annotations

import csv
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from .assertions import Assertion
    from .risk import RiskParams

PLURALITY = "plurality"
IRV = "irv"
STYLES = (PLURALITY, IRV)

SPEC_SCHEMA_VERSION = 2

STATUS_COMPLETE = "complete"
STATUS_FULL_COUNT = "requires-full-count"

Ranking = tuple[str, ...]


class ElectionDataError(ValueError):
    """Malformed or inconsistent input data."""


class UnsupportedOutcomeError(RuntimeError):
    """The election has no viable candidate; outside the supported rules."""


@dataclass(frozen=True)
class ElectionProfile:
    """A contest: roster, aggregated ranking counts, threshold, delegates, style.

    Immutable after construction; safe to share.  ``labels`` is the roster
    in order; ``rankings`` maps each distinct ranking (a tuple of labels,
    possibly empty = blank) to its ballot count, in first-seen order.
    ``total_ballots``, ``valid_ballots`` and the root of ``ranking_tree``
    are derived from ``rankings`` once and cached; the tree's inner nodes
    grow as tallies walk down to them, and a node grown twice comes out
    the same, so sharing stays safe.
    """

    labels: tuple[str, ...]
    rankings: Mapping[Ranking, int]
    threshold: Fraction
    delegates: int
    style: str

    @cached_property
    def total_ballots(self) -> int:
        return sum(self.rankings.values())

    @cached_property
    def valid_ballots(self) -> int:
        """Ballots with at least one choice in the contest."""
        return sum(n for r, n in self.rankings.items() if r)

    @cached_property
    def ranking_tree(self) -> list:
        """The root of the non-blank rankings' prefix tree.

        A node is a list ``[through, ended, children, pending]``: the
        ballots whose ranking passes through the node, the ballots whose
        ranking ends at it, a dict from label to child node, and the
        ``(ranking, count)`` pairs through it.  A node is *pending* until
        a tally first walks down it (``tabulation.count_piles``): until
        then ``ended`` is 0 and ``children`` None; afterwards ``pending``
        is None.  The root is the empty prefix; blank rankings are left
        out of the tree.
        """
        return [self.valid_ballots, 0, None, [(r, n) for r, n in self.rankings.items() if r]]


@dataclass(frozen=True)
class Round:
    """One counting round: pile sizes for standing candidates, exhausted count,
    and the candidate removed after the count (None in the final round)."""

    piles: Mapping[str, int]
    exhausted: int
    eliminated: str | None


@dataclass(frozen=True)
class ReportedOutcome:
    """The full reported result: viable set, elimination order, tallies and
    the largest-remainder delegate allocation."""

    style: str
    threshold: Fraction
    delegates: int
    total_ballots: int
    valid_ballots: int
    viable: frozenset[str]
    elimination_order: tuple[str, ...]
    rounds: tuple[Round, ...]
    final_tally: Mapping[str, int]
    qualified_total: int
    proportions: Mapping[str, Fraction]
    quotas: Mapping[str, Fraction]
    floors: Mapping[str, int]
    leftover: int
    allocation: Mapping[str, int]
    remainder_rank: tuple[str, ...]
    tie_flag: bool
    viability_tie_warning: bool


@dataclass(frozen=True)
class SpecEntry:
    """One assertion with its exact assorter margin and estimated effort.

    ``eae`` is an integer expected sample size, or ``math.inf`` when the
    assertion cannot be confirmed short of a full count.
    """

    assertion: Assertion
    margin: Fraction
    eae: float


@dataclass(frozen=True)
class AuditSpec:
    entries: tuple[SpecEntry, ...]
    level: int
    status: str
    total_ballots: int
    params: RiskParams


# A rational string ("3/20") or a plain decimal one ("0.15"), never an
# exponent: Fraction expands "1e-10000000" digit by digit, for seconds.
_PROPORTION = re.compile(r"[-+]?(?:[0-9]+/[0-9]+|[0-9]*\.?[0-9]+)")


def parse_proportion(value: object) -> Fraction:
    """Parse a threshold/ratio given as "3/20", "0.15", or a JSON number."""
    try:
        if isinstance(value, bool):
            raise ValueError("boolean is not a proportion")
        if isinstance(value, str):
            text = value.strip()
            if not _PROPORTION.fullmatch(text):
                raise ValueError("expected a rational p/q or a plain decimal")
            return Fraction(text)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ElectionDataError(f"bad proportion {value!r}: {exc}") from None
    raise ElectionDataError(f"bad proportion {value!r}")


def build_profile(
    candidates: Sequence[str],
    ballots: Iterable[tuple[Sequence[str], int]],
    threshold: Fraction | str | float,
    delegates: int,
    style: str,
) -> ElectionProfile:
    """Validate and aggregate raw ballot data into a profile.

    Duplicate rankings are merged; validation is total — any malformed
    entry raises ElectionDataError naming the offender.  The roster,
    style, threshold and delegate count are checked before the first
    ballot is read.  A ranking passes when its choices are distinct roster
    labels, which two set checks decide; only a ranking that fails them
    (or holds an unhashable choice) is walked choice by choice to name its
    first unknown or repeated one.
    """
    labels = list(candidates)
    if not labels:
        raise ElectionDataError("candidate roster is empty")
    if len(set(labels)) != len(labels):
        raise ElectionDataError("duplicate candidate label in roster")
    for label in labels:
        # a CVR ranking cell splits on "|" and strips each label (parse_ranking_cell)
        if not isinstance(label, str) or not label or label != label.strip() or "|" in label:
            raise ElectionDataError(
                f"candidate label {label!r} cannot be written in a CVR ranking cell: a label must be "
                "a non-empty string without '|' and without leading or trailing whitespace"
            )
    if style not in STYLES:
        raise ElectionDataError(f"unknown style {style!r} (expected one of {STYLES})")
    tau = threshold if isinstance(threshold, Fraction) else parse_proportion(threshold)
    if not 0 < tau <= 1:
        raise ElectionDataError(f"threshold {tau} outside (0, 1]")
    if not isinstance(delegates, int) or isinstance(delegates, bool) or delegates < 1:
        raise ElectionDataError(f"delegate count {delegates!r} must be a positive integer")
    if delegates > sys.float_info.max:  # a quota is reported as a float too
        raise ElectionDataError(f"delegate count exceeds {sys.float_info.max:.4g}, the largest quota a float holds")

    roster = frozenset(labels)
    merged: dict[Ranking, int] = {}
    for ranking, count in ballots:
        if isinstance(count, bool) or not isinstance(count, int):
            raise ElectionDataError(f"non-integer ballot count {count!r}")
        if count < 0:
            raise ElectionDataError(f"negative ballot count {count}")
        prefs = tuple(ranking)
        try:
            valid = roster.issuperset(prefs) and len(set(prefs)) == len(prefs)
        except TypeError:  # an unhashable choice
            valid = False
        if not valid:  # name the first offender
            seen: set[str] = set()
            for choice in prefs:
                if not isinstance(choice, str) or choice not in roster:
                    raise ElectionDataError(f"unknown candidate {choice!r} in ranking {list(prefs)}")
                if choice in seen:
                    raise ElectionDataError(f"candidate {choice!r} repeated in ranking {list(prefs)}")
                seen.add(choice)
        if style == PLURALITY and len(prefs) > 1:
            raise ElectionDataError(
                f"plurality contest cannot rank more than one candidate: {list(prefs)}"
            )
        if count == 0:
            continue
        merged[prefs] = merged.get(prefs, 0) + count

    return ElectionProfile(tuple(labels), merged, tau, delegates, style)


@contextmanager
def open_input(path: str | Path, what: str) -> Iterator[TextIO]:
    """An input file open for reading as UTF-8, line endings untouched (as
    the csv module needs).  A file that cannot be opened, read, decoded or
    parsed as CSV in the ``with`` block becomes an ElectionDataError naming
    ``what`` and ``path``; ``load_json`` does the same for JSON."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ElectionDataError(f"cannot read {what} {path}: {exc}") from None


def load_json(path: str | Path, what: str) -> object:
    """A JSON document read through ``open_input``.  Malformed JSON and an
    integer literal longer than ``int`` parses (4,300 digits) are read
    errors too."""
    with open_input(path, what) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ElectionDataError(f"cannot read {what} {path}: {exc}") from None


def load_election(path: str | Path) -> ElectionProfile:
    """Load and validate an election JSON file.

    The ballot entries go to ``build_profile`` one at a time as they are
    checked, so the first fault reported is the first that validation
    meets: the roster, style, threshold and delegate count, then the
    entries in file order, each entry's shape before its count and labels.
    """
    raw = load_json(path, "election file")
    if not isinstance(raw, dict):
        raise ElectionDataError(f"election file {path} must hold a JSON object")
    for field in ("candidates", "threshold", "delegates", "style", "ballots"):
        if field not in raw:
            raise ElectionDataError(f"election file missing {field!r}")
    candidates = raw["candidates"]
    if not isinstance(candidates, list) or not all(isinstance(label, str) for label in candidates):
        raise ElectionDataError("'candidates' must be a list of strings")
    if not isinstance(raw["ballots"], list):
        raise ElectionDataError("'ballots' must be a list of objects")

    def ballots() -> Iterator[tuple[list, object]]:
        for i, entry in enumerate(raw["ballots"]):
            if not isinstance(entry, dict) or "ranking" not in entry or "count" not in entry:
                raise ElectionDataError(f"ballot entry {i} must have 'ranking' and 'count'")
            ranking = entry["ranking"]
            if not isinstance(ranking, list):  # build_profile checks the labels
                raise ElectionDataError(f"ballot entry {i}: 'ranking' must be a list of strings")
            yield ranking, entry["count"]

    return build_profile(candidates, ballots(), raw["threshold"], raw["delegates"], raw["style"])


def load_cvrs(path: str | Path) -> dict[str, Ranking]:
    """Load a cast-vote-record CSV (header ``ballot_id,ranking``) as each
    ballot's ranking keyed by its id, in file order.

    Each distinct ranking cell is parsed once and its tuple shared by every
    ballot that repeats it; a malformed cell is reported at the line of its
    first occurrence.
    """
    cvrs: dict[str, Ranking] = {}
    rankings: dict[str, Ranking] = {}
    with open_input(path, "CVR file") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header[:2]] != ["ballot_id", "ranking"]:
            raise ElectionDataError(f"CVR file {path} must start with header 'ballot_id,ranking'")
        for row in reader:
            if not row:  # a blank line
                continue
            ballot_id = row[0].strip()
            if not ballot_id:
                raise ElectionDataError(f"{path}:{reader.line_num}: empty ballot_id")
            if ballot_id in cvrs:
                raise ElectionDataError(f"{path}:{reader.line_num}: duplicate ballot_id {ballot_id!r}")
            cell = row[1] if len(row) > 1 else ""
            ranking = rankings.get(cell)
            if ranking is None:
                ranking = rankings[cell] = parse_ranking_cell(cell, f"{path}:{reader.line_num}")
            cvrs[ballot_id] = ranking
    return cvrs


def parse_ranking_cell(cell: str, where: str = "ranking") -> Ranking:
    """Parse a ``|``-separated ranking cell; empty cell means a blank ballot."""
    cell = cell.strip()
    if not cell:
        return ()
    parts = [p.strip() for p in cell.split("|")]
    if any(not p for p in parts):
        raise ElectionDataError(f"{where}: malformed ranking cell {cell!r}")
    if len(set(parts)) != len(parts):
        raise ElectionDataError(f"{where}: candidate repeated in ranking cell {cell!r}")
    return tuple(parts)


# ---------------------------------------------------------------------------
# Audit-spec serialization

def assertion_from_dict(data: dict) -> Assertion:
    # imported here: assertions imports tabulation, which imports this module
    from .assertions import ASSERTION_TYPES

    try:
        cls = ASSERTION_TYPES.get(data["type"])
        if cls is not None:
            return cls.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ElectionDataError(f"bad assertion object {data!r}: {exc}") from None
    raise ElectionDataError(f"unknown assertion type tag {data.get('type')!r}")


def _eae_to_json(eae: float) -> int | None:
    return None if math.isinf(eae) else int(eae)


def _is_int(value: object) -> bool:
    return type(value) is int  # not bool


def _is_count(value: object) -> bool:
    return _is_int(value) and value >= 0  # type: ignore[operator]


def _checked(record: dict, name: str, kind: str, valid) -> object:
    """``record[name]``, which must pass ``valid`` (a spec is never coerced)."""
    value = record[name]
    if not valid(value):
        raise ElectionDataError(f"{name!r} must be {kind}, not {value!r}")
    return value


def _eae_from_json(record: dict) -> float:
    value = _checked(record, "eae", "a nonnegative integer or null", lambda v: v is None or _is_count(v))
    return math.inf if value is None else value


def audit_spec_to_dict(spec: AuditSpec) -> dict:
    return {
        "schema_version": SPEC_SCHEMA_VERSION,
        "level": spec.level,
        "status": spec.status,
        "total_ballots": spec.total_ballots,
        "metadata": {
            "alpha": spec.params.alpha,
            "gamma": spec.params.gamma,
            "error_rate": spec.params.error_rate,
            "trials": spec.params.trials,
            "seed": spec.params.seed,
        },
        "assertions": [
            dict(e.assertion.to_dict(), margin=str(e.margin), eae=_eae_to_json(e.eae))
            for e in spec.entries
        ],
    }


def audit_spec_from_dict(data: dict) -> AuditSpec:
    from .assertions import _rational  # see assertion_from_dict
    from .risk import RiskParams

    if not isinstance(data, dict):
        raise ElectionDataError("audit spec must be a JSON object")
    version = data.get("schema_version")
    if version != SPEC_SCHEMA_VERSION:
        raise ElectionDataError(
            f"audit spec schema version {version!r} unsupported (expected {SPEC_SCHEMA_VERSION})"
        )
    meta = data.get("metadata", {})
    try:
        params = RiskParams(
            alpha=meta["alpha"],
            gamma=meta["gamma"],
            error_rate=meta["error_rate"],
            trials=_checked(meta, "trials", "a positive integer", lambda v: _is_int(v) and v >= 1),
            seed=_checked(meta, "seed", "an integer", _is_int),
        )
        entries = tuple(
            SpecEntry(assertion_from_dict(obj), _rational(obj, "margin"), _eae_from_json(obj))
            for obj in data["assertions"]
        )
        return AuditSpec(
            entries=entries,
            level=_checked(data, "level", "1, 2 or 3", lambda v: _is_int(v) and v in (1, 2, 3)),
            status=_checked(data, "status", f"{STATUS_COMPLETE!r} or {STATUS_FULL_COUNT!r}",
                            lambda v: v in (STATUS_COMPLETE, STATUS_FULL_COUNT)),
            total_ballots=_checked(data, "total_ballots", "a nonnegative integer", _is_count),
            params=params,
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ElectionDataError(f"bad audit spec: {exc}") from None


def save_audit_spec(spec: AuditSpec, path: str | Path) -> dict:
    """Write the spec as canonical JSON; returns the dict written."""
    payload = audit_spec_to_dict(spec)
    write_json(payload, path)
    return payload


def load_audit_spec(path: str | Path) -> AuditSpec:
    return audit_spec_from_dict(load_json(path, "audit spec"))


# ---------------------------------------------------------------------------
# Outcome serialization

def outcome_to_dict(outcome: ReportedOutcome) -> dict:
    return {
        "style": outcome.style,
        "threshold": str(outcome.threshold),
        "delegates": outcome.delegates,
        "total_ballots": outcome.total_ballots,
        "valid_ballots": outcome.valid_ballots,
        "viable": sorted(outcome.viable),
        "elimination_order": list(outcome.elimination_order),
        "rounds": [
            {
                "piles": dict(r.piles),
                "exhausted": r.exhausted,
                "eliminated": r.eliminated,
            }
            for r in outcome.rounds
        ],
        "final_tally": dict(outcome.final_tally),
        "qualified_total": outcome.qualified_total,
        "proportions": {c: str(p) for c, p in outcome.proportions.items()},
        "quotas": {c: {"exact": str(q), "value": float(q)} for c, q in outcome.quotas.items()},
        "floors": dict(outcome.floors),
        "leftover": outcome.leftover,
        "allocation": dict(outcome.allocation),
        "remainder_rank": list(outcome.remainder_rank),
        "tie_flag": outcome.tie_flag,
        "viability_tie_warning": outcome.viability_tie_warning,
    }


def canonical_json(payload: dict) -> str:
    """Deterministic rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(canonical_json(payload), encoding="utf-8")

