"""Domain types plus file ingestion and serialization.

This module alone writes and reads the audit spec's JSON: its layout,
each assertion form's spec object (one field table, ``_FIELDS``, that
``assertion_to_dict`` writes and ``assertion_from_dict`` reads) and the
risk parameters the spec records (``RiskParams``).  So too the audit
state's (one field table, ``_STATE_FIELDS``).

Formats:

* Election JSON: ``{"candidates": [...], "threshold": "15/100",
  "delegates": 5, "style": "irv", "ballots": [{"ranking": [...],
  "count": 50000}, ...]}``.  The threshold may be a rational string
  ("3/20"), a plain decimal string ("0.15") or a JSON number.
* Cast-vote-record CSV: header ``ballot_id,ranking``; the ranking cell is
  ``|``-separated candidate labels, empty cell = blank ballot.
* Audit-spec JSON (schema 3, ``SPEC_SCHEMA_VERSION``): the schema
  version, level, status and ballot count at top level, ``metadata``
  (``alpha``, ``gamma``, ``error_rate`` and the sampling seed), and
  one object per assertion holding the assertion's ``type`` tag and
  fields, its exact margin and its ``eae``; exact rationals are
  serialized as ``p/q`` strings so a save/load round trip is the
  identity.  The assorter's upper bound follows from the assertion and
  its mean from the margin, so neither is stored.
* Audit-state JSON (schema 3, ``STATE_SCHEMA_VERSION``): the state and
  its ``checksum``.  The state is the audit's evidence (seed, the spec's
  ``alpha`` and ``gamma``, the SHA-256 of the spec and CVR file, and per
  round its draw count and paper cells) plus a summary never read back:
  ``total_draws`` and the last round's ``assertions`` report.

Every JSON document written (specs, outcomes, audit states, reports) has
one canonical layout: sorted keys, two-space indent, non-ASCII escaped and
a trailing newline, the bytes of ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"`` (see ``canonical_json``).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .assertions import Assertion, IrvWins, NonViable, PairwiseDiff, Viable

PLURALITY = "plurality"
IRV = "irv"
STYLES = (PLURALITY, IRV)

SPEC_SCHEMA_VERSION = 3
STATE_SCHEMA_VERSION = 3

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
        """Ballots with at least one choice in the contest: all but the
        blank ones, whose ranking ``()`` is at most one key."""
        return self.total_ballots - self.rankings.get((), 0)

    @cached_property
    def ranking_tree(self) -> list:
        """The root of the non-blank rankings' prefix tree.

        A node is a list ``[through, ended, children, pending]``: the
        ballots whose ranking passes through the node, the ballots whose
        ranking ends at it, a dict from label to child node, and the
        ``(ranking, count)`` pairs through it.  A node is *pending* until
        a tally first walks down it (``tabulation._descend``, the walk of
        ``count_piles`` and of the search's transfers): until then
        ``ended`` is 0 and ``children`` None; afterwards ``pending`` is
        None.  The root is the empty prefix; blank rankings are left
        out of the tree: the root's pairs are the rankings' items, copied
        in one C-level pass, less the one blank pair if there is one.
        """
        pending = list(self.rankings.items())
        if () in self.rankings:
            pending.remove(((), self.rankings[()]))
        return [self.valid_ballots, 0, None, pending]


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
class RiskParams:
    alpha: float = 0.05
    gamma: float = 1.1
    error_rate: float = 0.002
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        if not 1 < self.gamma < math.inf:  # NaN too: every comparison with it fails
            raise ValueError(f"gamma {self.gamma} must be a finite number above 1")
        if not 0 <= self.error_rate < 1:
            raise ValueError(f"error rate {self.error_rate} outside [0, 1)")


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
    ballot is read (``_check_header``); then the entries are checked and
    merged one at a time, in order (``_merge_entries``).
    """
    labels, tau = _check_header(candidates, threshold, delegates, style)
    return ElectionProfile(labels, _merge_entries(frozenset(labels), ballots, style), tau, delegates, style)


def _check_header(
    candidates: Sequence[str], threshold: Fraction | str | float, delegates: int, style: str
) -> tuple[tuple[str, ...], Fraction]:
    """The roster and the threshold as a profile holds them, after the
    roster, style, threshold and delegate count pass their checks."""
    labels = tuple(candidates)
    if not labels:
        raise ElectionDataError("candidate roster is empty")
    for label in labels:  # first, so that the duplicate check hashes only strings
        # a CVR ranking cell splits on "|" and strips each label (parse_ranking_cell)
        if not isinstance(label, str) or not label or label != label.strip() or "|" in label:
            raise ElectionDataError(
                f"candidate label {label!r} cannot be written in a CVR ranking cell: a label must be "
                "a non-empty string without '|' and without leading or trailing whitespace"
            )
    if len(set(labels)) != len(labels):
        raise ElectionDataError("duplicate candidate label in roster")
    _check_style(style)
    tau = threshold if isinstance(threshold, Fraction) else parse_proportion(threshold)
    if not 0 < tau <= 1:
        raise ElectionDataError(f"threshold {tau} outside (0, 1]")
    if not isinstance(delegates, int) or isinstance(delegates, bool) or delegates < 1:
        raise ElectionDataError(f"delegate count {delegates!r} must be a positive integer")
    if delegates > sys.float_info.max:  # a quota is reported as a float too
        raise ElectionDataError(f"delegate count exceeds {sys.float_info.max:.4g}, the largest quota a float holds")
    return labels, tau


def _check_style(style: str) -> None:
    """Refuse a style other than plurality or instant runoff."""
    if style not in STYLES:
        raise ElectionDataError(f"unknown style {style!r} (expected one of {STYLES})")


def _merge_entries(
    roster: frozenset[str], ballots: Iterable[tuple[Sequence[str], int]], style: str
) -> dict[Ranking, int]:
    """Check each ``(ranking, count)`` entry in order and sum the counts
    of equal rankings, raising at the first fault: the entry's shape (a
    pair whose ranking is a list or tuple), the count's type, then its
    sign, then the labels, then a plurality ranking's length.  A ranking
    passes when its choices are distinct roster labels, which two set
    checks decide; only a ranking that fails them (or holds an unhashable
    choice) is walked choice by choice to name its first unknown or
    repeated one."""
    merged: dict[Ranking, int] = {}
    for entry in ballots:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise ElectionDataError(f"ballot entry {entry!r} must be a (ranking, count) pair")
        ranking, count = entry
        if not isinstance(ranking, (tuple, list)):
            raise ElectionDataError(f"ranking {ranking!r} must be a list or tuple of candidate labels")
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
    return merged


def _merge_in_bulk(roster: frozenset[str], entries: list, style: str) -> dict[Ranking, int] | None:
    """``_merge_entries`` of a file's ballot entries, checked by whole-list
    operations that run in C instead of entry by entry; None when any check
    fails, so that the entries are walked one at a time to name the first
    fault.  Every entry must be a dict with a list ``ranking`` and a
    ``count`` of exactly type int (bool is not a count), no count may be
    negative, every choice must be a roster label (an unhashable choice
    fails too), no ranking may repeat a label, and a plurality ranking
    holds at most one."""
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        rankings = list(map(itemgetter("ranking"), entries))
        counts = list(map(itemgetter("count"), entries))
    except KeyError:
        return None
    if not (set(map(type, rankings)) <= {list} and set(map(type, counts)) <= {int}):
        return None
    least = min(counts, default=1)
    if least < 0:
        return None
    keys = list(map(tuple, rankings))
    try:
        if not roster.issuperset(chain.from_iterable(keys)):
            return None
    except TypeError:  # an unhashable choice
        return None
    lengths = list(map(len, keys))
    if lengths != list(map(len, map(set, keys))):
        return None
    if style == PLURALITY and max(lengths, default=0) > 1:
        return None
    merged = dict(zip(keys, counts))
    if least == 0 or len(merged) < len(keys):  # drop zero counts and sum repeated rankings
        merged = {}
        for key, count in zip(keys, counts):
            if count:
                merged[key] = merged.get(key, 0) + count
    return merged


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
    """A JSON document read through ``open_input``.  Malformed JSON, an
    integer literal longer than ``int`` parses (4,300 digits) and nesting
    deeper than the parser's recursion limit are read errors too."""
    with open_input(path, what) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ElectionDataError(f"cannot read {what} {path}: {exc}") from None


def load_election(path: str | Path) -> ElectionProfile:
    """Load and validate an election JSON file.

    The first fault reported is the first that validation meets: the
    roster, style, threshold and delegate count, then the ballot entries
    in file order, each entry's shape before its count and labels.  The
    entries are first checked and merged in bulk (``_merge_in_bulk``);
    only when that finds a fault are they walked one at a time
    (``_merge_entries``), which stops at the first faulty entry and names
    it.
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
    entries = raw["ballots"]
    if not isinstance(entries, list):
        raise ElectionDataError("'ballots' must be a list of objects")
    delegates, style = raw["delegates"], raw["style"]
    labels, tau = _check_header(candidates, raw["threshold"], delegates, style)
    roster = frozenset(labels)

    def ballots() -> Iterator[tuple[list, object]]:
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "ranking" not in entry or "count" not in entry:
                raise ElectionDataError(f"ballot entry {i} must have 'ranking' and 'count'")
            ranking = entry["ranking"]
            if not isinstance(ranking, list):  # _merge_entries checks the labels
                raise ElectionDataError(f"ballot entry {i}: 'ranking' must be a list of strings")
            yield ranking, entry["count"]

    merged = _merge_in_bulk(roster, entries, style)
    if merged is None:
        merged = _merge_entries(roster, ballots(), style)
    return ElectionProfile(labels, merged, tau, delegates, style)


def load_cvrs(path: str | Path, cells: dict[str, Ranking] | None = None) -> dict[str, Ranking]:
    """Load a cast-vote-record CSV (header ``ballot_id,ranking``) as each
    ballot's ranking keyed by its id, in file order.

    Each distinct ranking cell is parsed once and its tuple shared by every
    ballot that repeats it, in every file read with the same ``cells``
    (``parse_ranking_cell``); a malformed cell is reported at the line of
    its first occurrence.
    """
    cvrs: dict[str, Ranking] = {}
    if cells is None:
        cells = {}
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
            ranking = cells.get(cell)  # most rows repeat a parsed cell: found without a call
            if ranking is None:
                ranking = parse_ranking_cell(cell, f"{path}:{reader.line_num}", cells)
            cvrs[ballot_id] = ranking
    return cvrs


def parse_ranking_cell(cell: str, where: str = "ranking", cells: dict[str, Ranking] | None = None) -> Ranking:
    """Parse a ``|``-separated ranking cell; empty cell means a blank ballot.

    ``cells`` caches the cells parsed so far: one found there is not parsed
    again, and a new one that parses is stored there."""
    if cells is not None and cell in cells:
        return cells[cell]
    text = cell.strip()
    ranking = tuple(p.strip() for p in text.split("|")) if text else ()
    if not all(ranking):
        raise ElectionDataError(f"{where}: malformed ranking cell {text!r}")
    if len(set(ranking)) != len(ranking):
        raise ElectionDataError(f"{where}: candidate repeated in ranking cell {text!r}")
    if cells is not None:
        cells[cell] = ranking
    return ranking


# ---------------------------------------------------------------------------
# Audit-spec serialization

def _label(data: Mapping, field: str) -> str:
    """A candidate label read from a spec object."""
    value = data[field]
    if not isinstance(value, str):
        raise TypeError(f"{field!r} must be a string, not {value!r}")
    return value


# The forms str(Fraction) writes: "p/q", or "p" for an integer.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational(data: Mapping, field: str) -> Fraction:
    """An exact rational read from a spec object's string, such as "3/20"."""
    value = data[field]
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field!r} must be a string holding a finite rational p/q, not {value!r}")


def _label_set(data: Mapping, field: str) -> frozenset[str]:
    """A set of candidate labels read from a spec object's list."""
    value = data[field]
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise TypeError(f"{field!r} must be a list of strings, not {value!r}")
    return frozenset(value)


# How each reader's value is written: a label as itself, a label set as a
# sorted list and a rational as its "p/q" string.
_WRITERS: dict[Callable, Callable] = {_label: str, _label_set: sorted, _rational: str}

# Each assertion form's JSON fields besides "type", in constructor order:
# the field, the attribute it holds and its reader.
_FIELDS: dict[type, tuple[tuple[str, str, Callable], ...]] = {
    Viable: (("winner", "candidate", _label), ("eliminated", "eliminated", _label_set), ("t", "threshold", _rational)),
    IrvWins: (("winner", "winner", _label), ("loser", "loser", _label), ("eliminated", "eliminated", _label_set)),
    PairwiseDiff: (
        ("winner", "winner", _label), ("loser", "loser", _label), ("d", "offset", _rational),
        ("viable", "viable", _label_set),
    ),
}
_FIELDS[NonViable] = _FIELDS[Viable]

_FORMS = {cls.tag: cls for cls in _FIELDS}


def assertion_to_dict(assertion: Assertion) -> dict:
    """An assertion's spec object: its form's ``type`` tag and its fields."""
    data = {"type": assertion.tag}
    for field, attr, read in _FIELDS[type(assertion)]:
        data[field] = _WRITERS[read](getattr(assertion, attr))
    return data


def assertion_from_dict(data: dict) -> Assertion:
    """The assertion a spec object holds, its fields read and checked in
    order, so that the first faulty field is the one named."""
    try:
        cls = _FORMS.get(data["type"])
        if cls is not None:
            return cls(*[read(data, field) for field, _, read in _FIELDS[cls]])
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
            "seed": spec.params.seed,
        },
        "assertions": [
            dict(assertion_to_dict(e.assertion), margin=str(e.margin), eae=_eae_to_json(e.eae))
            for e in spec.entries
        ],
    }


def audit_spec_from_dict(data: dict) -> AuditSpec:
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
# Audit-state serialization

def state_checksum(state: dict) -> str:
    """The SHA-256 of the state's compact sorted-key JSON, stored beside it."""
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def new_audit_state(seed: int, params: RiskParams, spec_sha256: str, cvrs_sha256: str) -> dict:
    """The evidence of an audit that has drawn its first manifest and scored no round."""
    return {"schema_version": STATE_SCHEMA_VERSION, "seed": seed, "alpha": params.alpha, "gamma": params.gamma,
            "spec_sha256": spec_sha256, "cvrs_sha256": cvrs_sha256, "rounds": []}


def state_round(draws: Sequence[str], papers: Mapping[str, Ranking]) -> dict:
    """A round's record: its draw count and the paper cell of each ballot drawn."""
    return {"draws": len(draws), "interpretations": {b: "|".join(papers[b]) for b in draws}}


def save_audit_state(state: dict, path: str | Path, assertions: dict) -> None:
    """Write the state with its checksum and its summary: the draw count and ``assertions``."""
    state = dict(state, total_draws=sum(rnd["draws"] for rnd in state["rounds"]), assertions=assertions)
    write_json({"checksum": state_checksum(state), "state": state}, path)


def _is_round(rnd: object) -> bool:
    if type(rnd) is not dict:
        return False
    draws, cells = rnd.get("draws"), rnd.get("interpretations")
    return _is_int(draws) and draws > 0 and type(cells) is dict and all(type(c) is str for c in cells.values())


_DIGEST = ("a SHA-256 hex digest", lambda v: type(v) is str and len(v) == 64)
# What each state field an audit round reads must be (alpha and gamma: the spec's, which the caller checks).
_STATE_FIELDS = {
    "schema_version": (str(STATE_SCHEMA_VERSION), lambda v: _is_int(v) and v == STATE_SCHEMA_VERSION),
    "seed": ("an integer", _is_int),
    "spec_sha256": _DIGEST,
    "cvrs_sha256": _DIGEST,
    "rounds": ("a list of {draws: n > 0, interpretations: {ballot: cell}}",
               lambda v: type(v) is list and all(map(_is_round, v))),
}


def load_audit_state(path: str | Path) -> dict:
    """The state in ``path``, checksum and ``_STATE_FIELDS`` checked."""
    document = load_json(path, "audit state")
    if not isinstance(document, dict):
        raise ElectionDataError(f"audit state {path} must hold a JSON object")
    state = document.get("state")
    if not isinstance(state, dict) or document.get("checksum") != state_checksum(state):
        raise ElectionDataError(f"audit state {path} is missing or tampered (checksum mismatch)")
    for name, (kind, valid) in _STATE_FIELDS.items():
        if not valid(state.get(name)):
            raise ElectionDataError(f"audit state {path}: {name!r} must be {kind}")
    return state


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


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# Each JSON scalar's encoder, by exact type, as json.dumps writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _append(value: object, out: list[str], indent: str) -> None:
    """Append ``value``'s canonical JSON to ``out``; ``indent`` is the newline
    and spaces that start the line ``value`` begins on.  Scalar members are
    encoded in the loops, from ``_SCALARS``, without a call of their own."""
    encode = _SCALARS.get(type(value))
    if encode is not None:
        out.append(encode(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            encode = _SCALARS.get(type(item))
            if encode is not None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {encode(item)}")
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _append(item, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            encode = _SCALARS.get(type(item))
            if encode is not None:
                out.append(sep + encode(item))
            else:
                out.append(sep)
                _append(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(payload: dict) -> str:
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    built into one list and joined once (with ``indent`` set, json.dumps
    runs its pure-Python encoder).  Keys must be ``str``, containers
    ``dict``, ``list`` or ``tuple``, and scalars exactly ``str``, ``int``,
    ``float``, ``bool`` or ``None``; anything else raises ``TypeError``."""
    out: list[str] = []
    _append(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def write_json(payload: dict, path: str | Path) -> None:
    """Write ``canonical_json(payload)`` to ``path`` atomically: into a
    temporary file beside it, which is then renamed onto it, so a failed or
    interrupted write leaves the old file whole.  The temporary file is
    opened as a plain write opens a new file, so it gets the same mode."""
    path = Path(path)
    text = canonical_json(payload)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:  # gone after the rename; left by a failed or interrupted write
        with suppress(OSError):
            temp.unlink()

