"""Fuzz test: the audit commands on the small election with one input broken
end with exit 0, 2, 4 or 5, never with an exception or a runaway: the CVR
CSV under ``audit init``; the manifest, the interpretations CSV and the
audit state JSON under ``audit round``.  A state edit is signed with a
recomputed checksum, so the fuzz reaches the validation of its fields.

Every ``audit round`` case continues one audit of a level-3 spec after an
escalating first round: its clean second round confirms."""
import contextlib
import csv
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import DATA
from hamilton_rla.cli import _state_checksum, main

ELECTION = str(DATA / "election_small.json")
CVRS = DATA / "cvrs_small.csv"

# cells at the edges: labels of the contest and one it does not have,
# malformed rankings, ballot ids drawn and never drawn, header names
CELLS = st.sampled_from(["", " ", "Pat", "Quinn", "Remy", "Zed", "Pat|Quinn", "Pat|Pat", "|", "Pat||Remy",
                         "b001", "b120", "b999", "ballot_id", "ranking", "draw_index", "0", "-1", '"', "﻿"])
CELL = CELLS | st.text(max_size=6)
LINE = st.lists(CELL, max_size=4).map(",".join)
CSV_EDITS = st.tuples(st.sampled_from(["replace", "insert", "delete", "duplicate", "cell"]),
                      st.integers(0, 10**6), st.integers(0, 3), LINE) | st.tuples(
    st.just("bytes"), st.just(0), st.just(0), st.binary(max_size=40))

# values at the edges: counts beyond any audit, risk parameters that make a
# clean draw move nothing, a seed of the wrong type, labels and ballot ids
EDGES = st.sampled_from([0, -1, 1, 2, 10**12, 10**30, 0.0, 0.05, 1.1, 1e14, 1e308, float("inf"), float("nan"),
                         "", "0", "3", "1e-10000000", "Pat", "Pat||Remy", "b001", "b999", "a" * 64])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | EDGES
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _write_papers(path: Path, ballots: list[str], blank_every: int) -> None:
    """Paper readings of the distinct ``ballots``: every ``blank_every``-th
    one read as a blank, the rest as their CVR says."""
    with open(CVRS, newline="", encoding="utf-8") as fh:
        cvrs = {row[0]: row[1] for row in list(csv.reader(fh))[1:]}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ballot_id", "ranking"])
        for i, ballot in enumerate(dict.fromkeys(ballots)):
            writer.writerow([ballot, "" if blank_every and i % blank_every == 0 else cvrs[ballot]])


def _manifest_ballots(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[1] for row in list(csv.reader(fh))[1:]]


@functools.lru_cache(maxsize=None)
def _base() -> dict[str, str]:
    """The audit's files before its second round: the spec, the state after
    an escalating first round, the second round's manifest and its clean
    paper readings."""
    with tempfile.TemporaryDirectory() as directory:
        d = Path(directory)
        spec, state = str(d / "spec.json"), str(d / "state.json")
        audit = ["--spec", spec, "--cvrs", str(CVRS), "--state", state]
        assert _main(["generate", "--election", ELECTION, "--level", "3", "--seed", "3", "--out", spec])[0] == 0
        assert _main(["audit", "init", *audit, "--manifest", str(d / "r1.csv")])[0] == 0
        _write_papers(d / "p1.csv", _manifest_ballots(d / "r1.csv"), blank_every=3)
        code, _ = _main(["audit", "round", *audit, "--manifest", str(d / "r1.csv"),
                         "--interpretations", str(d / "p1.csv"), "--next-manifest", str(d / "r2.csv")])
        assert code == 5
        _write_papers(d / "p2.csv", _manifest_ballots(d / "r2.csv"), blank_every=0)
        return {name: (d / name).read_text(encoding="utf-8") for name in ("spec.json", "state.json", "r2.csv", "p2.csv")}


def _edit_csv(text: str, edit) -> bytes:
    op, line, cell, value = edit
    if op == "bytes":
        return value
    lines = text.splitlines()
    i = line % len(lines)
    if op == "replace":
        lines[i] = value
    elif op == "insert":
        lines.insert(i, value)
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        cells = lines[i].split(",")
        cells[cell % len(cells)] = value
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _check(code: int, err: str) -> None:
    assert code in (0, 2, 4, 5)
    if code == 2:
        assert err.startswith("error: ")


def _second_round(files: dict[str, bytes]) -> tuple[int, str]:
    """``audit round`` on the base files with ``files`` replacing some."""
    with tempfile.TemporaryDirectory() as directory:
        d = Path(directory)
        for name, text in _base().items():
            (d / name).write_bytes(files.get(name, text.encode("utf-8")))
        return _main(["audit", "round", "--spec", str(d / "spec.json"), "--cvrs", str(CVRS),
                      "--state", str(d / "state.json"), "--manifest", str(d / "r2.csv"),
                      "--interpretations", str(d / "p2.csv"), "--next-manifest", str(d / "r3.csv")])


def test_base_audit_confirms_in_its_second_round():
    assert _second_round({}) == (0, "")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edit=CSV_EDITS)
@example(edit=("cell", 1, 1, "Quinn"))
@example(edit=("duplicate", 1, 0, ""))
@example(edit=("replace", 0, 0, "ranking,ballot_id"))
@example(edit=("bytes", 0, 0, b"ballot_id,ranking\n\xff\n"))
def test_audit_init_survives_any_broken_cvr_file(edit):
    with tempfile.TemporaryDirectory() as directory:
        d = Path(directory)
        (d / "spec.json").write_text(_base()["spec.json"], encoding="utf-8")
        (d / "cvrs.csv").write_bytes(_edit_csv(CVRS.read_text(encoding="utf-8"), edit))
        _check(*_main(["audit", "init", "--spec", str(d / "spec.json"), "--cvrs", str(d / "cvrs.csv"),
                       "--manifest", str(d / "r1.csv"), "--state", str(d / "state.json")]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edit=CSV_EDITS)
@example(edit=("delete", 10**6, 0, ""))
@example(edit=("replace", 0, 0, "draw_index"))
@example(edit=("cell", 1, 1, "b999"))
def test_audit_round_survives_any_broken_manifest(edit):
    _check(*_second_round({"r2.csv": _edit_csv(_base()["r2.csv"], edit)}))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edit=CSV_EDITS)
@example(edit=("delete", 1, 0, ""))
@example(edit=("cell", 1, 1, "Pat||Remy"))
@example(edit=("cell", 1, 1, "Zed"))
def test_audit_round_survives_any_broken_interpretations(edit):
    _check(*_second_round({"p2.csv": _edit_csv(_base()["p2.csv"], edit)}))


@st.composite
def state_edits(draw):
    """Where to put an arbitrary value: (place, field, value, remove); a
    field whose drawn value is None is sometimes removed instead."""
    state = json.loads(_base()["state.json"])["state"]
    where = draw(st.sampled_from(["document", "state", "round", "interpretation"]))
    record = {"document": {}, "state": state, "round": state["rounds"][0],
              "interpretation": state["rounds"][0]["interpretations"]}[where]
    field = draw(st.sampled_from(sorted(record)) | st.text(max_size=6)) if record else None
    return where, field, draw(JSON), draw(st.booleans())


def _edit_state(edit) -> bytes:
    where, field, value, remove = edit
    doc = json.loads(_base()["state.json"])
    if where == "document":
        return json.dumps(value).encode("utf-8")
    state = doc["state"]
    record = {"state": state, "round": state["rounds"][0],
              "interpretation": state["rounds"][0]["interpretations"]}[where]
    if remove and value is None:
        record.pop(field, None)
    else:
        record[field] = value
    doc["checksum"] = _state_checksum(state)
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edit=state_edits())
@example(edit=("round", "draws", 10**12, False))
@example(edit=("round", "draws", 1, False))
@example(edit=("state", "gamma", 1e14, False))
@example(edit=("state", "gamma", float("nan"), False))
@example(edit=("state", "alpha", 1e-300, False))
@example(edit=("state", "seed", 10**30, False))
@example(edit=("state", "rounds", [], False))
def test_audit_round_survives_any_broken_state(edit):
    _check(*_second_round({"state.json": _edit_state(edit)}))
