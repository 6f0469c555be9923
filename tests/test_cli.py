import errno
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from conftest import DATA, TEN_STRENGTHS, count_pairs, cyclic_contest, km_step, random_irv_profile, save_election
from hamilton_rla import build_profile, cli, load_audit_spec, load_cvrs, read_manifest, risk, viability
from hamilton_rla.assertions import describe
from hamilton_rla.cli import _state_checksum, main
from hamilton_rla.risk import RiskState, discrepancy, sample_stream, write_manifest

PLURALITY = str(DATA / "election_plurality.json")
IRV = str(DATA / "election_irv.json")
SMALL = str(DATA / "election_small.json")
SMALL_CVRS = str(DATA / "cvrs_small.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tabulate_plurality(capsys, tmp_path):
    out_file = tmp_path / "outcome.json"
    code, out, _ = run(
        capsys, "--format", "json", "tabulate", "--election", PLURALITY, "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["viable"] == ["Ann", "Bob"]
    assert payload["allocation"] == {"Ann": 4, "Bob": 1}
    assert payload["delegates"] == 5
    assert json.loads(out_file.read_text()) == payload


def test_tabulate_irv_elimination_order(capsys):
    code, out, _ = run(capsys, "--format", "json", "tabulate", "--election", IRV)
    assert code == 0
    payload = json.loads(out)
    assert payload["elimination_order"] == ["Cal", "Dee"]
    assert len(payload["rounds"]) == 3


def test_tabulate_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "tabulate", "--election", "/nonexistent.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "style, threshold, ballots, message",
    [
        ("plurality", "1/2", [([], 5)], "no valid votes were cast in the contest"),
        ("irv", "1/2", [([], 5)], "no valid votes were cast in the contest"),
        (
            "plurality",
            "1/2",
            [(["A"], 34), (["B"], 33), (["C"], 33)],
            "no candidate reaches the viability threshold; alternate rules apply",
        ),
        (
            "irv",
            "2/5",
            [(["A"], 34), (["B"], 33), (["C"], 33)],
            "every candidate was eliminated before reaching the viability threshold",
        ),
    ],
    ids=["plurality-blank", "irv-blank", "plurality-none-viable", "irv-all-eliminated"],
)
def test_tabulate_unsupported_outcome_exit_3(capsys, tmp_path, style, threshold, ballots, message):
    election = tmp_path / "election.json"
    save_election(build_profile(["A", "B", "C"], ballots, threshold, 3, style), election)
    code, out, err = run(capsys, "tabulate", "--election", str(election))
    assert (code, out, err) == (3, "", f"unsupported outcome: {message}\n")


WELL_TYPED = {
    "candidates": ["A", "B", "C"],
    "threshold": "1/4",
    "delegates": 3,
    "style": "irv",
    "ballots": [{"ranking": ["A"], "count": 7}, {"ranking": ["B", "C"], "count": 4}],
}


@pytest.mark.parametrize(
    "command, content",
    [
        ("tabulate", 5),
        ("tabulate", dict(WELL_TYPED, ballots=5)),
        ("tabulate", dict(WELL_TYPED, candidates="ABC")),
        ("tabulate", dict(WELL_TYPED, ballots=[{"ranking": [["A"]], "count": 7}])),
        ("tabulate", dict(WELL_TYPED, ballots=[{"ranking": "AB", "count": 7}])),
        # quotas are reported as floats, so no quota may exceed the largest one
        ("tabulate", dict(WELL_TYPED, delegates=10**400)),
        ("audit init", [1]),
        ("audit round", [1]),
    ],
    ids=["top-level-number", "ballots-number", "candidates-string", "ranking-nested", "ranking-string",
         "delegates-beyond-float-range", "spec-list", "state-list"],
)
def test_wrong_json_types_exit_2(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    audit_files = ["--cvrs", SMALL_CVRS, "--manifest", str(tmp_path / "round1.csv")]
    argv = {
        "tabulate": ["tabulate", "--election", str(bad)],
        "audit init": ["audit", "init", "--spec", str(bad), *audit_files, "--state", str(tmp_path / "state.json")],
        "audit round": ["audit", "round", "--spec", str(spec), "--cvrs", SMALL_CVRS, "--manifest", SMALL_CVRS,
                        "--interpretations", SMALL_CVRS, "--state", str(bad)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("label", ["Bo|b", " Bob", "Bob ", ""])
@pytest.mark.parametrize("command", ["tabulate", "generate"])
def test_roster_label_a_cvr_cell_cannot_hold_exit_2(capsys, tmp_path, command, label):
    election = tmp_path / "election.json"
    election.write_text(json.dumps(dict(WELL_TYPED, candidates=["A", label, "C"])))
    argv = {
        "tabulate": ["tabulate", "--election", str(election)],
        "generate": ["generate", "--election", str(election), "--level", "1", "--out", str(tmp_path / "spec.json")],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert repr(label) in err


@pytest.mark.parametrize("command", ["tabulate", "audit init", "audit round"])
def test_integer_literal_too_long_to_parse_exit_2(capsys, tmp_path, command):
    # json.load raises a plain ValueError for an integer of over 4,300 digits
    bad = tmp_path / "bad.json"
    bad.write_text('{"delegates": 1' + "0" * 5000 + "}")
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    argv = {
        "tabulate": ["tabulate", "--election", str(bad)],
        "audit init": ["audit", "init", "--spec", str(bad), "--cvrs", SMALL_CVRS,
                       "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json")],
        "audit round": ["audit", "round", "--spec", str(spec), "--cvrs", SMALL_CVRS, "--manifest", SMALL_CVRS,
                        "--interpretations", SMALL_CVRS, "--state", str(bad)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot read" in err and "4300 digits" in err


@pytest.mark.parametrize("command, what", [
    ("tabulate", "election file"), ("audit init", "audit spec"), ("audit round", "audit state"),
])
def test_deeply_nested_json_exit_2(capsys, tmp_path, command, what):
    """JSON nested deeper than the parser's recursion limit is a read error
    (exit 2 and a ``cannot read`` message), not a RecursionError."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    argv = {
        "tabulate": ["tabulate", "--election", str(deep)],
        "audit init": ["audit", "init", "--spec", str(deep), "--cvrs", SMALL_CVRS,
                       "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json")],
        "audit round": ["audit", "round", "--spec", str(spec), "--cvrs", SMALL_CVRS, "--manifest", SMALL_CVRS,
                        "--interpretations", SMALL_CVRS, "--state", str(deep)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {what} {deep}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("phase", ["init", "round"])
def test_audit_refuses_partial_cvr_file(capsys, tmp_path, phase):
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    partial = tmp_path / "cvrs20.csv"
    partial.write_text("".join(Path(SMALL_CVRS).read_text().splitlines(keepends=True)[:21]))  # header + 20
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    init_cvrs = partial if phase == "init" else SMALL_CVRS
    audit = ["--spec", str(spec), "--manifest", str(manifest), "--state", str(state)]
    code, _, err = run(capsys, "audit", "init", "--cvrs", str(init_cvrs), *audit)
    if phase == "round":
        assert code == 0
        code, _, err = run(capsys, "audit", "round", "--cvrs", str(partial), "--interpretations", SMALL_CVRS, *audit)
    assert code == 2
    assert "20 records" in err and "120 ballots" in err


def test_audit_init_refuses_string_label_set(capsys, tmp_path):
    """A string where the spec needs a list of labels is refused, not split
    into single-character candidate names."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    doc = json.loads(spec.read_text())
    entry = next(e for e in doc["assertions"] if e["type"] == "viable")
    entry["eliminated"] = "Remy"
    spec.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "audit", "init", "--spec", str(spec), "--cvrs", SMALL_CVRS,
        "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json"),
    )
    assert code == 2
    assert "must be a list of strings" in err


@pytest.mark.parametrize("case", ["margin-edited", "cvrs-tally-differently"])
def test_audit_init_checks_margins_against_cvrs(capsys, tmp_path, case):
    """``audit init`` recomputes every assertion's margin from the CVRs and
    refuses, naming the assertion, a spec whose stated margin differs: an
    overstated margin would lower the evidence rounds demand, and CVRs that
    tabulate differently do not report the audited outcome."""
    spec, cvrs = tmp_path / "spec.json", tmp_path / "cvrs.csv"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    lines = Path(SMALL_CVRS).read_text().splitlines(keepends=True)
    if case == "margin-edited":
        doc = json.loads(spec.read_text())
        doc["assertions"][0]["margin"] = "1/2"
        spec.write_text(json.dumps(doc))
    else:  # the same 120 ballots, with 15 Pat records as Quinn: 55/55/10 instead of 70/40/10
        pat = [i for i, line in enumerate(lines) if line.rstrip("\n").endswith(",Pat")][:15]
        lines = [line.replace(",Pat", ",Quinn") if i in pat else line for i, line in enumerate(lines)]
    cvrs.write_text("".join(lines))
    state = tmp_path / "state.json"
    code, out, err = run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", str(cvrs),
                         "--manifest", str(tmp_path / "round1.csv"), "--state", str(state))
    assert code == 2 and out == ""
    assert f"CVR file {cvrs} gives Viable(Pat | out {{}} | t=1/4)" in err
    assert not state.exists()


# case: (where in the spec, field, value)
SPEC_FIELD_EDITS = {
    "seed-string": ("metadata", "seed", "x"),
    "seed-float": ("metadata", "seed", 1.5),
    "seed-bool": ("metadata", "seed", True),
    "level-9": ("header", "level", 9),
    "level-string": ("header", "level", "1"),
    "status-bogus": ("header", "status", "bogus"),
    "total-ballots-float": ("header", "total_ballots", 120.0),
    "eae-string": ("assertion", "eae", "7"),
    "eae-negative": ("assertion", "eae", -1),
}


@pytest.mark.parametrize("case", sorted(SPEC_FIELD_EDITS))
def test_audit_init_refuses_mistyped_spec_field(capsys, tmp_path, case):
    """Spec metadata and header fields are type-checked, never coerced: a
    seed that is not an integer would write a state every round refuses."""
    where, field, value = SPEC_FIELD_EDITS[case]
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    doc = json.loads(spec.read_text())
    {"metadata": doc["metadata"], "header": doc, "assertion": doc["assertions"][0]}[where][field] = value
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", SMALL_CVRS,
                         "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json"))
    assert code == 2 and out == ""
    assert f"bad audit spec: {field!r} must be" in err


@pytest.mark.parametrize("phase", ["init", "round"])
@pytest.mark.parametrize("value", ["1/0", 0.25, True, "1e-10000000"])
@pytest.mark.parametrize("field", ["t", "d", "margin"])
def test_audit_refuses_bad_spec_rational(capsys, tmp_path, field, value, phase):
    """Every rational of an assertion entry is a string holding a finite
    fraction p/q: a zero denominator is refused with exit 2 naming the field,
    not a ZeroDivisionError traceback, a JSON number or boolean is refused
    rather than coerced, and a decimal exponent is refused at once rather
    than expanded (ten million digits for this 12-character one)."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "3", "--seed", "3", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    audit = ["--spec", str(spec), "--cvrs", SMALL_CVRS, "--state", str(tmp_path / "state.json")]
    if phase == "round":
        assert run(capsys, "audit", "init", *audit, "--manifest", str(manifest))[0] == 0
    doc = json.loads(spec.read_text())
    next(e for e in doc["assertions"] if field in e)[field] = value
    spec.write_text(json.dumps(doc))
    argv = ["--manifest", str(manifest)] + (["--interpretations", SMALL_CVRS] if phase == "round" else [])
    started = time.perf_counter()
    code, out, err = run(capsys, "audit", phase, *audit, *argv)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"{field!r} must be a string holding a finite rational" in err


def test_audit_init_with_eae_beyond_the_ballots_requires_full_count(capsys, tmp_path):
    """An edited ``eae`` larger than the contest asks for more draws than a
    full count; ``audit init`` reports the full count instead of drawing them."""
    spec, manifest = tmp_path / "spec.json", tmp_path / "round1.csv"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    doc = json.loads(spec.read_text())
    doc["assertions"][0]["eae"] = 10**12
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", SMALL_CVRS,
                         "--manifest", str(manifest), "--state", str(tmp_path / "state.json"))
    assert code == 4 and out == ""
    assert "exceeds the ballot universe" in err and not manifest.exists()


# Two candidates with six ballots each share three delegates: both quotas are
# 3/2, an exact remainder tie at the award boundary.
TIED = {"candidates": ["A", "B"], "threshold": "1/4", "delegates": 3, "style": "plurality",
        "ballots": [{"ranking": ["A"], "count": 6}, {"ranking": ["B"], "count": 6}]}


def test_tabulate_text_warns_of_a_tie(capsys, tmp_path):
    election = tmp_path / "tied.json"
    election.write_text(json.dumps(TIED))
    code, out, err = run(capsys, "tabulate", "--election", str(election))
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "  A: quota 1.500 -> 2 of 3 delegates",
        "  B: quota 1.500 -> 1 of 3 delegates",
        "warning: tie broken during tabulation; affected margins are zero",
    ]


def test_audit_init_on_a_full_count_spec_draws_nothing(capsys, tmp_path):
    """A spec that requires a full manual count (here the tie's level 3)
    has nothing to sample: exit 4, and no manifest or state is written."""
    election, spec, cvrs = tmp_path / "tied.json", tmp_path / "spec.json", tmp_path / "cvrs.csv"
    election.write_text(json.dumps(TIED))
    code, _, _ = run(capsys, "generate", "--election", str(election), "--level", "3", "--seed", "1", "--out", str(spec))
    assert code == 4
    cvrs.write_text("ballot_id,ranking\n" + "".join(f"b{i:02d},{'AB'[i % 2]}\n" for i in range(12)))
    manifest, state = tmp_path / "round1.csv", tmp_path / "state.json"
    code, out, err = run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", str(cvrs),
                         "--manifest", str(manifest), "--state", str(state))
    assert (code, out, err) == (4, "", "spec requires a full manual count; nothing to sample\n")
    assert not manifest.exists() and not state.exists()


def _init_with_edited_spec(capsys, tmp_path, edit):
    """``audit init`` on a level-3 spec of the small election after ``edit``
    changed its JSON document in place."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "3", "--seed", "3", "--out", str(spec))
    doc = json.loads(spec.read_text())
    edit(doc)
    spec.write_text(json.dumps(doc))
    return run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", SMALL_CVRS,
               "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json"))


def test_audit_init_refuses_schema_1_spec(capsys, tmp_path):
    """A spec of schema 1 (which stored each assorter's upper bound and mean)
    is refused, not read with its extra fields ignored."""
    def schema_1(doc):
        doc["schema_version"] = 1
        for entry in doc["assertions"]:
            entry.update(upper_bound="1", mean="3/4")

    code, out, err = _init_with_edited_spec(capsys, tmp_path, schema_1)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "schema version 1 unsupported (expected 3)" in err


def test_audit_init_refuses_schema_2_spec(capsys, tmp_path):
    """A spec of schema 2 (which stored the sample-size simulation's trial
    count) is refused by its version."""
    def schema_2(doc):
        doc["schema_version"] = 2
        doc["metadata"]["trials"] = 20

    code, out, err = _init_with_edited_spec(capsys, tmp_path, schema_2)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "schema version 2 unsupported (expected 3)" in err


def test_audit_init_refuses_spec_with_nan_gamma(capsys, tmp_path):
    """A NaN gamma fails every comparison, so a range check written as
    ``gamma <= 1`` would let it through."""
    code, out, err = _init_with_edited_spec(capsys, tmp_path, lambda doc: doc["metadata"].update(gamma=math.nan))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "gamma nan must be a finite number above 1" in err


def _irv_wins_eliminating_its_winner(doc):
    doc["assertions"].append(
        {"type": "irv_wins", "winner": "Pat", "loser": "Quinn", "eliminated": ["Pat"], "margin": "1/2", "eae": 5}
    )


def _pairwise_diff_against_itself(doc):
    entry = next(e for e in doc["assertions"] if e["type"] == "pairwise_diff")
    entry["loser"] = entry["winner"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_irv_wins_eliminating_its_winner, "winner/loser cannot be in the elimination set"),
        (_pairwise_diff_against_itself, "winner and loser must differ"),
    ],
    ids=["irv-wins-winner-eliminated", "pairwise-diff-winner-is-loser"],
)
def test_audit_init_refuses_an_assertion_that_cannot_exist(capsys, tmp_path, edit, message):
    """An assertion object whose fields contradict each other is refused
    when the spec is read, naming the object."""
    code, out, err = _init_with_edited_spec(capsys, tmp_path, edit)
    assert code == 2 and out == ""
    assert err.startswith("error: bad audit spec: bad assertion object {") and err.endswith(f"}}: {message}\n")


def test_tabulate_refuses_threshold_with_exponent_quickly(capsys, tmp_path):
    """A threshold is a p/q or plain decimal string, or a JSON number: a
    12-character exponent string would expand ten million digits first."""
    path = tmp_path / "election.json"
    path.write_text(json.dumps(dict(WELL_TYPED, threshold="1e-10000000")))
    started = time.perf_counter()
    code, out, err = run(capsys, "tabulate", "--election", str(path))
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bad proportion '1e-10000000'" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"threshold": True}, "bad proportion True: boolean is not a proportion"),
        ({"threshold": "2"}, "threshold 2 outside (0, 1]"),
        ({"candidates": []}, "candidate roster is empty"),
    ],
    ids=["threshold-bool", "threshold-above-1", "roster-empty"],
)
def test_tabulate_refuses_bad_threshold_or_empty_roster(capsys, tmp_path, edit, message):
    """A boolean threshold is not read as 1, a threshold must lie in (0, 1],
    and a contest needs a candidate: each is an input error."""
    path = tmp_path / "election.json"
    path.write_text(json.dumps(dict(WELL_TYPED, **edit)))
    assert run(capsys, "tabulate", "--election", str(path)) == (2, "", f"error: {message}\n")


def test_tabulate_blank_only_exit_3(capsys, tmp_path):
    path = tmp_path / "blank.json"
    path.write_text(
        json.dumps(
            {
                "candidates": ["A"],
                "threshold": "0.15",
                "delegates": 1,
                "style": "plurality",
                "ballots": [{"ranking": [], "count": 5}],
            }
        )
    )
    code, _, err = run(capsys, "tabulate", "--election", str(path))
    assert code == 3
    assert "unsupported" in err


def test_generate_level_1_and_3(capsys, tmp_path):
    spec1 = tmp_path / "level1.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "generate",
        "--election",
        PLURALITY,
        "--level",
        "1",
        "--seed",
        "42",
        "--out",
        str(spec1),
    )
    assert code == 0
    assert len(json.loads(out)["assertions"]) == 4
    spec3 = tmp_path / "level3.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "generate",
        "--election",
        PLURALITY,
        "--level",
        "3",
        "--seed",
        "42",
        "--out",
        str(spec3),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["assertions"]) == 6  # 4 viability + 2 allocation
    assert payload["status"] == "complete"


def test_generate_irv_writes_proof_log(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    log = tmp_path / "proof.log"
    code, _, _ = run(
        capsys,
        "generate",
        "--election",
        IRV,
        "--level",
        "1",
        "--seed",
        "42",
        "--out",
        str(spec),
        "--proof-log",
        str(log),
    )
    assert code == 0
    text = log.read_text()
    assert "\nT* = " in text
    assert "\ncut: " in text
    assert "status: complete" in text


def test_generate_full_count_exit_4_spec_still_written(capsys, tmp_path):
    # one candidate a hair under 15%, like a near-threshold statewide contest
    election = tmp_path / "near.json"
    election.write_text(
        json.dumps(
            {
                "candidates": ["Front", "Near", "Rest"],
                "threshold": "15/100",
                "delegates": 7,
                "style": "plurality",
                "ballots": [
                    {"ranking": ["Front"], "count": 76670},
                    {"ranking": ["Near"], "count": 14930},
                    {"ranking": ["Rest"], "count": 8400},
                ],
            }
        )
    )
    spec = tmp_path / "spec.json"
    code, _, err = run(
        capsys,
        "generate",
        "--election",
        str(election),
        "--level",
        "1",
        "--seed",
        "42",
        "--out",
        str(spec),
    )
    assert code == 4
    assert "full manual count" in err
    assert spec.exists()
    payload = json.loads(spec.read_text())
    assert payload["status"] == "requires-full-count"
    assert any(a["eae"] is None for a in payload["assertions"])


def test_generate_full_count_shows_no_overall_draws(capsys, tmp_path):
    """A search that leaves an outcome open needs a full count, even when
    every assertion it did emit has a finite estimate (its one reduction,
    1 draw, here), so the table's overall line shows the dash, as
    ``estimate`` does."""
    profile = random_irv_profile(random.Random(52))
    election = tmp_path / "seed52.json"
    election.write_text(json.dumps({
        "candidates": list(profile.labels),
        "threshold": str(profile.threshold),
        "delegates": profile.delegates,
        "style": profile.style,
        "ballots": [{"ranking": list(r), "count": n} for r, n in profile.rankings.items()],
    }))
    code, out, _ = run(capsys, "generate", "--election", str(election), "--level", "1", "--seed", "52",
                       "--out", str(tmp_path / "spec.json"))
    assert code == 4
    assert "status requires-full-count" in out
    assert "  eae      1  " in out
    assert "overall expected draws: --\n" in out


def test_generate_deterministic_bytes(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    blobs = []
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "generate",
            "--election",
            IRV,
            "--level",
            "3",
            "--seed",
            "99",
            "--out",
            str(spec_path),
        )
        assert code == 0
        blobs.append((out, spec_path.read_bytes()))
    assert blobs[0] == blobs[1]
    # the JSON payload is the spec written, plus where it went
    payload = json.loads(blobs[0][0])
    assert payload.pop("spec_path") == str(spec_path)
    assert payload == json.loads(blobs[0][1])


def test_estimate_emits_three_levels(capsys):
    code, out, err = run(
        capsys, "--format", "json", "estimate", "--election", PLURALITY, "--seed", "42"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["levels"]) == {"1", "2", "3"}
    level1 = payload["levels"]["1"]
    assert level1["overall_asn"] is not None
    assert abs(level1["overall_asn"] - 46) <= 0.3 * 46
    assert "generation time" in err


def test_estimate_irv_three_levels(capsys):
    code, out, _ = run(capsys, "--format", "json", "estimate", "--election", IRV, "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    for level in ("1", "2", "3"):
        data = payload["levels"][level]
        assert data["status"] == "complete"
        assert data["overall_asn"] is not None
    assert payload["levels"]["3"]["assertions"] == payload["levels"]["1"]["assertions"] + 2


def test_generate_with_a_tiny_threshold_is_quick(capsys, tmp_path):
    # floor(1/threshold) = 10**6 may hold every candidate; the alternative
    # sets are enumerated up to the roster, not up to that cap
    election = tmp_path / "tiny.json"
    election.write_text(
        json.dumps(
            {
                "candidates": ["A", "B", "C"],
                "threshold": "1/1000000",
                "delegates": 3,
                "style": "irv",
                "ballots": [
                    {"ranking": ["A", "B"], "count": 500},
                    {"ranking": ["B", "C"], "count": 300},
                    {"ranking": ["C"], "count": 200},
                ],
            }
        )
    )
    for level in ("1", "2", "3"):
        started = time.perf_counter()
        code, _, _ = run(
            capsys, "generate", "--election", str(election), "--level", level,
            "--seed", "1", "--out", str(tmp_path / "spec.json"),
        )
        assert code == 0
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("command", ["generate", "estimate"])
def test_margin_below_float_resolution_requires_full_count(capsys, tmp_path, command):
    # among 10**30 delegates the allocation margins are about 1e-30, too
    # small to move a float p-value: unauditable, not a crash
    data = json.loads(Path(IRV).read_text())
    election = tmp_path / "many_delegates.json"
    election.write_text(json.dumps(dict(data, delegates=10**30)))
    argv = ["--election", str(election), "--seed", "1"]
    if command == "generate":
        argv += ["--level", "2", "--out", str(tmp_path / "spec.json")]
    code, out, err = run(capsys, command, *argv)
    assert code == 4
    assert "Traceback" not in err
    if command == "generate":
        assert "full manual count required" in err
    else:
        assert "level 2: ASN -- (9 assertions, requires-full-count)" in out


def test_audit_round_with_margin_below_float_resolution_requires_full_count(capsys, tmp_path):
    """A spec edited to call its sub-resolution delegate assertions
    auditable initialises, but no number of clean draws confirms them:
    the round reports a full manual count (exit 4) instead of crashing,
    and is recorded, since its paper readings are evidence."""
    data = json.loads(Path(IRV).read_text())
    election = tmp_path / "many_delegates.json"
    election.write_text(json.dumps(dict(data, delegates=10**30)))
    spec = tmp_path / "spec.json"
    code, _, _ = run(capsys, "generate", "--election", str(election), "--level", "2", "--seed", "1", "--out", str(spec))
    assert code == 4
    doc = json.loads(spec.read_text())
    doc["status"] = "complete"
    for entry in doc["assertions"]:
        if entry["eae"] is None:
            entry["eae"] = 1
    spec.write_text(json.dumps(doc))
    rankings = ["|".join(b["ranking"]) for b in data["ballots"] for _ in range(b["count"])]
    cvrs = tmp_path / "cvrs.csv"
    cvrs.write_text("ballot_id,ranking\n" + "".join(f"b{i},{r}\n" for i, r in enumerate(rankings)))
    manifest, state, second = tmp_path / "round1.csv", tmp_path / "state.json", tmp_path / "round2.csv"
    audit = ["--spec", str(spec), "--cvrs", str(cvrs), "--state", str(state)]
    assert run(capsys, "audit", "init", *audit, "--manifest", str(manifest))[0] == 0
    code, out, err = run(
        capsys, "--format", "json", "audit", "round", *audit, "--manifest", str(manifest),
        "--interpretations", str(cvrs), "--next-manifest", str(second),
    )
    assert code == 4
    assert "full manual count required" in err
    payload = json.loads(out)
    assert payload["status"] == "requires-full-count"
    assert payload["suggested_additional_draws"] is None
    assert not second.exists()
    assert [r["draws"] for r in json.loads(state.read_text())["state"]["rounds"]] == [len(read_manifest(manifest))]


def test_tabulate_with_huge_counts(capsys, tmp_path):
    # percentages are exact int divisions, so counts beyond float range print
    election = tmp_path / "huge.json"
    election.write_text(
        json.dumps(
            {
                "candidates": ["A", "B"],
                "threshold": "15/100",
                "delegates": 3,
                "style": "irv",
                "ballots": [
                    {"ranking": ["A"], "count": 10**400},
                    {"ranking": ["B", "A"], "count": 3 * 10**399},
                ],
            }
        )
    )
    code, out, err = run(capsys, "tabulate", "--election", str(election))
    assert code == 0
    assert "Traceback" not in err
    assert f"A={10**400} (76.923%)  B={3 * 10**399} (23.077%)" in out
    code, out, _ = run(capsys, "--format", "json", "tabulate", "--election", str(election))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid_ballots"] == 13 * 10**399
    assert payload["rounds"] == [{"piles": {"A": 10**400, "B": 3 * 10**399}, "exhausted": 0, "eliminated": None}]
    assert payload["allocation"] == {"A": 2, "B": 1}


def test_estimate_full_recount_sentinel(capsys, tmp_path):
    election = tmp_path / "ri_like.json"
    election.write_text(
        json.dumps(
            {
                "candidates": ["Front", "Near"],
                "threshold": "15/100",
                "delegates": 5,
                "style": "plurality",
                "ballots": [
                    {"ranking": ["Front"], "count": 8850},
                    {"ranking": ["Near"], "count": 1550},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "--format", "json", "estimate", "--election", str(election))
    # Near sits at 14.9%: margin is positive but unconfirmable inside 10,400
    # ballots at a 0.2% error rate, so every level shows the sentinel
    assert code == 4
    payload = json.loads(out)
    assert payload["levels"]["1"]["overall_asn"] is None


def test_estimate_text_table_uses_dashes(capsys, tmp_path):
    election = tmp_path / "ri_like.json"
    election.write_text(
        json.dumps(
            {
                "candidates": ["Front", "Near"],
                "threshold": "15/100",
                "delegates": 5,
                "style": "plurality",
                "ballots": [
                    {"ranking": ["Front"], "count": 8850},
                    {"ranking": ["Near"], "count": 1550},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "estimate", "--election", str(election))
    assert code == 4
    assert "--" in out


def test_audit_flow_clean_confirms(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    code, _, _ = run(
        capsys,
        "generate",
        "--election",
        SMALL,
        "--level",
        "3",
        "--seed",
        "11",
        "--out",
        str(spec),
    )
    assert code == 0
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "audit",
        "init",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--state",
        str(state),
    )
    assert code == 0
    draws = json.loads(out)["draws"]
    assert draws >= 1
    assert manifest.exists()
    from hamilton_rla import estimate_audit_asn, load_audit_spec

    assert draws == estimate_audit_asn(load_audit_spec(spec))
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "audit",
        "round",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--interpretations",
        SMALL_CVRS,
        "--state",
        str(state),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "confirmed"
    assert payload["total_draws"] == draws
    assert all(a["p_value"] <= 0.05 for a in payload["assertions"].values())


def test_audit_round_overstatements_escalate(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    run(
        capsys,
        "audit",
        "init",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--state",
        str(state),
    )
    # fabricate wrong paper ballots: four drawn ballots read as Remy, the rest as their CVRs
    misread = list(dict.fromkeys(read_manifest(manifest)))[:4]
    interpretations = tmp_path / "paper.csv"
    interpretations.write_text("ballot_id,ranking\n" + "".join(
        f"{ballot},Remy\n" if ballot in misread else f"{ballot},{'|'.join(ranking)}\n"
        for ballot, ranking in load_cvrs(SMALL_CVRS).items()
    ))
    next_manifest = tmp_path / "round2.csv"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "audit",
        "round",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--interpretations",
        str(interpretations),
        "--state",
        str(state),
        "--next-manifest",
        str(next_manifest),
    )
    assert code == 5
    payload = json.loads(out)
    assert payload["status"] == "escalate"
    assert payload["suggested_additional_draws"] > 0
    assert next_manifest.exists()
    # the strong assertions' p-values sit at the cap after heavy overstatement
    assert any(a["p_value"] == 1.0 for a in payload["assertions"].values())


@pytest.mark.parametrize("case", ["fabricated", "replayed"])
def test_audit_round_refuses_manifest_off_the_sample(capsys, tmp_path, case):
    """Only the next segment of the seeded sample can be scored: a chosen
    manifest, or the previous round's manifest again, is refused before any
    scoring and the state is left as it was."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    audit = ["--spec", str(spec), "--cvrs", SMALL_CVRS, "--state", str(state), "--interpretations", SMALL_CVRS]
    assert run(capsys, "audit", "init", *audit[:-2], "--manifest", str(manifest))[0] == 0
    if case == "fabricated":
        # within the 120 ballots, so the refusal is the sample check, not the draw bound
        manifest.write_text("draw_index,ballot_id\n" + "".join(f"{i},b001\n" for i in range(1, 101)))
    else:
        assert run(capsys, "audit", "round", *audit, "--manifest", str(manifest))[0] == 0
    before = state.read_bytes()
    code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest))
    assert code == 2
    assert "not the next" in err and out == ""
    assert state.read_bytes() == before


def test_audit_state_tamper_detected(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    run(
        capsys,
        "audit",
        "init",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--state",
        str(state),
    )
    doc = json.loads(state.read_text())
    doc["state"]["total_draws"] = 999
    state.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "audit",
        "round",
        "--spec",
        str(spec),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--interpretations",
        SMALL_CVRS,
        "--state",
        str(state),
    )
    assert code == 2
    assert "tampered" in err or "checksum" in err


def test_audit_rounds_replayable(capsys, tmp_path):
    """State records every round's draws and interpretations for replay."""
    spec_path = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec_path))
    manifest = tmp_path / "round1.csv"
    state = tmp_path / "state.json"
    run(
        capsys,
        "audit",
        "init",
        "--spec",
        str(spec_path),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--state",
        str(state),
    )
    run(
        capsys,
        "audit",
        "round",
        "--spec",
        str(spec_path),
        "--cvrs",
        SMALL_CVRS,
        "--manifest",
        str(manifest),
        "--interpretations",
        SMALL_CVRS,
        "--state",
        str(state),
    )
    saved = json.loads(state.read_text())["state"]
    assert saved["rounds"]
    # replaying the recorded rounds, each its slice of the seeded sample,
    # reproduces the stored p-values
    from hamilton_rla import load_audit_spec, load_cvrs
    from hamilton_rla.risk import run_audit_round, sample_stream
    from hamilton_rla.model import parse_ranking_cell

    spec = load_audit_spec(spec_path)
    cvrs = load_cvrs(SMALL_CVRS)
    sample = list(islice(sample_stream(saved["seed"], list(cvrs)), sum(rnd["draws"] for rnd in saved["rounds"])))
    assert sample == read_manifest(manifest)
    rounds, start = [], 0
    for rnd in saved["rounds"]:
        interp = {b: parse_ranking_cell(cell) for b, cell in rnd["interpretations"].items()}
        rounds.append((sample[start : start + rnd["draws"]], interp))
        start += rnd["draws"]
    pairs = [(e.assertion, float(e.margin)) for e in spec.entries]
    states, _, _ = run_audit_round(pairs, count_pairs(cvrs, rounds), saved["alpha"], saved["gamma"], len(cvrs))
    for key, persisted in saved["assertions"].items():
        assert states[key].p_value == persisted["p_value"]


def _audit_after_init(capsys, tmp_path):
    """A level-1 spec of the small election and its audit, initialised."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    audit = ["--spec", str(spec), "--cvrs", SMALL_CVRS, "--state", str(tmp_path / "state.json")]
    assert run(capsys, "audit", "init", *audit, "--manifest", str(manifest))[0] == 0
    return audit, manifest


def _first_cell(state: dict, cell: str | None) -> None:
    """Set the first recorded paper reading to ``cell``, or drop it when None."""
    papers = state["rounds"][0]["interpretations"]
    ballot = next(iter(papers))
    if cell is None:
        del papers[ballot]
    else:
        papers[ballot] = cell


# case: (edit after a first round, the edit, what the message names)
STATE_EDITS = {
    "seed-missing": (False, lambda state: state.pop("seed"), "audit state"),
    "round-draws-string": (True, lambda state: state["rounds"][0].update(draws="3"), "audit state"),
    "interpretation-malformed": (True, lambda state: _first_cell(state, "Pat||Remy"), "audit state"),
    "gamma-not-above-1": (False, lambda state: state.update(gamma=1.0), "audit state"),
    "round-not-an-object": (False, lambda state: state.update(rounds=[5]), "'rounds' must be a list of {draws"),
    "schema-version-unknown": (False, lambda state: state.update(schema_version=99), "audit state"),
    # a fresh state differs from the previous layout's only in its version
    "schema-version-2": (False, lambda state: state.update(schema_version=2), "'schema_version' must be 3"),
    "round-misses-drawn-ballot": (True, lambda state: _first_cell(state, None), "round 1: no manual interpretation"),
}


@pytest.mark.parametrize("case", sorted(STATE_EDITS))
def test_audit_round_refuses_ill_formed_state(capsys, tmp_path, case):
    """A state whose checksum matches its body but whose fields are missing,
    mistyped or out of range, or whose recorded evidence is incomplete, is
    refused with exit 2, before any scoring."""
    after_round, edit, message = STATE_EDITS[case]
    if after_round:
        audit, _, manifest, _ = _escalating_audit(capsys, tmp_path)
    else:
        audit, manifest = _audit_after_init(capsys, tmp_path)
    state = Path(audit[-1])
    doc = json.loads(state.read_text())
    edit(doc["state"])
    doc["checksum"] = _state_checksum(doc["state"])
    state.write_text(json.dumps(doc))
    code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest),
                         "--interpretations", SMALL_CVRS)
    assert code == 2
    assert message in err and out == ""


@pytest.mark.parametrize("empty", ["cvrs", "spec-draws", "manifest"])
def test_audit_refuses_empty_input(capsys, tmp_path, empty):
    """A CVR file with no records (for a spec claiming no ballots), a spec
    whose expected sample sizes are all 0, and a manifest with no draws are
    refused with exit 2: there is nothing to audit, and a recorded round
    always holds at least one draw."""
    audit, manifest = _audit_after_init(capsys, tmp_path)
    spec, empty_file = Path(audit[1]), tmp_path / "empty.csv"
    if empty == "manifest":
        empty_file.write_text("draw_index,ballot_id\n")
        argv = ["round", *audit, "--manifest", str(empty_file), "--interpretations", SMALL_CVRS]
        message = f"manifest {empty_file} lists no draws"
    else:
        doc = json.loads(spec.read_text())
        if empty == "cvrs":
            doc["total_ballots"] = 0
            empty_file.write_text("ballot_id,ranking\n")
            audit[audit.index("--cvrs") + 1] = str(empty_file)
            message = f"CVR file {empty_file} holds no records"
        else:
            for entry in doc["assertions"]:
                entry["eae"] = 0
            message = f"audit spec {spec} asks for no draws"
        spec.write_text(json.dumps(doc))
        argv = ["init", *audit, "--manifest", str(manifest)]
    code, out, err = run(capsys, "audit", *argv)
    assert code == 2 and out == ""
    assert message in err


def _escalating_audit(capsys, tmp_path):
    """An initialised level-1 audit of the small election (seed 3, 29 draws)
    and its first round, which reads every fourth ballot's paper as blank
    and escalates.  Returns the audit options, the two manifests and the
    first round's interpretations file."""
    spec = tmp_path / "spec.json"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    audit = ["--spec", str(spec), "--cvrs", SMALL_CVRS, "--state", str(tmp_path / "state.json")]
    first, second = tmp_path / "round1.csv", tmp_path / "round2.csv"
    assert run(capsys, "audit", "init", *audit, "--manifest", str(first))[0] == 0
    records = Path(SMALL_CVRS).read_text().splitlines()[1:]
    paper = tmp_path / "paper.csv"
    paper.write_text("ballot_id,ranking\n" + "".join(
        f"{line.split(',')[0]},\n" if i % 4 == 0 else f"{line}\n" for i, line in enumerate(records)
    ))
    code, _, _ = run(capsys, "audit", "round", *audit, "--manifest", str(first), "--interpretations", str(paper),
                     "--next-manifest", str(second))
    assert code == 5
    return audit, first, second, paper


def test_audit_state_replays_every_draw(capsys, tmp_path):
    """After an escalating round and a clean follow-up of the suggested size,
    which confirms, the state counts every
    drawn ballot for every assertion, records each round's draws, and the
    reported p-values are those of scoring every draw one ballot at a time,
    each against its own round's paper."""
    audit, first, second, paper = _escalating_audit(capsys, tmp_path)
    code, out, _ = run(capsys, "--format", "json", "audit", "round", *audit, "--manifest", str(second),
                       "--interpretations", SMALL_CVRS)
    assert code == 0
    manifests = [read_manifest(first), read_manifest(second)]
    cumulative = sum(map(len, manifests))
    state = json.loads(Path(audit[-1]).read_text())["state"]
    assert [rnd["draws"] for rnd in state["rounds"]] == list(map(len, manifests))
    assert state["total_draws"] == cumulative
    assert {a["draws"] for a in state["assertions"].values()} == {cumulative}

    cvrs = load_cvrs(SMALL_CVRS)
    papers = [load_cvrs(path) for path in (paper, SMALL_CVRS)]
    reported = json.loads(out)["assertions"]
    for e in load_audit_spec(audit[1]).entries:
        replayed = RiskState(margin=float(e.margin), gamma=state["gamma"])
        for manifest, paper_of in zip(manifests, papers):
            for ballot in manifest:
                replayed = km_step(replayed, discrepancy(e.assertion, cvrs[ballot], paper_of[ballot]))
        assert reported[e.assertion.key]["p_value"] == replayed.p_value
        assert state["assertions"][e.assertion.key]["p_value"] == replayed.p_value


def test_escalating_round_without_next_manifest_writes_it_beside_the_manifest(capsys, tmp_path):
    """An escalating round given no ``--next-manifest`` still writes the
    next draws, to ``<manifest stem>.next.csv``, and names it: the audit
    can only go on from them, since a manifest already scored is refused.
    Round 1 reads the first three distinct drawn ballots as blank; round 2,
    from the written manifest with clean papers, confirms."""
    spec, first, paper = tmp_path / "spec.json", tmp_path / "round1.csv", tmp_path / "paper.csv"
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    audit = ["--spec", str(spec), "--cvrs", SMALL_CVRS, "--state", str(tmp_path / "state.json")]
    assert run(capsys, "audit", "init", *audit, "--manifest", str(first))[0] == 0
    blank = list(dict.fromkeys(read_manifest(first)))[:3]
    paper.write_text("ballot_id,ranking\n" + "".join(
        f"{b},{'' if b in blank else '|'.join(ranking)}\n" for b, ranking in load_cvrs(SMALL_CVRS).items()
    ))
    code, out, _ = run(capsys, "audit", "round", *audit, "--manifest", str(first), "--interpretations", str(paper))
    following = tmp_path / "round1.next.csv"
    assert code == 5
    assert out.splitlines()[-2:] == ["suggested additional draws: 17", f"next manifest -> {following}"]
    assert len(read_manifest(following)) == 17
    code, out, _ = run(capsys, "audit", "round", *audit, "--manifest", str(following), "--interpretations", SMALL_CVRS)
    assert code == 0
    assert out.startswith("status: confirmed  cumulative draws: 46")


def test_audit_round_refuses_interpretations_missing_a_drawn_ballot(capsys, tmp_path):
    """Each draw of the current manifest needs its paper reading: a second
    round whose interpretations miss one of its ballots is refused with
    exit 2, before any scoring, and writes no next manifest and leaves the
    state as it was."""
    audit, _, second, _ = _escalating_audit(capsys, tmp_path)
    missing = read_manifest(second)[0]
    partial = tmp_path / "partial.csv"
    lines = Path(SMALL_CVRS).read_text().splitlines(keepends=True)
    partial.write_text("".join(line for line in lines if not line.startswith(f"{missing},")))
    state = Path(audit[-1])
    saved = state.read_bytes()
    next_manifest = tmp_path / "round3.csv"
    code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(second),
                         "--interpretations", str(partial), "--next-manifest", str(next_manifest))
    assert code == 2 and out == ""
    assert f"round 2: no manual interpretation for drawn ballot {missing!r}" in err
    assert not next_manifest.exists()
    assert state.read_bytes() == saved


def _claim_draws(state: Path, claimed: int, interpretations: dict[str, str]) -> None:
    """Re-sign the audit state with one recorded round that claims
    ``claimed`` draws and reads ``interpretations`` off the papers."""
    doc = json.loads(state.read_text())
    doc["state"]["rounds"] = [{"draws": claimed, "interpretations": interpretations}]
    doc["checksum"] = _state_checksum(doc["state"])
    state.write_text(json.dumps(doc))


def test_audit_round_replay_memory_does_not_grow_with_claimed_draws(capsys, tmp_path, monkeypatch):
    """A re-signed state whose round 1 interprets every ballot of a
    200,010-ballot contest and claims 200,000 draws is replayed as a
    stream: from the first draw to the scoring of the round, traced memory
    peaks far below the 1.6 MB that holding those draws in a list takes."""
    counts = {"Pat": 116_672, "Quinn": 66_669, "Remy": 16_669}
    election, spec, cvrs = tmp_path / "election.json", tmp_path / "spec.json", tmp_path / "cvrs.csv"
    save_election(build_profile(list(counts), [([c], n) for c, n in counts.items()], "1/4", 3, "plurality"), election)
    ballots = [f"b{i:06d}" for i in range(sum(counts.values()))]
    cells = [c for c, n in counts.items() for _ in range(n)]
    cvrs.write_text("ballot_id,ranking\n" + "".join(f"{b},{c}\n" for b, c in zip(ballots, cells)))
    assert run(capsys, "generate", "--election", str(election), "--level", "1", "--seed", "11",
               "--out", str(spec))[0] == 0
    manifest, state = tmp_path / "round.csv", tmp_path / "state.json"
    audit = ["--spec", str(spec), "--cvrs", str(cvrs), "--state", str(state)]
    assert run(capsys, "audit", "init", *audit, "--manifest", str(manifest))[0] == 0
    claimed = 200_000
    _claim_draws(state, claimed, dict(zip(ballots, cells)))
    stream, score = risk.sample_stream, risk.run_audit_round
    seed = json.loads(state.read_text())["state"]["seed"]
    write_manifest(list(islice(stream(seed, ballots), claimed, claimed + 5)), manifest)
    peak = []

    def traced_stream(*args):
        tracemalloc.start()  # at the first draw, once the round's papers are read
        yield from stream(*args)

    def traced_score(*args):
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return score(*args)

    monkeypatch.setattr(risk, "sample_stream", traced_stream)
    monkeypatch.setattr(risk, "run_audit_round", traced_score)
    try:
        code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest),
                             "--interpretations", str(cvrs))
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert out.startswith(f"status: confirmed  cumulative draws: {claimed + 5}")
    assert peak[0] < 0.5 * 2**20


@pytest.mark.parametrize("claimed, refused", [(115, False), (116, True), (10**12, True)])
def test_audit_round_refuses_more_draws_than_ballots_at_once(capsys, tmp_path, claimed, refused):
    """Recorded draws and the manifest together may not exceed the
    contest's ballots, since ``audit init`` and escalation both stop at a
    full count first: a re-signed state claiming more is refused with exit
    2 naming the state and the counts, before any draw is replayed, so a
    claim of 10**12 draws is refused in well under a second.  A claim that
    reaches exactly the 120 ballots is replayed."""
    audit, manifest = _audit_after_init(capsys, tmp_path)
    state = Path(audit[-1])
    lines = Path(SMALL_CVRS).read_text().splitlines()[1:]
    _claim_draws(state, claimed, dict(line.split(",", 1) for line in lines))
    ballots = [line.split(",", 1)[0] for line in lines]
    write_manifest(list(islice(sample_stream(json.loads(state.read_text())["state"]["seed"], ballots), 115, 120)),
                   manifest)
    saved = state.read_bytes()
    started = time.perf_counter()
    code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest),
                         "--interpretations", SMALL_CVRS)
    elapsed = time.perf_counter() - started
    if not refused:
        assert code == 0, err
        assert out.startswith("status: confirmed  cumulative draws: 120")
        return
    assert code == 2 and out == ""
    assert (f"audit state {state} records {claimed} draws and manifest {manifest} lists 5 more, "
            "beyond the contest's 120 ballots") in err
    assert elapsed < 1.0
    assert state.read_bytes() == saved


@pytest.mark.parametrize("margin", ["0", "-1/2"])
def test_audit_round_refuses_a_nonpositive_stated_margin(capsys, tmp_path, margin):
    """A spec edited to state a nonpositive margin, and a state re-signed to
    bind it, are refused with exit 2 naming the spec and the assertion,
    before any draw is replayed: no such margin can be audited."""
    audit, manifest = _audit_after_init(capsys, tmp_path)
    spec, state = Path(audit[1]), Path(audit[-1])
    doc = json.loads(spec.read_text())
    doc["assertions"][0]["margin"] = margin
    spec.write_text(json.dumps(doc))
    signed = json.loads(state.read_text())
    signed["state"]["spec_sha256"] = hashlib.sha256(spec.read_bytes()).hexdigest()
    signed["checksum"] = _state_checksum(signed["state"])
    state.write_text(json.dumps(signed))
    saved = state.read_bytes()
    code, out, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest),
                         "--interpretations", SMALL_CVRS)
    assert code == 2 and out == ""
    assert f"audit spec {spec} states Viable(Pat | out {{}} | t=1/4) margin {Fraction(margin)}, not positive" in err
    assert state.read_bytes() == saved


def test_wrong_outcome_audit_escalates_without_overflow(capsys, tmp_path):
    """Papers that all read Remy overstate every assertion of the reported
    outcome.  Confirming it would take 518 more draws on top of round 1's 29,
    more than the contest's 120 ballots, so round 1 asks for a full count
    (exit 4, as ``audit init`` does for a sample larger than the ballots):
    it writes no next manifest but is recorded, since its papers are
    evidence.  (The log-space p-value that keeps heavy overstatement from
    overflowing is tested in ``test_risk``.)"""
    audit, manifest = _audit_after_init(capsys, tmp_path)
    remy = tmp_path / "remy.csv"
    remy.write_text("ballot_id,ranking\n" + "".join(f"{ballot},Remy\n" for ballot in load_cvrs(SMALL_CVRS)))
    following = tmp_path / "round2.csv"
    code, out, err = run(capsys, "--format", "json", "audit", "round", *audit, "--manifest", str(manifest),
                         "--interpretations", str(remy), "--next-manifest", str(following))
    assert code == 4
    assert err == ("confirming every assertion needs more draws than the contest has ballots; "
                   "full manual count required\n")
    payload = json.loads(out)
    assert payload["status"] == "requires-full-count"
    assert payload["total_draws"] == 29 and payload["suggested_additional_draws"] is None
    assert not following.exists()
    rounds = json.loads(Path(audit[-1]).read_text())["state"]["rounds"]
    assert [r["draws"] for r in rounds] == [29]


SUMMARY_EDITS = {
    "total-draws": lambda state: state.update(total_draws=999),
    "assertions": lambda state: state.update(
        assertions={key: dict(a, margin=2.0, draws=0, clean=999, one_vote=0, two_vote=0, p_value=0.0)
                    for key, a in state["assertions"].items()}
    ),
}


@pytest.mark.parametrize("case", sorted(SUMMARY_EDITS))
def test_audit_round_ignores_state_summary(capsys, tmp_path, case):
    """The state's draw count and per-assertion summary are derived from the
    recorded rounds and never read: editing them (and re-checksumming) leaves
    the next round's output unchanged."""
    audit, _, second, _ = _escalating_audit(capsys, tmp_path)
    state = Path(audit[-1])
    saved = state.read_bytes()
    follow_up = ["--format", "json", "audit", "round", *audit, "--manifest", str(second),
                 "--interpretations", SMALL_CVRS]
    expected = run(capsys, *follow_up)
    doc = json.loads(saved)
    SUMMARY_EDITS[case](doc["state"])
    doc["checksum"] = _state_checksum(doc["state"])
    state.write_text(json.dumps(doc))
    assert run(capsys, *follow_up) == expected


@pytest.mark.parametrize("command", ["generate", "estimate"])
@pytest.mark.parametrize(
    "flag, value, message",
    # a NaN gamma passes no comparison, so a `gamma <= 1` check let it claim
    # one draw per assertion; an infinite one made every assertion a full count
    [("--alpha", "2", "alpha"), ("--gamma", "1", "gamma"), ("--gamma", "nan", "gamma"), ("--gamma", "inf", "gamma"),
     ("--error-rate", "1", "error rate")],
)
def test_out_of_range_risk_flags_exit_2(capsys, command, flag, value, message):
    code, out, err = run(capsys, command, "--election", PLURALITY, "--seed", "1", flag, value)
    assert code == 2
    assert f"error: {message}" in err and out == ""


@pytest.mark.parametrize("command", ["generate", "estimate"])
def test_trials_is_an_unknown_option(capsys, command):
    """Sample sizes are computed, not simulated, so there is no trial count."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--election", PLURALITY, "--seed", "1", "--trials", "20"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --trials 20" in capsys.readouterr().err


def test_spec_depends_on_seed_only_through_its_metadata(capsys, tmp_path):
    """Sample-size estimates involve no randomness: specs generated with two
    seeds differ only in the seed they record for ``audit init``."""
    docs = []
    for seed in ("1", "7"):
        spec = tmp_path / f"spec{seed}.json"
        assert run(capsys, "generate", "--election", IRV, "--level", "3", "--seed", seed, "--out", str(spec))[0] == 0
        docs.append(json.loads(spec.read_text()))
    assert [doc["metadata"].pop("seed") for doc in docs] == [1, 7]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_estimate_uses_no_seed(capsys, fmt):
    """``estimate`` draws nothing: without ``--seed`` it neither draws nor
    prints one, and its stdout is the same byte for byte whatever seed it
    is given.  ``--seed`` stays accepted, and its help says it does
    nothing here."""
    outs = []
    for seed in ([], ["--seed", "1"], ["--seed", "987654321"]):
        code, out, err = run(capsys, "--format", fmt, "estimate", "--election", IRV, *seed)
        assert code == 0
        assert "seed" not in err
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    assert "no effect" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("case", ["no-ballot-id-column", "missing-file"])
def test_audit_round_unreadable_manifest_exit_2(capsys, tmp_path, case):
    audit, manifest = _audit_after_init(capsys, tmp_path)
    if case == "no-ballot-id-column":
        manifest.write_text("draw_index,ballot\n1,b001\n")
    else:
        manifest = tmp_path / "absent.csv"
    code, _, err = run(capsys, "audit", "round", *audit, "--manifest", str(manifest),
                       "--interpretations", SMALL_CVRS)
    assert code == 2
    assert str(manifest) in err


def _not_utf8(data: bytes) -> bytes:
    return data + b"\xff"


# case: (command, option whose input file is spoiled, how)
UNREADABLE = {
    "election-not-utf8": ("tabulate", "--election", _not_utf8),
    "spec-not-utf8": ("audit init", "--spec", _not_utf8),
    "cvrs-not-utf8": ("audit init", "--cvrs", _not_utf8),
    "cvrs-field-too-large": ("audit init", "--cvrs", lambda data: data + b"b999," + b"A" * 200_000 + b"\n"),
    "interpretations-not-utf8": ("audit round", "--interpretations", _not_utf8),
    "manifest-not-utf8": ("audit round", "--manifest", _not_utf8),
    "state-not-utf8": ("audit round", "--state", _not_utf8),
    "eae-overflow": ("audit init", "--spec", lambda data: re.sub(rb'"eae": \d+', b'"eae": 1e999', data, count=1)),
    "total-ballots-overflow": (
        "audit init", "--spec", lambda data: re.sub(rb'"total_ballots": \d+', b'"total_ballots": 1e999', data)
    ),
}
COMMAND_FILES = {
    "tabulate": ("--election",),
    "audit init": ("--spec", "--cvrs", "--manifest", "--state"),
    "audit round": ("--spec", "--cvrs", "--manifest", "--interpretations", "--state"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exit_2(capsys, tmp_path, case):
    """A byte that is not UTF-8 in any input file, a CSV field beyond the csv
    module's size limit, or a spec number too large for an integer field
    exits 2 with a message instead of a traceback."""
    command, option, spoil = UNREADABLE[case]
    audit, manifest = _audit_after_init(capsys, tmp_path)
    files = {**dict(zip(audit[::2], audit[1::2])), "--election": SMALL, "--manifest": str(manifest),
             "--interpretations": SMALL_CVRS}
    if command == "audit init":  # writes these two
        files.update({"--manifest": str(tmp_path / "new.csv"), "--state": str(tmp_path / "new.json")})
    spoiled = tmp_path / "spoiled"
    spoiled.write_bytes(spoil(Path(files[option]).read_bytes()))
    files[option] = str(spoiled)
    argv = [arg for name in COMMAND_FILES[command] for arg in (name, files[name])]
    code, out, err = run(capsys, *command.split(), *argv)
    assert code == 2
    assert err.startswith("error: ") and out == ""
    if not case.endswith("-overflow"):
        assert "cannot read" in err and str(spoiled) in err


@pytest.mark.parametrize("case", ["cvrs-edited", "spec-swapped"])
def test_audit_round_bound_to_init_spec_and_cvrs(capsys, tmp_path, case):
    """``audit init`` records the SHA-256 of the spec and of the CVR file, and
    a round against any other file is refused.  Without that, blanking the
    CVRs of exactly the drawn ballots after init turns this round, which
    needs a full count (every drawn paper blank), into a confirmed one."""
    spec, cvrs = tmp_path / "spec.json", tmp_path / "cvrs.csv"
    cvrs.write_text(Path(SMALL_CVRS).read_text())
    run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "3", "--out", str(spec))
    manifest = tmp_path / "round1.csv"
    audit = ["--spec", str(spec), "--cvrs", str(cvrs), "--manifest", str(manifest),
             "--state", str(tmp_path / "state.json")]
    code, out, _ = run(capsys, "--format", "json", "audit", "init", *audit)
    assert code == 0 and json.loads(out)["draws"] == 29
    drawn = set(read_manifest(manifest))
    ids = [line.split(",")[0] for line in cvrs.read_text().splitlines()[1:]]
    paper = tmp_path / "paper.csv"
    paper.write_text("ballot_id,ranking\n" + "".join(f"{b},\n" for b in ids))
    state = Path(audit[-1])
    saved = state.read_bytes()
    assert run(capsys, "audit", "round", *audit, "--interpretations", str(paper))[0] == 4
    state.write_bytes(saved)
    if case == "cvrs-edited":
        lines = cvrs.read_text().splitlines(keepends=True)
        cvrs.write_text(lines[0] + "".join(f"{b},\n" if b in drawn else line for b, line in zip(ids, lines[1:])))
    elif case == "spec-swapped":
        run(capsys, "generate", "--election", SMALL, "--level", "3", "--seed", "3", "--out", str(spec))
    code, out, err = run(capsys, "audit", "round", *audit, "--interpretations", str(paper))
    assert code == 2 and out == ""
    assert f"{cvrs if case == 'cvrs-edited' else spec} is not the file this audit was initialised with" in err


@pytest.mark.parametrize("command", ["generate", "audit init"])
def test_output_into_missing_directory_exit_2(capsys, tmp_path, command):
    target = tmp_path / "absent" / "out.json"
    if command == "generate":
        argv = ["generate", "--election", SMALL, "--seed", "11", "--out", str(target)]
    else:
        spec = tmp_path / "spec.json"
        run(capsys, "generate", "--election", SMALL, "--level", "1", "--seed", "11", "--out", str(spec))
        argv = ["audit", "init", "--spec", str(spec), "--cvrs", SMALL_CVRS, "--manifest", str(target),
                "--state", str(tmp_path / "state.json")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert str(target) in err


def test_failed_state_write_keeps_the_recorded_rounds(capsys, monkeypatch, tmp_path):
    """A round whose state write fails (here the rename onto the state
    file) exits 2 naming the state, leaves the state's bytes as the last
    round wrote them and no temporary file beside it; the round can then be
    run again."""
    audit, _, second, _ = _escalating_audit(capsys, tmp_path)
    state = tmp_path / "state.json"
    before, files = state.read_bytes(), sorted(tmp_path.iterdir())

    def replace(source, target):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", replace)
    followup = ["audit", "round", *audit, "--manifest", str(second), "--interpretations", SMALL_CVRS]
    code, out, err = run(capsys, *followup)
    assert code == 2 and out == ""
    assert str(state) in err
    assert state.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == files
    monkeypatch.undo()
    assert run(capsys, *followup)[0] == 0
    assert len(json.loads(state.read_text())["state"]["rounds"]) == 2


@pytest.mark.parametrize("election", [PLURALITY, IRV], ids=["plurality", "irv"])
def test_estimate_matches_generate(capsys, tmp_path, election):
    """Each level that ``estimate`` reports is the spec ``generate`` writes
    for that level with the same seed."""
    code, out, _ = run(capsys, "--format", "json", "estimate", "--election", election, "--seed", "7")
    assert code == 0
    levels = json.loads(out)["levels"]
    for level in ("1", "2", "3"):
        spec_path = tmp_path / f"level{level}.json"
        code, out, _ = run(capsys, "generate", "--election", election, "--level", level, "--seed", "7",
                           "--out", str(spec_path))
        assert code == 0
        spec = load_audit_spec(spec_path)
        estimated = levels[level]
        assert estimated["status"] == spec.status
        assert estimated["assertions"] == len(spec.entries)
        assert estimated["per_assertion"] == [
            {"assertion": describe(e.assertion), "margin": float(e.margin), "asn": int(e.eae)}
            for e in spec.entries
        ]
        assert estimated["overall_asn"] == max(int(e.eae) for e in spec.entries)


@pytest.mark.parametrize(
    "election, search",
    [(PLURALITY, "gen_plurality_viability"), (IRV, "gen_irv_viability")],
    ids=["plurality", "irv"],
)
def test_estimate_runs_one_search(capsys, monkeypatch, election, search):
    """The viability assertions do not depend on the level, so ``estimate``
    searches once for all three levels."""
    calls = []

    def counting(name):
        original = getattr(viability, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("gen_plurality_viability", "gen_irv_viability"):
        monkeypatch.setattr(viability, name, counting(name))
    code, _, _ = run(capsys, "estimate", "--election", election, "--seed", "7")
    assert code == 0
    assert calls == [search]


@pytest.mark.parametrize("caller", ["enabled", "disabled"])
@pytest.mark.parametrize("election, code", [(SMALL, 0), ("malformed", 2)], ids=["exit-0", "exit-2"])
def test_command_pauses_the_collector_and_restores_it(capsys, monkeypatch, tmp_path, caller, election, code):
    """The cyclic collector is off while a command runs and, whatever the
    command's exit, as the caller had it once ``main`` returns."""
    if election == "malformed":
        election = tmp_path / "election.json"
        election.write_text(json.dumps(dict(WELL_TYPED, ballots=[{"ranking": ["A"]}])))
    during = []
    tabulate = cli.cmd_tabulate

    def spy(args):
        during.append(gc.isenabled())
        return tabulate(args)

    monkeypatch.setattr(cli, "cmd_tabulate", spy)
    was_enabled = gc.isenabled()
    if caller == "disabled":
        gc.disable()
    try:
        assert run(capsys, "tabulate", "--election", str(election))[0] == code
        assert during == [False]
        assert gc.isenabled() == (caller == "enabled")
    finally:
        if was_enabled:
            gc.enable()


def test_paused_collector_leaves_the_same_garbage_whatever_the_search(capsys, tmp_path):
    """A command's data holds no reference cycles, so with the collector
    paused the cyclic garbage a command leaves is a fixed few hundred
    objects (its argument parser), the same for a three-candidate contest
    as for the ten-candidate search's 512 set states."""
    ten = tmp_path / "ten.json"
    save_election(cyclic_contest(TEN_STRENGTHS), ten)
    left = []
    for election in (SMALL, ten, SMALL, ten):
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, "generate", "--election", str(election), "--level", "3", "--seed", "1",
                             "--out", str(tmp_path / "spec.json"))
            left.append(gc.collect())
        finally:
            gc.enable()
        assert code == 0
    assert len(set(left[1:])) == 1, left  # the first run may import what later runs reuse
    assert left[-1] < 1000


CVR_FAULTS = {
    "bad-header": lambda rows: ["ballot,ranking"] + rows[1:],
    "no-header": lambda rows: rows[1:],
    "empty-id": lambda rows: rows[:5] + ["," + rows[5].split(",")[1]] + rows[6:],
    "duplicate-id": lambda rows: rows + [rows[7]],
    "malformed-cell": lambda rows: rows[:9] + [rows[9].split(",")[0] + ",Pat||Remy"] + rows[10:],
    "repeated-label": lambda rows: rows[:9] + [rows[9].split(",")[0] + ",Quinn|Quinn"] + rows[10:],
    "empty-file": lambda rows: [],
}


@pytest.mark.parametrize("fault", sorted(CVR_FAULTS))
def test_audit_init_refuses_a_faulty_cvr_file(capsys, tmp_path, fault):
    """A CVR file broken in one place, at seeded random rows, ends ``audit
    init`` with exit 2 and an ``error:`` line, and the collector running."""
    spec = tmp_path / "spec.json"
    assert run(capsys, "generate", "--election", SMALL, "--level", "3", "--seed", "3", "--out", str(spec))[0] == 0
    rows = Path(SMALL_CVRS).read_text(encoding="utf-8").splitlines()
    rng = random.Random(fault)
    cvrs = tmp_path / "cvrs.csv"
    for _ in range(5):
        body = rows[1:]
        rng.shuffle(body)  # the fault lands on another row each time
        cvrs.write_text("".join(line + "\n" for line in CVR_FAULTS[fault](rows[:1] + body)), encoding="utf-8")
        code, out, err = run(capsys, "audit", "init", "--spec", str(spec), "--cvrs", str(cvrs),
                             "--manifest", str(tmp_path / "round1.csv"), "--state", str(tmp_path / "state.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert gc.isenabled()


def test_module_entry_point(capsys):
    """``python -m hamilton_rla`` runs the same ``main``: the same output and
    exit code as in process, and argparse's exit 2 with no subcommand."""
    argv = ["--format", "json", "tabulate", "--election", SMALL]
    expected = run(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    module = [sys.executable, "-m", "hamilton_rla"]
    done = subprocess.run(module + argv, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, expected[1])
    bare = subprocess.run(module, capture_output=True, text=True, env=env)
    assert bare.returncode == 2 and "the following arguments are required: command" in bare.stderr
