import json
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import DATA, random_plurality_profile, save_election
from hamilton_rla import (
    AuditSpec,
    ElectionDataError,
    RiskParams,
    SpecEntry,
    build_profile,
    load_audit_spec,
    load_cvrs,
    load_election,
    save_audit_spec,
    tabulate,
)
from hamilton_rla.assertions import IrvWins, NonViable, PairwiseDiff, Viable
from hamilton_rla.cli import main
from hamilton_rla.model import (
    assertion_from_dict,
    audit_spec_from_dict,
    audit_spec_to_dict,
    parse_proportion,
    parse_ranking_cell,
    write_json,
)
from hamilton_rla.viability import build_audit_spec


def test_load_plurality_example():
    profile = load_election(DATA / "election_plurality.json")
    assert profile.total_ballots == 75608
    assert profile.labels == ("Ann", "Bob", "Cal", "Dee")
    assert profile.threshold == Fraction(3, 20)
    assert profile.delegates == 5


def test_load_irv_example():
    profile = load_election(DATA / "election_irv.json")
    assert profile.total_ballots == 75608
    assert len(profile.rankings) == 6


def test_empty_ballot_list_gives_zero_total():
    profile = build_profile(["A", "B"], [], "0.15", 2, "plurality")
    assert profile.total_ballots == 0


def test_threshold_parsing_variants():
    assert parse_proportion("15/100") == Fraction(3, 20)
    assert parse_proportion("0.15") == Fraction(3, 20)
    assert parse_proportion(0.15) == Fraction(3, 20)
    with pytest.raises(ElectionDataError):
        parse_proportion("not a number")


@pytest.mark.parametrize(
    "ballots, message",
    [
        ([(["Zed"], 1)], "unknown candidate"),
        ([(["A", "A"], 1)], "repeated"),
        ([(["A"], -1)], "negative"),
        ([(["A"], 1.5)], "non-integer"),
    ],
)
def test_profile_validation_errors(ballots, message):
    with pytest.raises(ElectionDataError, match=message):
        build_profile(["A", "B"], ballots, "0.15", 2, "irv")


@pytest.mark.parametrize(
    "entry, message",
    [
        (("AB", 3), "ranking 'AB' must be a list or tuple of candidate labels"),
        ((None, 3), "ranking None must be a list or tuple of candidate labels"),
        ((5, 1), "ranking 5 must be a list or tuple of candidate labels"),
        (None, "ballot entry None must be a (ranking, count) pair"),
        ((["A"],), "ballot entry (['A'],) must be a (ranking, count) pair"),
        ((["A"], 1, 2), "ballot entry (['A'], 1, 2) must be a (ranking, count) pair"),
        ("AB", "ballot entry 'AB' must be a (ranking, count) pair"),
    ],
    ids=["str-ranking", "none-ranking", "int-ranking", "none-entry", "single", "triple", "str-entry"],
)
def test_malformed_entry_named(entry, message):
    """An entry that is not a (ranking, count) pair, or whose ranking is not
    a list or tuple, is named after the good entries before it; a string is
    never split into a ranking of its characters."""
    with pytest.raises(ElectionDataError) as raised:
        build_profile(["A", "B"], [(["B"], 2), entry], "1/4", 2, "irv")
    assert str(raised.value) == message


# A ranking with a choice that is not a roster label, or that repeats one,
# and the message naming its first offender: the set checks that pass a
# good ranking send every other one through the per-choice walk, whose
# wording these pin.
OFFENDERS = [
    (["Ann", "Zed"], "unknown candidate 'Zed' in ranking ['Ann', 'Zed']"),
    (["Ann", "Bob", "Ann"], "candidate 'Ann' repeated in ranking ['Ann', 'Bob', 'Ann']"),
    (["Ann", 1], "unknown candidate 1 in ranking ['Ann', 1]"),
    (["Ann", True], "unknown candidate True in ranking ['Ann', True]"),
    ([None], "unknown candidate None in ranking [None]"),
    (["Bob", 1.5], "unknown candidate 1.5 in ranking ['Bob', 1.5]"),
    (["Ann", ["Bob"]], "unknown candidate ['Bob'] in ranking ['Ann', ['Bob']]"),
    ([{"Ann": 1}], "unknown candidate {'Ann': 1} in ranking [{'Ann': 1}]"),
    (["Ann", "Ann", "Zed"], "candidate 'Ann' repeated in ranking ['Ann', 'Ann', 'Zed']"),
    (["Zed", "Ann", "Ann"], "unknown candidate 'Zed' in ranking ['Zed', 'Ann', 'Ann']"),
    (["Ann", "Ann", ["Bob"]], "candidate 'Ann' repeated in ranking ['Ann', 'Ann', ['Bob']]"),
]
OFFENDER_IDS = ["unknown", "repeated", "int", "true", "none", "float", "nested-list", "dict",
                "repeated-then-unknown", "unknown-then-repeated", "repeated-then-unhashable"]


@pytest.mark.parametrize("ranking, message", OFFENDERS, ids=OFFENDER_IDS)
def test_ranking_offender_named(ranking, message):
    with pytest.raises(ElectionDataError) as excinfo:
        build_profile(["Ann", "Bob", "Cal"], [(["Bob"], 3), (ranking, 2)], "1/4", 3, "irv")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("ranking, message", OFFENDERS, ids=OFFENDER_IDS)
def test_tabulate_names_the_ranking_offender(capsys, tmp_path, ranking, message):
    election = tmp_path / "election.json"
    election.write_text(json.dumps({
        "candidates": ["Ann", "Bob", "Cal"], "threshold": "1/4", "delegates": 3, "style": "irv",
        "ballots": [{"ranking": ["Bob"], "count": 3}, {"ranking": ranking, "count": 2}],
    }))
    assert main(["tabulate", "--election", str(election)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# Entry faults of two kinds, each as the entry that carries it (in place of
# a good ``{"ranking": ["Bob"], "count": 3}``) and the message naming it; a
# shape fault's message gives the entry's index i.
SHAPE_FAULTS = {
    "not-a-dict": (["Bob"], lambda i: f"ballot entry {i} must have 'ranking' and 'count'"),
    "missing-count": ({"ranking": ["Bob"]}, lambda i: f"ballot entry {i} must have 'ranking' and 'count'"),
    "ranking-not-a-list": ({"ranking": "Bob", "count": 3},
                           lambda i: f"ballot entry {i}: 'ranking' must be a list of strings"),
}
ENTRY_FAULTS = {
    "non-integer": ({"ranking": ["Bob"], "count": 2.5}, "non-integer ballot count 2.5"),
    "negative": ({"ranking": ["Bob"], "count": -4}, "negative ballot count -4"),
    "unknown": ({"ranking": ["Ann", "Zed"], "count": 3}, "unknown candidate 'Zed' in ranking ['Ann', 'Zed']"),
    "repeated": ({"ranking": ["Cal", "Cal"], "count": 3}, "candidate 'Cal' repeated in ranking ['Cal', 'Cal']"),
}


def _election_error(tmp_path, ballots, style="irv") -> str:
    election = tmp_path / "election.json"
    election.write_text(json.dumps({
        "candidates": ["Ann", "Bob", "Cal"], "threshold": "1/4", "delegates": 3, "style": style,
        "ballots": ballots,
    }))
    with pytest.raises(ElectionDataError) as excinfo:
        load_election(election)
    return str(excinfo.value)


@pytest.mark.parametrize("shape", sorted(SHAPE_FAULTS))
@pytest.mark.parametrize("fault", sorted(ENTRY_FAULTS))
@pytest.mark.parametrize("shape_first", [True, False], ids=["shape-first", "shape-last"])
def test_first_faulty_entry_named(tmp_path, shape, fault, shape_first):
    """Of two faulty entries, the earlier one is named, whichever kind of
    fault each has: entries are checked in file order."""
    shape_entry, shape_message = SHAPE_FAULTS[shape]
    fault_entry, fault_message = ENTRY_FAULTS[fault]
    ballots = [{"ranking": ["Bob"], "count": 3} for _ in range(6)]
    first, second = 1, 4
    ballots[first if shape_first else second] = shape_entry
    ballots[second if shape_first else first] = fault_entry
    expected = shape_message(first) if shape_first else fault_message
    assert _election_error(tmp_path, ballots) == expected


@pytest.mark.parametrize("earlier, later", [("repeated", "unknown"), ("negative", "non-integer"),
                                            ("unknown", "negative"), ("non-integer", "repeated")])
def test_first_of_two_entry_faults_named(tmp_path, earlier, later):
    ballots = [{"ranking": ["Bob"], "count": 3}, ENTRY_FAULTS[earlier][0], ENTRY_FAULTS[later][0]]
    assert _election_error(tmp_path, ballots) == ENTRY_FAULTS[earlier][1]


@pytest.mark.parametrize(
    "entry, message",
    [
        # the shape before the count
        ({"ranking": "Zed", "count": -1}, "ballot entry 1: 'ranking' must be a list of strings"),
        ({"ranking": ["Zed"]}, "ballot entry 1 must have 'ranking' and 'count'"),
        # the count before the labels
        ({"ranking": ["Zed"], "count": 1.5}, "non-integer ballot count 1.5"),
        ({"ranking": ["Ann", "Ann"], "count": -2}, "negative ballot count -2"),
        ({"ranking": ["Ann", "Ann"], "count": True}, "non-integer ballot count True"),
        # the labels before the plurality length
        ({"ranking": ["Ann", "Zed"], "count": 1}, "unknown candidate 'Zed' in ranking ['Ann', 'Zed']"),
    ],
    ids=["shape-then-count", "missing-count-then-label", "non-integer-then-label",
         "negative-then-repeated", "bool-then-repeated", "label-then-plurality"],
)
def test_faults_within_one_entry_named_in_order(tmp_path, entry, message):
    ballots = [{"ranking": ["Bob"], "count": 3}, entry, {"ranking": ["Ann", "Ann"], "count": 1}]
    assert _election_error(tmp_path, ballots, style="plurality") == message


def test_plurality_rejects_long_rankings():
    with pytest.raises(ElectionDataError, match="plurality"):
        build_profile(["A", "B"], [(["A", "B"], 1)], "0.15", 2, "plurality")


def test_duplicate_roster_label_rejected():
    with pytest.raises(ElectionDataError, match="duplicate"):
        build_profile(["A", "A"], [], "0.15", 2, "plurality")


@pytest.mark.parametrize("label", ["Bo|b", " Bob", "Bob ", ""])
def test_roster_label_a_cvr_cell_cannot_hold_rejected(label):
    # a CVR cell splits on "|" and strips each label, so it could never
    # record a ballot for this candidate
    with pytest.raises(ElectionDataError, match=re.escape(f"candidate label {label!r}")):
        build_profile(["Ann", label], [(["Ann"], 1)], "0.15", 2, "irv")


@pytest.mark.parametrize("label", [["A"], {"A": 1}], ids=["list", "dict"])
def test_unhashable_roster_label_rejected(label):
    """A label that is no string is named before the duplicate check hashes it."""
    with pytest.raises(ElectionDataError) as raised:
        build_profile([label, "B"], [], "1/4", 1, "irv")
    assert str(raised.value) == (
        f"candidate label {label!r} cannot be written in a CVR ranking cell: a label must be "
        "a non-empty string without '|' and without leading or trailing whitespace"
    )


def test_aggregation_split_lines_equivalent(tmp_path):
    """A ranking split across several entries equals one summed entry."""
    split = build_profile(
        ["A", "B"], [(["A"], 10), (["A"], 5), (["B"], 3)], "0.15", 2, "plurality"
    )
    merged = build_profile(["A", "B"], [(["A"], 15), (["B"], 3)], "0.15", 2, "plurality")
    assert dict(split.rankings) == dict(merged.rankings)
    assert tabulate(split) == tabulate(merged)


def test_election_round_trip(tmp_path, irv_profile):
    path = tmp_path / "e.json"
    save_election(irv_profile, path)
    assert load_election(path) == irv_profile


def test_load_cvrs(tmp_path):
    path = tmp_path / "cvrs.csv"
    path.write_text("ballot_id,ranking\nb1,A|D|C|B\nb2,\nb3,C\n")
    cvrs = load_cvrs(path)
    assert list(cvrs) == ["b1", "b2", "b3"]
    assert cvrs == {"b1": ("A", "D", "C", "B"), "b2": (), "b3": ("C",)}


def test_load_cvrs_reads_columns_by_position(tmp_path):
    """The header check strips its names, so the columns are read by
    position: a spaced header must not turn every ranking blank."""
    path = tmp_path / "cvrs.csv"
    path.write_text("ballot_id, ranking\nb1,A|B\n")
    assert load_cvrs(path) == {"b1": ("A", "B")}


def test_load_cvrs_duplicate_id_named(tmp_path):
    path = tmp_path / "cvrs.csv"
    path.write_text("ballot_id,ranking\nb7,A\nb7,B\n")
    with pytest.raises(ElectionDataError, match=":3: duplicate ballot_id 'b7'"):
        load_cvrs(path)


def test_load_cvrs_repeated_cells_share_one_ranking(tmp_path):
    path = tmp_path / "cvrs.csv"
    path.write_text("ballot_id,ranking\nb4,A|B\nb2,C\nb9,\nb1, A | B\nb3,A|B\nb5,\n")
    cvrs = load_cvrs(path)
    assert list(cvrs) == ["b4", "b2", "b9", "b1", "b3", "b5"]
    assert list(cvrs.values()) == [("A", "B"), ("C",), (), ("A", "B"), ("A", "B"), ()]
    assert cvrs["b3"] is cvrs["b4"]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("b1,A\nb2,A||B\nb3,C\nb4,A||B\n", ":3: malformed ranking cell"),
        ("b1,A\nb2,B|B\nb3,B|B\n", ":3: candidate repeated"),
        ("b7,A\nb8,B\nb7,B\n", ":4: duplicate ballot_id 'b7'"),
        ("b1,A\n,A\n", ":3: empty ballot_id"),
        ("b1,A\n\nb2,A||B\n", ":4: malformed ranking cell"),
    ],
    ids=["malformed-cell", "repeated-candidate", "duplicate-id", "empty-id", "after-blank-line"],
)
def test_load_cvrs_errors_name_first_bad_line(tmp_path, rows, message):
    path = tmp_path / "cvrs.csv"
    path.write_text("ballot_id,ranking\n" + rows)
    with pytest.raises(ElectionDataError) as excinfo:
        load_cvrs(path)
    assert str(excinfo.value).startswith(f"{path}{message}")


def test_malformed_ranking_cell():
    with pytest.raises(ElectionDataError, match="malformed"):
        parse_ranking_cell("A||B")
    with pytest.raises(ElectionDataError, match="repeated"):
        parse_ranking_cell("A|A")


def _example_spec(plurality_profile, level=1):
    outcome = tabulate(plurality_profile)
    spec, _ = build_audit_spec(plurality_profile, outcome, level, RiskParams(seed=42))
    return spec


def test_spec_round_trip_identity(tmp_path, plurality_profile):
    spec = _example_spec(plurality_profile)
    assert len(spec.entries) == 4
    path = tmp_path / "spec.json"
    save_audit_spec(spec, path)
    assert load_audit_spec(path) == spec


def test_spec_round_trip_all_assertion_types(tmp_path):
    entries = tuple(
        SpecEntry(a, Fraction(1, 2), eae)
        for a, eae in [
            (Viable("A", frozenset({"B"}), Fraction(3, 20)), 10),
            (NonViable("B", frozenset(), Fraction(3, 20)), 20),
            (IrvWins("A", "B", frozenset({"C"})), 30),
            (PairwiseDiff("A", "B", Fraction(-2, 5), frozenset({"A", "B"})), math.inf),
        ]
    )
    spec = AuditSpec(entries, 3, "complete", 100, RiskParams(seed=9))
    path = tmp_path / "spec.json"
    save_audit_spec(spec, path)
    loaded = load_audit_spec(path)
    assert loaded == spec
    assert math.isinf(loaded.entries[-1].eae)


@pytest.mark.parametrize(
    "data",
    [
        {"type": "viable", "winner": "A", "eliminated": "BC", "t": "3/20"},
        {"type": "nonviable", "winner": ["A"], "eliminated": [], "t": "3/20"},
        {"type": "irv_wins", "winner": "A", "loser": 5, "eliminated": []},
        {"type": "irv_wins", "winner": "A", "loser": "B", "eliminated": ["C", 1]},
        {"type": "pairwise_diff", "winner": "A", "loser": "B", "d": "0", "viable": "AB"},
    ],
    ids=["eliminated-string", "winner-list", "loser-number", "eliminated-number", "viable-string"],
)
def test_spec_assertion_labels_must_be_strings(data):
    with pytest.raises(ElectionDataError, match="bad assertion object"):
        assertion_from_dict(data)


def test_spec_serialization_byte_stable(tmp_path, plurality_profile):
    spec = _example_spec(plurality_profile)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_audit_spec(spec, a)
    save_audit_spec(spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_spec_unknown_type_tag_rejected(tmp_path, plurality_profile):
    spec = _example_spec(plurality_profile)
    data = audit_spec_to_dict(spec)
    data["assertions"][0]["type"] = "mystery"
    with pytest.raises(ElectionDataError, match="mystery"):
        audit_spec_from_dict(data)


def test_spec_schema_version_mismatch(tmp_path, plurality_profile):
    spec = _example_spec(plurality_profile)
    data = audit_spec_to_dict(spec)
    data["schema_version"] = 99
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ElectionDataError, match="schema version"):
        load_audit_spec(path)


def test_random_profile_save_load_round_trip(tmp_path):
    rng = random.Random(5)
    for i in range(25):
        profile = random_plurality_profile(rng)
        path = tmp_path / f"p{i}.json"
        save_election(profile, path)
        assert load_election(path) == profile


def test_write_json_gives_a_plain_write_mode(tmp_path):
    """The written file gets the mode a plain write gives a new file (not
    a temporary file's 0600) and no temporary file stays beside it."""
    plain = tmp_path / "plain.json"
    plain.write_text("{}\n", encoding="utf-8")
    write_json({"a": [1]}, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == '{\n  "a": [\n    1\n  ]\n}\n'
    assert (tmp_path / "out.json").stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "plain.json"]
