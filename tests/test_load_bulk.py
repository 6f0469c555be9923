"""Property test: ``load_election`` checks and merges a file's ballot
entries in bulk, and must give the profile that ``build_profile`` gives
when fed the same entries one at a time; with faults planted, it must name
the first faulty entry, as the one-at-a-time walk does."""
import json
import random
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hamilton_rla import ElectionDataError, build_profile, load_election
from hamilton_rla.model import _merge_in_bulk


def _election(rng: random.Random, entries: int, style: str) -> dict:
    """A valid election of ``entries`` ballot entries, with blank rankings
    and zero counts among them.  Half the IRV elections have a distinct
    ranking in every entry; the others draw from a pool of rankings small
    enough that some repeat across entries."""
    distinct = style == "irv" and rng.random() < 0.5
    labels = [f"L{k}" for k in range(8 if distinct else rng.randint(2, 6))]
    longest = 1 if style == "plurality" else len(labels)
    if distinct:
        drawn: dict[tuple, None] = {}
        while len(drawn) < entries:
            drawn[tuple(rng.sample(labels, rng.randint(0, longest)))] = None
        rankings = list(map(list, drawn))
    else:
        pool = [rng.sample(labels, rng.randint(0, longest)) for _ in range(rng.randint(1, entries))]
        rankings = [list(rng.choice(pool)) for _ in range(entries)]
    zero = rng.choice([0, 0.05, 0.3])
    ballots = [
        {"ranking": ranking, "count": 0 if rng.random() < zero else rng.choice([rng.randint(1, 1000), 10**30])}
        for ranking in rankings
    ]
    return {"candidates": labels, "threshold": "1/5", "delegates": 3, "style": style, "ballots": ballots}


FAULTS = ["not-a-dict", "no-count", "no-ranking", "ranking-not-a-list", "non-integer", "bool",
          "negative", "unknown", "unhashable", "repeated", "plurality-long"]


def _plant(doc: dict, i: int, fault: str) -> str:
    """Replace entry ``i`` with a faulty one; return the message naming it."""
    labels, style = doc["candidates"], doc["style"]
    entry = doc["ballots"][i]
    ranking, count = entry["ranking"], entry["count"]
    shape = f"ballot entry {i} must have 'ranking' and 'count'"
    if fault == "plurality-long" and style != "plurality":
        fault = "repeated"
    if fault == "not-a-dict":
        doc["ballots"][i] = ranking
        return shape
    if fault == "no-count":
        doc["ballots"][i] = {"ranking": ranking}
        return shape
    if fault == "no-ranking":
        doc["ballots"][i] = {"count": count}
        return shape
    if fault == "ranking-not-a-list":
        entry["ranking"] = "|".join(ranking)
        return f"ballot entry {i}: 'ranking' must be a list of strings"
    if fault == "non-integer":
        entry["count"] = count + 0.5
        return f"non-integer ballot count {count + 0.5!r}"
    if fault == "bool":
        entry["count"] = True
        return "non-integer ballot count True"
    if fault == "negative":
        entry["count"] = -1 - i
        return f"negative ballot count {-1 - i}"
    if fault in ("unknown", "unhashable"):
        choice = f"Zed{i}" if fault == "unknown" else [labels[0]]
        entry["ranking"] = ranking = ranking + [choice]
        return f"unknown candidate {choice!r} in ranking {ranking}"
    if fault == "repeated":
        entry["ranking"] = ranking = (ranking + ranking[:1]) if ranking else [labels[0], labels[0]]
        return f"candidate {ranking[0]!r} repeated in ranking {ranking}"
    entry["ranking"] = ranking = labels[:2]
    return f"plurality contest cannot rank more than one candidate: {ranking}"


def _load(doc: dict):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "election.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_election(path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), entries=st.integers(50, 2000), style=st.sampled_from(["irv", "plurality"]))
def test_bulk_load_matches_entry_by_entry(seed, entries, style):
    doc = _election(random.Random(seed), entries, style)
    pairs = [(b["ranking"], b["count"]) for b in doc["ballots"]]
    expected = build_profile(doc["candidates"], pairs, doc["threshold"], doc["delegates"], style)
    assert _merge_in_bulk(frozenset(doc["candidates"]), doc["ballots"], style) is not None
    loaded = _load(doc)
    assert list(loaded.rankings.items()) == list(expected.rankings.items())
    assert loaded.total_ballots == expected.total_ballots
    assert loaded.valid_ballots == expected.valid_ballots == sum(n for r, n in pairs if r)
    assert loaded.ranking_tree == expected.ranking_tree
    assert loaded == expected


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    entries=st.integers(50, 2000),
    style=st.sampled_from(["irv", "plurality"]),
    first=st.sampled_from(FAULTS),
    second=st.none() | st.sampled_from(FAULTS),
    data=st.data(),
)
def test_bulk_load_names_the_first_faulty_entry(seed, entries, style, first, second, data):
    doc = _election(random.Random(seed), entries, style)
    i = data.draw(st.integers(0, entries - 1), label="i")
    message = _plant(doc, i, first)
    if second is not None and i < entries - 1:
        _plant(doc, data.draw(st.integers(i + 1, entries - 1), label="j"), second)
    with pytest.raises(ElectionDataError) as excinfo:
        _load(doc)
    assert str(excinfo.value) == message
