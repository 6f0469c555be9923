"""Fuzz test: ``tabulate`` on an election file with wrong JSON types or
values in any top-level field, ballot entry, ranking or ranking entry ends
with one of the documented exit codes, never with an exception."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamilton_rla.cli import main

BASE = {
    "candidates": ["Ann", "Bob", "Cal"],
    "threshold": "1/4",
    "delegates": 3,
    "style": "irv",
    "ballots": [
        {"ranking": ["Ann", "Bob"], "count": 40},
        {"ranking": ["Bob"], "count": 35},
        {"ranking": ["Cal", "Bob", "Ann"], "count": 25},
    ],
}
FIELDS = sorted(BASE)

# stands for an integer literal longer than Python parses by default
# (4,300 digits), which json.dumps cannot write itself
TOO_LONG = "<too-long-int>"
# values at the edges: beyond float range, tiny and huge proportions,
# labels and styles out of place
EDGES = st.sampled_from([0, -1, 1, 2, 10**30, 10**400, TOO_LONG, 0.0, -0.5, 1e-300, 1e308, float("inf"),
                         "", "0", "1/0", "-1/4", "1e-400", "1e400", "nan", "Ann", "plurality", "irv"])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | EDGES
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def broken_elections(draw):
    """The base election with one place replaced by an arbitrary JSON
    value (or, for a field, removed)."""
    doc = json.loads(json.dumps(BASE))
    where = draw(st.sampled_from(["document", "field", "ballot", "ranking", "count", "choice"]))
    value = draw(JSON)
    ballot = draw(st.integers(0, len(doc["ballots"]) - 1))
    if where == "document":
        return value
    if where == "field":
        field = draw(st.sampled_from(FIELDS))
        if draw(st.booleans()) and value is None:
            del doc[field]
        else:
            doc[field] = value
    elif where == "ballot":
        doc["ballots"][ballot] = value
    elif where in ("ranking", "count"):
        doc["ballots"][ballot][where] = value
    else:
        ranking = doc["ballots"][ballot]["ranking"]
        ranking[draw(st.integers(0, len(ranking) - 1))] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=broken_elections(), output=st.sampled_from(["text", "json"]))
@example(doc=dict(BASE, delegates=10**400), output="text")
@example(doc=dict(BASE, delegates=10**400), output="json")
@example(doc=dict(BASE, delegates=TOO_LONG), output="text")
@example(doc=dict(BASE, threshold=float("inf")), output="text")
def test_tabulate_survives_any_broken_election(doc, output):
    with tempfile.TemporaryDirectory() as directory:
        election = Path(directory) / "election.json"
        text = json.dumps(doc).replace(json.dumps(TOO_LONG), "1" + "0" * 5000)
        election.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", output, "tabulate", "--election", str(election)])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert err.getvalue().startswith("error: ")
