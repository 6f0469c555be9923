"""Fuzz test: ``audit init`` on a valid spec of ``election_small.json`` with
the document, a metadata or header field, or a field of an assertion
object replaced by arbitrary JSON (or removed) ends with exit 0, 2 or 4,
never with an exception."""
import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import DATA
from hamilton_rla.cli import main

ELECTION = str(DATA / "election_small.json")
CVRS = str(DATA / "cvrs_small.csv")

# values at the edges: a zero denominator, numbers for strings, tiny and
# huge rationals and counts, labels of the contest and one it does not have
EDGES = st.sampled_from([0, -1, 1, 2, 10**30, 0.0, 0.25, -0.5, 1e308, float("inf"), "", "0", "1/0", "-1/4",
                         "1e-400", "1e400", "nan", "2/3", "Pat", "Remy", "Zed", "viable", "irv_wins", "complete"])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | EDGES
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@functools.lru_cache(maxsize=None)
def _base_spec() -> str:
    """A level-3 spec of the small election: viable, nonviable and
    pairwise-difference assertions."""
    with tempfile.TemporaryDirectory() as directory:
        spec = Path(directory) / "spec.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--election", ELECTION, "--level", "3", "--seed", "3", "--out", str(spec)]) == 0
        return spec.read_text(encoding="utf-8")


@st.composite
def edits(draw):
    """Where to put an arbitrary value: (place, assertion index, field, value);
    a field whose drawn value is None is sometimes removed instead."""
    base = json.loads(_base_spec())
    where = draw(st.sampled_from(["document", "header", "metadata", "assertion"]))
    index = draw(st.integers(0, len(base["assertions"]) - 1))
    record = {"document": {}, "header": base, "metadata": base["metadata"], "assertion": base["assertions"][index]}
    field = draw(st.sampled_from(sorted(record[where]))) if record[where] else None
    return where, index, field, draw(JSON), draw(st.booleans())


def _apply(edit) -> object:
    where, index, field, value, remove = edit
    doc = json.loads(_base_spec())
    if where == "document":
        return value
    record = {"header": doc, "metadata": doc["metadata"], "assertion": doc["assertions"][index]}[where]
    if remove and value is None:
        del record[field]
    else:
        record[field] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edit=edits())
@example(edit=("assertion", 0, "t", "1/0", False))
@example(edit=("assertion", 2, "margin", "1/0", False))
@example(edit=("assertion", 3, "d", "1/0", False))
@example(edit=("assertion", 0, "eae", 10**30, False))
def test_audit_init_survives_any_broken_spec(edit):
    with tempfile.TemporaryDirectory() as directory:
        spec = Path(directory) / "spec.json"
        spec.write_text(json.dumps(_apply(edit)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["audit", "init", "--spec", str(spec), "--cvrs", CVRS,
                         "--manifest", str(Path(directory) / "round1.csv"),
                         "--state", str(Path(directory) / "state.json")])
    assert code in (0, 2, 4)
    if code == 2:
        assert err.getvalue().startswith("error: ")
