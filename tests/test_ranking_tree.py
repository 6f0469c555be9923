"""Property test: pile counts walked through the ranking tree equal a scan
of every distinct ranking with ``top_remaining``."""
from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hamilton_rla import ElectionProfile, build_profile
from hamilton_rla.model import IRV
from hamilton_rla.tabulation import count_piles, top_remaining


def scan_piles(profile, eliminated):
    """The reference tally: each non-blank ranking's top standing choice."""
    piles = {c: 0 for c in profile.labels if c not in eliminated}
    exhausted = 0
    for ranking, count in profile.rankings.items():
        if not ranking:
            continue
        top = top_remaining(ranking, eliminated)
        if top is None:
            exhausted += count
        else:
            piles[top] += count
    return piles, exhausted


@st.composite
def profiles(draw):
    """Rosters of 1-7 labels; each drawn order contributes one or more of
    its prefixes (the empty one is a blank), so rankings that are prefixes
    of others, repeats and zero counts are common.  Zero counts are kept,
    which ``build_profile`` would drop, so the tree must cope with them."""
    labels = tuple(f"c{i}" for i in range(draw(st.integers(1, 7))))
    rankings: dict[tuple[str, ...], int] = {}
    for order in draw(st.lists(st.permutations(labels), max_size=10)):
        for length in draw(st.lists(st.integers(0, len(labels)), min_size=1, max_size=3)):
            ranking = tuple(order[:length])
            rankings[ranking] = rankings.get(ranking, 0) + draw(st.integers(0, 9))
    return ElectionProfile(labels, rankings, Fraction(1, 10), 1, IRV)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profile=profiles())
def test_tree_tally_matches_a_scan_for_every_elimination_set(profile):
    for size in range(len(profile.labels) + 1):
        for eliminated in map(frozenset, combinations(profile.labels, size)):
            piles, exhausted = count_piles(profile, eliminated)
            expected_piles, expected_exhausted = scan_piles(profile, eliminated)
            assert list(piles.items()) == list(expected_piles.items())
            assert exhausted == expected_exhausted


def test_tree_is_built_on_first_use_and_kept():
    profile = build_profile(["A", "B"], [(["A", "B"], 3), (["A"], 2), ([], 4)], "1/10", 1, IRV)
    assert "ranking_tree" not in vars(profile)
    tree = profile.ranking_tree
    assert profile.ranking_tree is tree
    # [through, ended, children]; the blank ballots stay out of the tree
    assert tree == [5, 0, {"A": [5, 2, {"B": [3, 3, None]}]}]
