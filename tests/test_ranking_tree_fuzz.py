"""Property tests: the ranking tree's tallies equal a scan of every distinct
ranking with ``conftest.top_choice`` on hypothesis-drawn profiles, whatever order
the elimination sets are tallied in."""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import assert_tallies_match_scan, elimination_sets

from hamilton_rla import ElectionProfile
from hamilton_rla.model import IRV


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
    assert_tallies_match_scan(profile, elimination_sets(profile.labels))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tree_tally_matches_a_scan_whatever_order_it_grows_in(data):
    profile = data.draw(profiles())
    order = data.draw(st.permutations(elimination_sets(profile.labels)))
    assert_tallies_match_scan(profile, order)
    assert_tallies_match_scan(profile, order)  # now through grown nodes
