"""Pile counts walked through the ranking tree, which grows as tallies walk
down it, equal a scan of every distinct ranking with ``conftest.top_choice``.
The hypothesis-drawn profiles are in ``test_ranking_tree_fuzz.py``."""
import copy
import random
import sys
import threading
from dataclasses import replace

from conftest import DATA, assert_tallies_match_scan, elimination_sets, random_irv_profile, scan_piles

from hamilton_rla import build_profile, load_election
from hamilton_rla.model import IRV
from hamilton_rla.tabulation import _grow, count_piles


def test_tree_tally_matches_a_scan_on_seeded_and_sample_contests():
    rng = random.Random(17)
    profiles = [random_irv_profile(rng) for _ in range(50)]
    samples = [load_election(path) for path in sorted(DATA.glob("election_*.json"))]
    profiles += [p for p in samples if p.style == IRV]
    assert len(profiles) == 51
    for profile in profiles:
        sets = elimination_sets(profile.labels)
        rng.shuffle(sets)  # the order the tree grows in
        assert_tallies_match_scan(profile, sets)


def test_tree_is_built_on_first_use_and_kept():
    profile = build_profile(
        ["A", "B"], [(["A", "B"], 3), (["A"], 2), (["B"], 1), ([], 4)], "1/10", 1, IRV
    )
    assert "ranking_tree" not in vars(profile)
    tree = profile.ranking_tree
    # [through, ended, children, pending]; the blank ballots stay out of the tree
    assert tree == [6, 0, None, [(("A", "B"), 3), (("A",), 2), (("B",), 1)]]

    # nothing eliminated: only the root grows, its children stay pending
    assert count_piles(profile, frozenset()) == ({"A": 5, "B": 1}, 0)
    assert profile.ranking_tree is tree
    a, b = tree[2]["A"], tree[2]["B"]
    assert tree[3] is None
    assert a == [5, 0, None, [(("A", "B"), 3), (("A",), 2)]]
    assert b == [1, 0, None, [(("B",), 1)]]

    # eliminating A grows A alone; B is still standing, so still pending
    assert count_piles(profile, frozenset({"A"})) == ({"B": 4}, 2)
    assert profile.ranking_tree is tree
    assert tree[2]["A"] is a
    assert a == [5, 2, {"B": [3, 0, None, [(("A", "B"), 3)]]}, None]
    assert b == [1, 0, None, [(("B",), 1)]]

    # a second tally walks the grown nodes without rebuilding them
    children = a[2]
    assert count_piles(profile, frozenset({"A"})) == ({"B": 4}, 2)
    assert a[2] is children


def test_a_node_grown_twice_ends_up_the_same():
    """Two tallies racing on a shared profile may both grow a node from the
    same pending pairs; the second growth must leave what the first did."""
    profile = build_profile(["A", "B"], [(["A", "B"], 3), (["A"], 2), (["B"], 1)], "1/10", 1, IRV)
    tree = profile.ranking_tree
    count_piles(profile, frozenset())
    a = tree[2]["A"]
    pending = a[3]
    count_piles(profile, frozenset({"A"}))
    grown = copy.deepcopy(a)
    _grow(a, 1, pending)  # a late growth from the pairs it read before the first
    assert a == grown == [5, 2, {"B": [3, 0, None, [(("A", "B"), 3)]]}, None]
    assert_tallies_match_scan(profile, elimination_sets(profile.labels))


def test_threads_sharing_a_profile_tally_alike():
    """Tallies racing on one profile, with thread switches forced often,
    each equal the scan: a node grown by two threads at once loses and
    doubles no count.  Each round starts a fresh tree."""
    rng = random.Random(5)
    labels = [f"c{i}" for i in range(6)]
    ballots = [(rng.sample(labels, rng.randint(1, 6)), rng.randint(1, 50)) for _ in range(3000)]
    profile = build_profile(labels, ballots, "1/10", 1, IRV)
    expected = {s: scan_piles(profile, s) for s in elimination_sets(labels)}
    failures = []

    def tally(shared, order):
        failures.extend(s for s in order if count_piles(shared, s) != expected[s])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared = replace(profile)
            orders = [rng.sample(list(expected), len(expected)) for _ in range(4)]
            threads = [threading.Thread(target=tally, args=(shared, order)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
