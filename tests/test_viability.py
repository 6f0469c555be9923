import gc
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import TEN_STRENGTHS, cyclic_contest, perturb_profile, random_irv_profile, random_plurality_profile
from hamilton_rla import (
    RiskParams,
    UnsupportedOutcomeError,
    build_audit_spec,
    build_profile,
    tabulate,
    viability,
)
from hamilton_rla.assertions import IrvWins, NonViable, Viable, assertion_key
from hamilton_rla.model import IRV, PLURALITY, STATUS_COMPLETE, STATUS_FULL_COUNT, audit_spec_to_dict, load_election
from hamilton_rla.risk import estimate_asn, estimate_audit_asn
from hamilton_rla.tabulation import irv_viability
from hamilton_rla.viability import (
    AltOutcomeNode,
    AuditContext,
    _cheapest,
    best_root_assertion,
    branch_and_bound,
    build_audit_specs,
    compute_W_L,
    enumerate_alt_sets,
    expand_node,
    gen_plurality_viability,
    max_viable,
)

DATA = Path(__file__).parent / "data"
TAU = Fraction(3, 20)
PARAMS = RiskParams(seed=42)


def test_max_viable():
    assert max_viable(Fraction(15, 100)) == 6
    assert max_viable(Fraction(1, 2)) == 2
    assert max_viable(Fraction(1)) == 1
    assert max_viable(Fraction(1, 4)) == 4


def test_plurality_spec_example(plurality_profile):
    outcome = tabulate(plurality_profile)
    spec, _ = build_audit_spec(plurality_profile, outcome, 1, PARAMS)
    assert spec.status == STATUS_COMPLETE
    kinds = [type(e.assertion).__name__ for e in spec.entries]
    assert kinds == ["Viable", "Viable", "NonViable", "NonViable"]
    expected = {"Ann": 4.073, "Bob": 0.378, "Cal": 0.152, "Dee": 0.163}
    asns = []
    for e in spec.entries:
        assert abs(float(e.margin) - expected[e.assertion.candidate]) < 0.001
        asns.append(e.eae)
    # reported estimates were 1, 17, 46, 42 with an overall of 46
    for got, reported in zip(asns, (1, 17, 46, 42)):
        assert abs(got - reported) <= 0.3 * reported
    overall = max(asns)
    assert abs(overall - 46) <= 0.3 * 46


def test_plurality_all_viable_only_viable_assertions():
    profile = build_profile(["A", "B"], [(["A"], 60), (["B"], 40)], TAU, 2, "plurality")
    outcome = tabulate(profile)
    result = gen_plurality_viability(AuditContext(profile, PARAMS), outcome)
    assert all(isinstance(e.assertion, Viable) for e in result.entries)
    assert result.closed
    assert build_audit_spec(profile, outcome, 1, PARAMS)[0].status == STATUS_COMPLETE


def test_plurality_threshold_one_unanimous_required():
    # at threshold 1 only a unanimous candidate is viable; a split contest
    # has no supported outcome at all
    profile = build_profile(["A", "B"], [(["A"], 99), (["B"], 1)], Fraction(1), 2, "plurality")
    with pytest.raises(UnsupportedOutcomeError):
        tabulate(profile)
    # with a unanimous winner the other candidate admits no non-viability
    # assertion (the form needs threshold < 1): only a full count certifies
    profile = build_profile(["A", "B"], [(["A"], 100), (["B"], 0)], Fraction(1), 2, "plurality")
    outcome = tabulate(profile)
    assert outcome.viable == {"A"}
    result = gen_plurality_viability(AuditContext(profile, PARAMS), outcome)
    assert not result.closed
    assert build_audit_spec(profile, outcome, 1, PARAMS)[0].status == STATUS_FULL_COUNT


def test_plurality_exact_threshold_full_count():
    # 15 of 100 sits exactly on the cutoff: viable, but margin is zero
    profile = build_profile(["A", "B"], [(["A"], 85), (["B"], 15)], TAU, 2, "plurality")
    outcome = tabulate(profile)
    assert outcome.viable == {"A", "B"}
    result = gen_plurality_viability(AuditContext(profile, PARAMS), outcome)
    assert result.closed  # every outcome is ruled out, but not affordably
    assert any(e.margin == 0 for e in result.entries)
    assert build_audit_spec(profile, outcome, 1, PARAMS)[0].status == STATUS_FULL_COUNT


def _status_by_rule(spec, log):
    """The status rule read off a built spec and its proof log."""
    closed = not any(line.startswith("FAIL:") for line in log)
    tie = any(line.startswith("delegates: exact remainder tie") for line in log)
    auditable = all(e.margin > 0 and not math.isinf(e.eae) for e in spec.entries)
    return STATUS_COMPLETE if closed and not tie and auditable else STATUS_FULL_COUNT, (closed, tie, auditable)


def test_status_is_complete_exactly_when_closed_untied_and_auditable():
    """A spec is complete exactly when its search ruled out every
    alternative outcome (no ``FAIL:`` line), the allocation has no
    remainder tie, and every entry has a positive margin and a finite
    ``eae``; each level's log ends with its one ``status`` line, which
    gives that level's own status and entry count.  Seeded plurality and
    IRV contests at levels 1-3 exercise each condition on its own."""
    rng = random.Random(7)
    unanimous = build_profile(["A", "B", "C"], [(["A"], 100)], Fraction(1), 2, "plurality")
    contests = [unanimous] + [
        (random_irv_profile if i % 2 else random_plurality_profile)(rng) for i in range(200)
    ]
    params = RiskParams(seed=3)
    seen = Counter()
    for profile in contests:
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        specs = build_audit_specs(profile, outcome, (1, 2, 3), params)
        for level, (spec, log) in specs.items():
            status, conditions = _status_by_rule(spec, log)
            assert spec.status == status, (level, log)
            seen[profile.style, conditions] += 1
            status_lines = [line for line in log if line.startswith("status: ")]
            assert status_lines == [log[-1]] == [f"status: {spec.status}; assertions: {len(spec.entries)}"]
            seen["status differs from level 1"] += spec.status != specs[1][0].status
    # (closed, tie, auditable): only the threshold-1 contest leaves a plurality search open
    assert seen[PLURALITY, (False, False, False)] == 3
    for style in (PLURALITY, IRV):
        assert seen[style, (True, False, True)] > 0
        assert seen[style, (True, True, True)] > 0
        assert seen[style, (True, False, False)] > 0
    assert seen[IRV, (False, False, True)] > 0
    assert seen["status differs from level 1"] > 0


def test_compute_W_L_example(irv_profile):
    winners, losers, entries = compute_W_L(AuditContext(irv_profile, PARAMS))
    # Ann holds 66.1% of first preferences; Bob only 12.7%
    assert winners == {"Ann"}
    # Dee tops out at 8,378 (11.1%) with Bob and Cal eliminated; Cal reaches
    # 18,076 (23.9%) with Bob and Dee eliminated so Cal is not in L
    assert losers == {"Dee"}
    keys = {assertion_key(e.assertion) for e in entries}
    assert assertion_key(Viable("Ann", frozenset(), TAU)) in keys
    assert assertion_key(NonViable("Dee", frozenset({"Bob", "Cal"}), TAU)) in keys
    ctx = AuditContext(irv_profile, PARAMS)
    assert ctx.piles(frozenset({"Bob", "Dee"}))["Cal"] == 18076


def test_compute_W_L_all_first_preferences_clear():
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 40), (["B"], 35), (["C"], 25)],
        TAU,
        3,
        "irv",
    )
    winners, losers, _ = compute_W_L(AuditContext(profile, PARAMS))
    assert winners == {"A", "B", "C"}
    assert losers == set()
    alts = enumerate_alt_sets(profile.labels, winners, losers, 6, frozenset({"A", "B", "C"}))
    assert alts == []


def _brute_force_sets(labels, winners, losers, cap, reported):
    out = []
    pool = list(labels)
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            v = frozenset(combo)
            if not winners <= v or v & losers or not 1 <= len(v) <= cap or v == reported:
                continue
            out.append(v)
    return out


def test_enumerate_alt_sets_matches_brute_force():
    labels = ("A", "B", "C", "D", "E")
    rng = random.Random(13)
    for _ in range(60):
        winners = frozenset(rng.sample(labels, rng.randint(0, 2)))
        rest = [c for c in labels if c not in winners]
        losers = frozenset(rng.sample(rest, rng.randint(0, 2)))
        cap = rng.randint(1, 5)
        candidates = _brute_force_sets(labels, winners, losers, cap, frozenset())
        reported = rng.choice(candidates) if candidates else frozenset(labels[:1])
        got = enumerate_alt_sets(labels, winners, losers, cap, reported)
        assert sorted(map(sorted, got)) == sorted(
            map(sorted, _brute_force_sets(labels, winners, losers, cap, reported))
        )
        assert len(set(got)) == len(got)


def test_enumerate_alt_sets_formula_when_no_definite_winners():
    # with W empty the count is sum_j C(|free|, j) - 1 for j = 1..cap
    labels = ("A", "B", "C", "D")
    got = enumerate_alt_sets(labels, frozenset(), frozenset({"D"}), 2, frozenset({"A"}))
    assert len(got) == 3 + 3 - 1


def test_enumerate_includes_definite_winner_set_itself():
    # the set W alone is a feasible outcome and must be ruled out too
    labels = ("A", "B", "C", "D", "E")
    winners = frozenset({"A"})
    got = enumerate_alt_sets(labels, winners, frozenset({"E"}), 3, frozenset({"A", "B"}))
    assert frozenset({"A"}) in got
    # |free| = 3, sizes 1..3: {A}, 3 pairs, 3 triples, minus reported
    assert len(got) == 1 + 3 + 3 - 1


def test_enumerate_alt_sets_ignores_a_cap_beyond_the_roster():
    # a threshold of 1/1000000 caps viable sets at a million candidates;
    # only the roster's free candidates can be added, so the cap stops there
    labels = ("A", "B", "C", "D")
    for winners, losers, reported in [
        (frozenset(), frozenset(), frozenset({"A"})),
        (frozenset({"A"}), frozenset({"D"}), frozenset({"A", "B"})),
        (frozenset({"A", "B"}), frozenset(), frozenset(labels)),
    ]:
        got = enumerate_alt_sets(labels, winners, losers, 10**6, reported)
        assert got == enumerate_alt_sets(labels, winners, losers, len(labels), reported)


def test_singleton_enumeration_cap_one():
    labels = ("A", "B", "C")
    got = enumerate_alt_sets(labels, frozenset(), frozenset(), 1, frozenset({"A"}))
    assert got == [frozenset({"B"}), frozenset({"C"})]


def test_best_root_assertion_example(irv_profile):
    ctx = AuditContext(irv_profile, PARAMS)
    # {Ann}: Ann cannot be shown non-viable (76.1% with everyone gone) and
    # Bob's pile after eliminating L={Dee} is 9,630 (12.7%), short of 15%
    assert ctx.piles(frozenset({"Dee"}))["Bob"] == 9630
    assertion, eae = best_root_assertion(frozenset({"Ann"}), ctx)
    assert math.isinf(eae)
    # {Ann,Bob,Cal}: Cal's pile with only Dee gone is 8,446 (11.2%), so a
    # non-viability assertion is available
    assertion, eae = best_root_assertion(frozenset({"Ann", "Bob", "Cal"}), ctx)
    assert isinstance(assertion, NonViable)
    assert not math.isinf(eae)


def test_best_root_assertion_missing_strong_candidate():
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 60), (["B", "A"], 25), (["C"], 15)],
        TAU,
        2,
        "irv",
    )
    ctx = AuditContext(profile, PARAMS)
    assertion, eae = best_root_assertion(frozenset({"B", "C"}), ctx)
    # A holds 60% of first preferences: viable in any outcome
    assert isinstance(assertion, Viable)
    assert assertion.candidate == "A"
    assert assertion.eliminated == frozenset()
    assert not math.isinf(eae)


def test_expand_node_children_and_assertions(irv_profile):
    ctx = AuditContext(irv_profile, PARAMS)
    root = AltOutcomeNode.build((), frozenset({"Ann"}), ctx)
    children = expand_node(root, ctx)
    assert [c.eliminated_suffix for c in children] == [("Bob",), ("Cal",), ("Dee",)]
    by_last = {c.eliminated_suffix[0]: c for c in children}
    # Bob eliminated last (Cal, Dee already gone) contradicted by his 15,630
    a_bob = by_last["Bob"].assertion
    assert isinstance(a_bob, Viable) and a_bob.eliminated == frozenset({"Cal", "Dee"})
    # Dee eliminated last: 8,378 pile, beats nobody, no assertion exists
    assert by_last["Dee"].assertion is None
    assert math.isinf(by_last["Dee"].eae)


def test_expand_node_leaf_has_no_children():
    profile = build_profile(
        ["A", "B"], [(["A"], 60), (["B"], 40)], TAU, 2, "irv"
    )
    ctx = AuditContext(profile, PARAMS)
    leaf = AltOutcomeNode.build(("B",), frozenset({"A"}), ctx)
    assert leaf.is_leaf()
    assert expand_node(leaf, ctx) == []


def test_children_inherit_the_bookkeeping_build_reads_off_the_roster():
    """``expand_node`` passes each child its unmentioned candidates and
    order keys; they equal what ``AltOutcomeNode.build`` reads off the
    roster, here one whose roster order is not the labels' sort order."""
    cyclic = cyclic_contest(TEN_STRENGTHS[:7])
    ballots = [(list(r), n) for r, n in cyclic.rankings.items()]
    profile = build_profile(list(reversed(cyclic.labels)), ballots, TAU, 14, "irv")
    ctx = AuditContext(profile, PARAMS)
    layer = [AltOutcomeNode.build((), frozenset({"c1", "c5"}), ctx)]
    for _ in range(3):
        layer = [child for node in layer for child in expand_node(node, ctx)]
        for child in layer:
            built = AltOutcomeNode.build(child.eliminated_suffix, child.viable, ctx)
            assert (child.unmentioned, child.order, child.viable_order) == (
                built.unmentioned, built.order, built.viable_order)
    assert len(layer) == 5 * 4 * 3


def _chain(ctx, eaes):
    """A root and its descendants, one per ``eaes`` value, each linked to
    the one before it."""
    nodes, suffix = [], ()
    for cand, eae in zip(("Dee", "Cal", "Bob"), eaes):
        node = AltOutcomeNode.build(suffix, frozenset({"Ann"}), ctx, eae=eae)
        node.parent = nodes[-1] if nodes else None
        nodes.append(node)
        suffix = (cand,) + suffix
    return nodes


def test_closed_reads_the_prune_mark_off_the_ancestors(irv_profile):
    """A node is closed when it or an ancestor is pruned, never by a pruned
    descendant, and a closed mark ends the walk up the branch."""
    ctx = AuditContext(irv_profile, PARAMS)
    chain = root, child, grandchild = _chain(ctx, (1.0, 2.0, 3.0))
    assert (root.parent, child.parent, grandchild.parent) == (None, root, child)
    assert [n.closed() for n in chain] == [False, False, False]
    grandchild.pruned = True
    assert [n.closed() for n in chain] == [False, False, True]
    grandchild.pruned, child.pruned = False, True
    assert [n.closed() for n in chain] == [False, True, True]
    root.pruned = True
    assert [n.closed() for n in chain] == [True, True, True]


@pytest.mark.parametrize("eaes, want", [
    ((5.0, 3.0, 4.0), 1),  # least eae wins
    ((3.0, 3.0, 3.0), 0),  # equal eae: the shallowest
    ((7.0, 2.0, 2.0), 1),
    ((math.inf, math.inf, 9.0), 2),
    ((math.inf, math.inf, math.inf), 0),  # nothing holds: the root, whose inf fails the branch
    ((4.0, math.inf, math.inf), 0),
])
def test_leaf_closes_its_branch_at_the_cheapest_node(irv_profile, eaes, want):
    """A leaf closes its branch at the node of least ``eae`` among it and its
    ancestors, the shallower of equal ones: the pick ``min`` makes over the
    branch by ``(eae, depth)``.  A lone root picks itself."""
    ctx = AuditContext(irv_profile, PARAMS)
    chain = _chain(ctx, eaes)
    assert chain[-1].cheapest() is chain[want]
    assert chain[want] is min(chain, key=lambda n: (n.eae, n.depth))
    assert chain[0].cheapest() is chain[0]


def test_search_nodes_are_freed_without_the_cycle_collector():
    """Nodes link only to their parents, so reference counting frees every
    node once the search returns: with the cyclic collector off, none of the
    ten-candidate search's nodes is left alive."""
    profile = cyclic_contest(TEN_STRENGTHS)
    ctx, outcome = AuditContext(profile, RiskParams(seed=1)), tabulate(profile)

    def alive():
        return sum(isinstance(o, AltOutcomeNode) for o in gc.get_objects())

    gc.collect()
    before = alive()
    gc.disable()
    try:
        result = branch_and_bound(ctx, outcome)
        after = alive()
    finally:
        gc.enable()
    assert result.closed
    assert after == before


def test_move_cache_keys_each_move_once():
    """The move cache is keyed by the roster-ordered ``rest`` tuple, so after
    the ten-candidate search no two keys name the same candidate and set: a
    second spelling of a set would split the cache and could change which
    of tied options a child gets."""
    profile = cyclic_contest(TEN_STRENGTHS)
    ctx = AuditContext(profile, RiskParams(seed=1))
    assert branch_and_bound(ctx, tabulate(profile)).closed
    keys = list(ctx._moves)
    assert len(keys) > 1000
    assert len({(cand, frozenset(rest)) for cand, rest in keys}) == len(keys)
    roster = ctx.index.__getitem__
    assert all(list(rest) == sorted(rest, key=roster) and cand not in rest for cand, rest in keys)


def test_irv_beats_option_used_when_viability_fails(irv_profile):
    ctx = AuditContext(irv_profile, PARAMS)
    # last two eliminations pinned as Bob then Dee, with Cal gone first:
    # Bob's 15,630 > Dee's 8,378 gives a pairwise assertion even though no
    # candidate assertion is needed here
    node = AltOutcomeNode.build(("Dee",), frozenset({"Ann"}), ctx)
    children = expand_node(node, ctx)
    bob_child = next(c for c in children if c.eliminated_suffix[0] == "Bob")
    assert bob_child.assertion is not None


def test_branch_and_bound_example_complete(irv_profile):
    outcome = tabulate(irv_profile)
    result = branch_and_bound(AuditContext(irv_profile, PARAMS), outcome)
    assert result.closed
    assert result.entries  # reductions plus branch assertions
    ctx = AuditContext(irv_profile, PARAMS)
    for entry in result.entries:
        assert entry.margin > 0
        assert ctx.exact_margin(entry.assertion) == entry.margin
    assert any(isinstance(e.assertion, Viable) and e.assertion.candidate == "Ann" for e in result.entries)
    assert len(result.proof_log) >= len(result.entries)


def test_branch_and_bound_overall_asn_bounded(irv_profile):
    outcome = tabulate(irv_profile)
    spec, _ = build_audit_spec(irv_profile, outcome, 1, PARAMS)
    overall = estimate_audit_asn(spec)
    assert overall <= irv_profile.total_ballots


def test_branch_and_bound_tied_threshold_requires_full_count():
    # two candidates exactly tied below the threshold in every configuration
    profile = build_profile(
        ["A", "B", "C"],
        [(["A"], 70), (["B"], 15), (["C"], 15)],
        Fraction(16, 100),
        2,
        "irv",
    )
    outcome = tabulate(profile)
    result = branch_and_bound(AuditContext(profile, PARAMS), outcome)
    assert not result.closed
    assert build_audit_spec(profile, outcome, 1, PARAMS)[0].status == STATUS_FULL_COUNT


def test_branch_and_bound_level_assembly(irv_profile):
    outcome = tabulate(irv_profile)
    spec1, _ = build_audit_spec(irv_profile, outcome, 1, PARAMS)
    spec3, _ = build_audit_spec(irv_profile, outcome, 3, PARAMS)
    assert len(spec3.entries) == len(spec1.entries) + 2
    assert spec3.level == 3


def test_branch_and_bound_deterministic(irv_profile):
    outcome = tabulate(irv_profile)
    first = branch_and_bound(AuditContext(irv_profile, PARAMS), outcome)
    second = branch_and_bound(AuditContext(irv_profile, PARAMS), outcome)
    assert [assertion_key(e.assertion) for e in first.entries] == [
        assertion_key(e.assertion) for e in second.entries
    ]
    assert first.proof_log == second.proof_log


def test_bound_sweep_prunes_in_arrival_order():
    """One leaf's bound prunes ten waiting roots, all at eae 40.  The sweep
    visits waiting nodes in the order they were queued, not in frontier
    order (which would put {A,B,C,D} first), and that order decides the
    order of the proof-log lines and of the spec's assertions."""
    profile = random_irv_profile(random.Random(52))
    spec, log = build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=52))
    bound = [
        ("{A,B,D}", "NonViable(A | out {C,E} | t=3/20)"),
        ("{A,C,D}", "NonViable(A | out {B,E} | t=3/20)"),
        ("{A,D,E}", "NonViable(A | out {B,C} | t=3/20)"),
        ("{B,C,D}", "NonViable(C | out {A,E} | t=3/20)"),
        ("{B,D,E}", "NonViable(E | out {A,C} | t=3/20)"),
        ("{C,D,E}", "NonViable(E | out {A,B} | t=3/20)"),
        ("{A,B,C,D}", "NonViable(A | out {E} | t=3/20)"),
        ("{A,B,D,E}", "NonViable(A | out {C} | t=3/20)"),
        ("{A,C,D,E}", "NonViable(A | out {B} | t=3/20)"),
        ("{B,C,D,E}", "NonViable(C | out {A} | t=3/20)"),
    ]
    assert log == (
        "definite viable W = ['D']; never viable L = []",
        "reduction: Viable(D | out {} | t=3/20) margin 4.5686 eae 1",
        "branch: prune [... (any order) | viable {A,B,C,D,E}] with NonViable(A | out {} | t=3/20) (eae 40)",
        *(f"bound 40: prune [... (any order) | viable {v}] with {a} (eae 40)" for v, a in bound),
        "FAIL: no assertion invalidates branch [... E -> C -> B | viable {A,D}]",
        "status: requires-full-count; assertions: 12",
    )
    assert [assertion_key(e.assertion) for e in spec.entries] == [
        "viable:D:E=:t=3/20",
        "nonviable:A:E=:t=3/20",
        "nonviable:A:E=C,E:t=3/20",
        "nonviable:A:E=B,E:t=3/20",
        "nonviable:A:E=B,C:t=3/20",
        "nonviable:C:E=A,E:t=3/20",
        "nonviable:E:E=A,C:t=3/20",
        "nonviable:E:E=A,B:t=3/20",
        "nonviable:A:E=E:t=3/20",
        "nonviable:A:E=C:t=3/20",
        "nonviable:A:E=B:t=3/20",
        "nonviable:C:E=A:t=3/20",
    ]


def test_pop_prunes_and_implied_closes_are_logged():
    """A node that comes off the frontier with ``eae`` at or under the
    bound is pruned there with its own assertion (``pop``).  A node whose
    next elimination an emitted ``Viable(c, E)`` rules out, ``E`` being
    among those already gone, is closed with no new entry (``implied``)."""
    profile = random_irv_profile(random.Random(395))
    spec, log = build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=395))
    assert log == (
        "definite viable W = ['A', 'D']; never viable L = []",
        "reduction: Viable(A | out {} | t=3/20) margin 0.7699 eae 7",
        "reduction: Viable(D | out {} | t=3/20) margin 2.1268 eae 1",
        "branch: prune [... (any order) | viable {A,B,C,D,E}] with NonViable(E | out {} | t=3/20) (eae 63)",
        "bound 63: prune [... (any order) | viable {A,C,D,E}] with NonViable(E | out {B} | t=3/20) (eae 63)",
        "branch: prune [... (any order) | viable {A,B,C,D}] with NonViable(B | out {E} | t=3/20) (eae 70)",
        "bound 70: prune [... (any order) | viable {A,B,D,E}] with NonViable(B | out {C} | t=3/20) (eae 70)",
        "pop 70: prune [... C | viable {A,B,D}] with Viable(C | out {E} | t=3/20) (eae 21)",
        "pop 70: prune [... E | viable {A,B,D}] with Viable(E | out {C} | t=3/20) (eae 21)",
        "implied: close [... C | viable {A,D}] by Viable(C | out {E} | t=3/20)",
        "implied: close [... E | viable {A,D}] by Viable(E | out {C} | t=3/20)",
        "implied: close [... C -> B | viable {A,D}] by Viable(C | out {E} | t=3/20)",
        "implied: close [... E -> B | viable {A,D}] by Viable(E | out {C} | t=3/20)",
        "branch: prune [... C | viable {A,D,E}] with IrvWins(C > E | out {B}) (eae 92)",
        "branch: prune [... C -> B | viable {A,D,E}] with IrvWins(C > E | out {}) (eae 92)",
        "status: complete; assertions: 10",
    )
    assert spec.status == STATUS_COMPLETE
    assert [assertion_key(e.assertion) for e in spec.entries][-4:] == [
        "viable:C:E=E:t=3/20",
        "viable:E:E=C:t=3/20",
        "irv_wins:C>E:E=B",
        "irv_wins:C>E:E=",
    ]


IMPLIED = re.compile(r"implied: close \[\.\.\. (.+) \| viable \{(.*)\}\] by (Viable\((\w+) \| out \{(.*)\} \| t=.+\))")


def _implied_lines(profile, spec, log) -> int:
    """Check each ``implied`` line of a proof log and count them: it names a
    ``Viable`` among the spec's entries, for the candidate the closed node
    eliminates next, out of a set that those already gone contain."""
    emitted = {str(entry.assertion) for entry in spec.entries}
    lines = [line for line in log if line.startswith("implied:")]
    for line in lines:
        suffix, viable, assertion, cand, out = IMPLIED.fullmatch(line).groups()
        order = suffix.split(" -> ")
        assert assertion in emitted, line
        assert order[0] == cand, line
        gone = set(profile.labels) - set(order) - set(viable.split(","))
        assert set(filter(None, out.split(","))) <= gone, line
    return len(lines)


def test_implied_closes_name_an_emitted_viable_that_rules_the_node_out():
    profile = cyclic_contest(TEN_STRENGTHS)
    assert _implied_lines(profile, *build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=1))) > 100
    rng, implied = random.Random(24), 0
    for _ in range(60):
        profile = random_irv_profile(rng, max_candidates=7, max_ballots=3000)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        implied += _implied_lines(profile, *build_audit_spec(profile, outcome, 1, RiskParams(seed=1)))
    assert implied > 0


FUZZ_PARAMS = RiskParams(seed=7)


def _spec_holds_on(entries, profile) -> bool:
    ctx = AuditContext(profile)
    return all(ctx.exact_margin(e.assertion) > 0 for e in entries)


def test_soundness_mini_fuzz():
    """If every assertion survives a perturbation, the viable set is unchanged."""
    rng = random.Random(101)
    elections = 0
    while elections < 60:
        profile = random_irv_profile(rng, max_candidates=5, max_ballots=200)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        result = branch_and_bound(AuditContext(profile, FUZZ_PARAMS), outcome)
        if not result.closed:
            continue
        elections += 1
        for _ in range(6):
            perturbed = perturb_profile(profile, rng)
            if not _spec_holds_on(result.entries, perturbed):
                continue
            try:
                new_viable = irv_viability(perturbed).viable
            except UnsupportedOutcomeError:
                raise AssertionError(
                    f"assertions hold but tabulation collapsed: {perturbed.rankings}"
                )
            assert new_viable == outcome.viable, (
                dict(profile.rankings),
                dict(perturbed.rankings),
            )


def _nine_candidate_cyclic():
    return cyclic_contest((4400, 3160, 2400, 2200, 2000, 1800, 1600, 1340, 1100))


def test_nine_candidate_search_under_budget():
    import time

    profile = _nine_candidate_cyclic()
    outcome = tabulate(profile)
    started = time.perf_counter()
    spec, _ = build_audit_spec(profile, outcome, 3, PARAMS)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert spec.status == STATUS_COMPLETE
    assert len(spec.entries) > 50
    ctx = AuditContext(profile, PARAMS)
    for entry in spec.entries:
        assert ctx.exact_margin(entry.assertion) > 0


def test_thirteen_candidate_search_under_budget():
    """Pruning at pop and closing what an emitted ``Viable`` implies keep the
    13-candidate cyclic contest's level-3 search within seconds."""
    import time

    profile = cyclic_contest(TEN_STRENGTHS + (1500, 1250, 1150))
    outcome = tabulate(profile)
    started = time.perf_counter()
    spec, _ = build_audit_spec(profile, outcome, 3, RiskParams(seed=1))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert spec.status == STATUS_COMPLETE
    assert max(entry.eae for entry in spec.entries) == 5097


def ctx_margin(ctx):
    """The float margin ``ctx`` gives an assertion."""
    return lambda assertion: ctx._margins(assertion)[1]


class _Costs:
    """Stand-in for AuditContext in ``_cheapest``: fixed margins per option
    (the integer margin, whose sign is ``holds``, is a thousand times the
    margin) and estimates per margin (never rising with it), recording
    which options were scored and which margins were simulated."""

    def __init__(self, margins, eaes):
        self.margins, self.eaes, self.scored, self.simulated = margins, eaes, [], []

    def _margins(self, option):
        self.scored.append(option)
        return round(1000 * self.margins[option]), self.margins[option]

    def _effort(self, margin):
        self.simulated.append(margin)
        return self.eaes[margin]


def test_cheapest_ties_go_to_the_first_option():
    costs = _Costs({"x": 0.1, "y": 0.1}, {0.1: 7})
    assert _cheapest(["x", "y"], costs) == ("x", 7)
    assert _cheapest(["y", "x"], costs) == ("y", 7)
    # the first of the largest margins, wherever it sits in the list
    costs = _Costs({"a": 0.1, "b": 0.3, "c": 0.3}, {0.1: 5, 0.3: 5})
    assert _cheapest(["a", "c", "b"], costs) == ("c", 5)


def test_cheapest_all_infinite_and_empty():
    costs = _Costs({"x": 0.3, "y": 0.1, "z": 0.1}, {0.3: math.inf, 0.1: math.inf})
    assert _cheapest(["x", "y", "z"], costs) == ("x", math.inf)
    # a pick that does not hold leaves nothing that does: none is simulated
    costs = _Costs({"x": 0.0, "y": -0.1}, {})
    assert _cheapest(["y", "x"], costs) == (None, math.inf)
    assert _cheapest([], costs) == (None, math.inf)
    assert costs.simulated == []


def test_cheapest_simulates_only_the_largest_margin():
    costs = _Costs({"x": 0.2, "y": 0.3, "z": 0.1}, {0.2: 9, 0.3: 8, 0.1: 12})
    assert _cheapest(["x", "y", "z"], costs) == ("y", 8)
    assert costs.simulated == [0.3]
    assert costs.scored == ["x", "y", "z"]  # each option's margins once
    # options tied with the pick are not simulated either
    costs = _Costs({"x": 0.2, "y": 0.3, "z": 0.1, "w": 0.05}, {0.2: 8, 0.3: 8, 0.1: 9, 0.05: 9})
    assert _cheapest(["x", "y", "z", "w"], costs) == ("y", 8)
    assert costs.simulated == [0.3]


def test_cheapest_matches_min_on_random_costs():
    rng = random.Random(11)
    for _ in range(500):
        options = list(range(rng.randint(0, 8)))
        margins = {o: rng.randint(-1, 6) / 10 for o in options}
        # estimates by margin, never rising with it; a margin of 0 or less does not hold
        by_margin = sorted((rng.choice([1, 2, 3, 5, 8, math.inf]) for _ in range(6)), reverse=True)
        eaes = {m: by_margin[round(10 * m) - 1] if m > 0 else math.inf for m in margins.values()}
        costs = _Costs(margins, eaes)
        least = min((eaes[margins[o]] for o in options), default=math.inf)
        pick, eae = _cheapest(options, costs)
        assert eae == least
        assert (pick is None) == all(m <= 0 for m in margins.values())
        assert pick is None or pick == max(options, key=margins.__getitem__)
        assert len(costs.simulated) == (pick is not None)


def test_move_picks_what_max_over_every_option_picks(monkeypatch):
    """``move`` hands ``_cheapest`` only the ``Viable`` and one ``IrvWins``.
    The larger margin of the two must be the option ``max`` picks from the
    full list (the ``Viable``, then an ``IrvWins`` per standing candidate in
    roster order), ties included, and the move must be what ``_cheapest``
    makes of the full list.  Small piles make ties common."""
    handed = []
    monkeypatch.setattr(viability, "_cheapest", lambda options, ctx: handed.append(options) or _cheapest(options, ctx))
    rng = random.Random(15)
    least_ties = viable_ties = 0
    for _ in range(2000):
        labels = rng.sample("ABCDEF", rng.randint(2, 6))
        tau = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), TAU])
        piles = [rng.randint(0, 6) for _ in labels]
        if not any(piles):
            piles[0] = 1
        ballots = [([c], n) for c, n in zip(labels, piles)] + [([], rng.randint(0, 2))]
        ctx = AuditContext(build_profile(labels, ballots, tau, 1, "irv"), RiskParams(error_rate=0.0))
        cand = rng.choice(labels)
        rest = tuple(c for c in ctx.labels if c != cand and rng.random() < 0.3)  # roster order
        removed = frozenset(rest)
        full = [Viable(cand, removed, tau)] + [IrvWins(cand, c, removed) for c in labels if c != cand and c not in rest]
        want = max(full, key=ctx_margin(ctx))
        handed.clear()
        assert ctx.move(cand, rest) == _cheapest(full, ctx)
        assert max(handed[0], key=ctx_margin(ctx)) == want
        best, irv_margins = ctx_margin(ctx)(want), list(map(ctx_margin(ctx), full[1:]))
        least_ties += want is not full[0] and irv_margins.count(best) > 1
        viable_ties += want is full[0] and best in irv_margins
    # both tie kinds are exercised, so their rules are tested
    assert least_ties > 50 and viable_ties > 50


def _tie_heavy_contest(rng):
    """A small ring contest at threshold 1/4 whose candidates hold a few
    equal first-preference piles, some passing part of their votes on.
    Few candidates clear the threshold, so children choose among
    ``IrvWins`` over losers with equal piles, and with no errors their
    estimates tie exactly; at the larger scales a ``Viable`` often ties
    with them too."""
    labels = [f"c{i}" for i in range(rng.randint(4, 7))]
    scale = rng.choice([1, 3, 4])
    ballots = []
    for i, label in enumerate(labels):
        weight = rng.choice([6, 6, 6, 9]) * scale
        passed = rng.choice([0, weight // 3, weight // 2])
        ballots.append(([label], weight - passed))
        if passed:
            ballots.append(([label, labels[(i + 1) % len(labels)]], passed))
    return build_profile(labels, ballots, Fraction(1, 4), rng.randint(1, 6), "irv")


def _equivalence_contests():
    rng = random.Random(2024)
    contests = [
        (load_election(DATA / "election_irv.json"), RiskParams(seed=1)),
        (_nine_candidate_cyclic(), RiskParams(error_rate=0.0, seed=3)),
    ]
    while len(contests) < 102:
        profile = random_irv_profile(rng, max_ballots=rng.choice([300, 3000]))
        params = RiskParams(error_rate=rng.choice([0.0, 0.002, 0.02]), seed=rng.randrange(1000))
        contests.append((profile, params))
    while len(contests) < 142:
        contests.append((_tie_heavy_contest(rng), RiskParams(error_rate=0.0, seed=rng.randrange(1000))))
    return contests


def _holding(options, ctx):
    """Each option that holds, with its index and ``eae``, in option order."""
    return [(i, a, ctx.entry(a).eae) for i, a in enumerate(options) if ctx.exact_margin(a) > 0]


def _full_scan_min(options, ctx):
    """Every holding option simulated, and ``min`` by ``eae``: the first of
    the least estimates in option order."""
    _, best, eae = min(_holding(options, ctx), key=lambda t: t[2], default=(None, None, math.inf))
    return best, eae


def _eager_min(options, ctx):
    """Every holding option simulated, and ``min`` by ``(eae, -margin, index)``."""
    holding = [(eae, -ctx_margin(ctx)(a), i, a) for i, a, eae in _holding(options, ctx)]
    if not holding:
        return None, math.inf
    eae, _, _, best = min(holding, key=lambda t: t[:3])
    return best, eae


def _root_options(vset, ctx):
    tau = ctx.threshold
    options = [Viable(c, frozenset(), tau) for c in ctx.labels if c not in vset]
    if tau < 1:
        others = frozenset(ctx.labels) - vset
        options += [NonViable(c, others, tau) for c in ctx.labels if c in vset]
    return options


def _expand_with(pick, standing_order):
    """``expand_node`` with each child's own option list (the ``Viable``,
    then an ``IrvWins`` per standing candidate in ``standing_order(node,
    ctx)``) handed to ``pick``; each child is built by
    ``AltOutcomeNode.build``, its bookkeeping read off the roster rather
    than inherited."""

    def expand(node, ctx):
        standing = standing_order(node, ctx)
        children = []
        for cand in node.unmentioned:
            rest = frozenset(node.unmentioned) - {cand}
            options = [Viable(cand, rest, ctx.threshold)] + [IrvWins(cand, other, rest) for other in standing]
            assertion, eae = pick(options, ctx)
            child = AltOutcomeNode.build((cand,) + node.eliminated_suffix, node.viable, ctx, assertion, eae)
            child.parent = node
            children.append(child)
        return children

    return expand


def _roster_order(node, ctx):
    return [c for c in ctx.labels if c in node.eliminated_suffix or c in node.viable]


def _child_order(node, ctx):
    """The child's pinned eliminations, then the viable set in roster order."""
    return list(node.eliminated_suffix) + [c for c in ctx.labels if c in node.viable]


def _build_equivalence_specs(pick=None, standing_order=None):
    """Level 1 and 3 specs and logs of every tabulable equivalence contest,
    with roots and children picked by ``pick`` when given, and the number of
    simulations the builds ran."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return estimate_asn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(viability, "estimate_asn", counted)
        if pick is not None:
            patch.setattr(viability, "best_root_assertion", lambda vset, ctx: pick(_root_options(vset, ctx), ctx))
            patch.setattr(viability, "expand_node", _expand_with(pick, standing_order))
        built = []
        for profile, params in _equivalence_contests():
            try:
                outcome = tabulate(profile)
            except UnsupportedOutcomeError:
                continue
            built.append(build_audit_specs(profile, outcome, (1, 3), params))
    return built, calls[0]


@pytest.fixture(scope="module")
def equivalence_builds():
    return _build_equivalence_specs()


def _as_bytes(built):
    return [{level: (audit_spec_to_dict(spec), log) for level, (spec, log) in specs.items()} for specs in built]


def test_largest_margin_builds_the_specs_eager_min_builds(equivalence_builds):
    """Simulating only the largest margin per ``(candidate, rest)`` gives the
    specs and proof logs of building every root's and every child's option
    list in roster order, simulating each holding option and taking ``min``
    by ``(eae, -margin, index)``, with strictly fewer simulations across the
    sample; the tie-heavy contests make the tie rule matter."""
    built, calls = equivalence_builds
    reference, eager_calls = _build_equivalence_specs(_eager_min, _roster_order)
    assert len(built) > 110
    assert _as_bytes(built) == _as_bytes(reference)
    assert calls < eager_calls


def test_largest_margin_costs_no_more_than_the_full_scan(equivalence_builds):
    """Against the full scan that takes ``min`` by ``eae`` over each child's
    own option order, every spec has the same status and the same largest
    ``eae`` (each node's estimate is the same least one, so the search
    prunes the same nodes), and never more entries."""
    built, _ = equivalence_builds
    reference, _ = _build_equivalence_specs(_full_scan_min, _child_order)
    assert len(built) == len(reference) > 110
    fewer = 0
    for specs, ref_specs in zip(built, reference):
        for level, (spec, _) in specs.items():
            ref_spec = ref_specs[level][0]
            assert spec.status == ref_spec.status
            # the stored estimates: the overall one of a full-count spec is inf
            largest, ref_largest = (max((e.eae for e in s.entries), default=0) for s in (spec, ref_spec))
            assert largest == ref_largest
            assert len(spec.entries) <= len(ref_spec.entries)
            fewer += len(spec.entries) < len(ref_spec.entries)
    assert fewer > 0


@pytest.mark.parametrize("contest", ["election_irv", "ten_cyclic"])
def test_one_simulation_per_distinct_margin(contest, monkeypatch):
    """Every estimate depends only on the margin, so a build simulates each
    distinct margin once, and entries with equal margins carry equal
    ``eae``."""
    simulated = []

    def counted(margin, params, population):
        simulated.append(margin)
        return estimate_asn(margin, params, population)

    monkeypatch.setattr(viability, "estimate_asn", counted)
    if contest == "election_irv":
        profile = load_election(DATA / "election_irv.json")
    else:
        profile = cyclic_contest(TEN_STRENGTHS)
    specs = build_audit_specs(profile, tabulate(profile), (1, 2, 3), RiskParams(seed=1))
    assert len(simulated) == len(set(simulated))
    for spec, _ in specs.values():
        assert spec.status == STATUS_COMPLETE
        eae_by_margin = {}
        for entry in spec.entries:
            assert float(entry.margin) in simulated
            assert eae_by_margin.setdefault(entry.margin, entry.eae) == entry.eae
        # some distinct assertions share a margin
        assert len(eae_by_margin) < len(spec.entries)
