import gc
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import TEN_STRENGTHS, cyclic_contest, perturb_profile, random_irv_profile
from hamilton_rla import (
    RiskParams,
    UnsupportedOutcomeError,
    build_audit_spec,
    build_profile,
    tabulate,
    viability,
)
from hamilton_rla.assertions import IrvWins, NonViable, Viable, assertion_key
from hamilton_rla.model import STATUS_COMPLETE, STATUS_FULL_COUNT, audit_spec_to_dict, load_election
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
    result = gen_plurality_viability(AuditContext(plurality_profile, PARAMS), outcome)
    assert result.status == STATUS_COMPLETE
    kinds = [type(e.assertion).__name__ for e in result.entries]
    assert kinds == ["Viable", "Viable", "NonViable", "NonViable"]
    expected = {"Ann": 4.073, "Bob": 0.378, "Cal": 0.152, "Dee": 0.163}
    asns = []
    for e in result.entries:
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
    assert result.status == STATUS_COMPLETE


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
    assert result.status == STATUS_FULL_COUNT


def test_plurality_exact_threshold_full_count():
    # 15 of 100 sits exactly on the cutoff: viable, but margin is zero
    profile = build_profile(["A", "B"], [(["A"], 85), (["B"], 15)], TAU, 2, "plurality")
    outcome = tabulate(profile)
    assert outcome.viable == {"A", "B"}
    result = gen_plurality_viability(AuditContext(profile, PARAMS), outcome)
    assert result.status == STATUS_FULL_COUNT
    assert any(e.margin == 0 for e in result.entries)


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


def test_closed_reads_the_prune_mark_off_the_ancestors(irv_profile):
    """``branch`` walks a node and its ancestors, nearest first; a node is
    closed when it or an ancestor is pruned, never by a pruned descendant."""
    ctx = AuditContext(irv_profile, PARAMS)
    root = AltOutcomeNode.build((), frozenset({"Ann"}), ctx)
    child = AltOutcomeNode.build(("Bob",), frozenset({"Ann"}), ctx)
    grandchild = AltOutcomeNode.build(("Cal", "Bob"), frozenset({"Ann"}), ctx)
    child.parent, grandchild.parent = root, child
    assert list(grandchild.branch()) == [grandchild, child, root]
    assert list(root.branch()) == [root]
    chain = (root, child, grandchild)
    assert [n.closed() for n in chain] == [False, False, False]
    grandchild.pruned = True
    assert [n.closed() for n in chain] == [False, False, True]
    grandchild.pruned, child.pruned = False, True
    assert [n.closed() for n in chain] == [False, True, True]
    root.pruned = True
    assert [n.closed() for n in chain] == [True, True, True]


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
    assert result.status == STATUS_COMPLETE
    assert after == before


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
    assert result.status == STATUS_COMPLETE
    assert result.entries  # reductions plus branch assertions
    ctx = AuditContext(irv_profile, PARAMS)
    for entry in result.entries:
        assert entry.margin > 0
        assert ctx.holds(entry.assertion)
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
    assert result.status == STATUS_FULL_COUNT


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


FUZZ_PARAMS = RiskParams(trials=5, seed=7)


def _spec_holds_on(entries, profile) -> bool:
    ctx = AuditContext(profile)
    return all(ctx.holds(e.assertion) for e in entries)


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
        if result.status != STATUS_COMPLETE:
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
        assert ctx.holds(entry.assertion)


class _Costs:
    """Stand-in for AuditContext in ``_cheapest``: fixed margins and
    estimates (never rising with the margin), a positive margin holding,
    recording which options were simulated."""

    def __init__(self, margins, eaes):
        self.margins, self.eaes, self.simulated = margins, eaes, []

    def _margin(self, option):
        return self.margins[option]

    def holds(self, option):
        return self.margins[option] > 0

    def eae(self, option):
        self.simulated.append(option)
        return self.eaes[option]


def test_cheapest_ties_go_to_the_first_option():
    costs = _Costs({"x": 0.1, "y": 0.1}, {"x": 7, "y": 7})
    assert _cheapest(["x", "y"], costs) == ("x", 7)
    assert _cheapest(["y", "x"], costs) == ("y", 7)
    # the first of the largest margins, wherever it sits in the list
    costs = _Costs({"a": 0.1, "b": 0.3, "c": 0.3}, {"a": 5, "b": 5, "c": 5})
    assert _cheapest(["a", "c", "b"], costs) == ("c", 5)


def test_cheapest_all_infinite_and_empty():
    costs = _Costs({"x": 0.3, "y": 0.1, "z": 0.1}, dict.fromkeys("xyz", math.inf))
    assert _cheapest(["x", "y", "z"], costs) == ("x", math.inf)
    # a pick that does not hold leaves nothing that does: none is simulated
    costs = _Costs({"x": 0.0, "y": -0.1}, {"x": math.inf, "y": math.inf})
    assert _cheapest(["y", "x"], costs) == (None, math.inf)
    assert _cheapest([], costs) == (None, math.inf)
    assert costs.simulated == []


def test_cheapest_simulates_only_the_largest_margin():
    costs = _Costs({"x": 0.2, "y": 0.3, "z": 0.1}, {"x": 9, "y": 8, "z": 12})
    assert _cheapest(["x", "y", "z"], costs) == ("y", 8)
    assert costs.simulated == ["y"]
    # options tied with the pick are not simulated either
    costs = _Costs({"x": 0.2, "y": 0.3, "z": 0.1, "w": 0.05}, {"x": 8, "y": 8, "z": 9, "w": 9})
    assert _cheapest(["x", "y", "z", "w"], costs) == ("y", 8)
    assert costs.simulated == ["y"]


def test_cheapest_matches_min_on_random_costs():
    rng = random.Random(11)
    for _ in range(500):
        options = list(range(rng.randint(0, 8)))
        margins = {o: rng.randint(-1, 6) / 10 for o in options}
        # estimates by margin, never rising with it; a margin of 0 or less does not hold
        by_margin = sorted((rng.choice([1, 2, 3, 5, 8, math.inf]) for _ in range(6)), reverse=True)
        eaes = {o: by_margin[round(10 * margins[o]) - 1] if margins[o] > 0 else math.inf for o in options}
        costs = _Costs(margins, eaes)
        least = min(eaes.values(), default=math.inf)
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
        ctx = AuditContext(build_profile(labels, ballots, tau, 1, "irv"), RiskParams(error_rate=0.0, trials=5))
        cand = rng.choice(labels)
        rest = frozenset(c for c in labels if c != cand and rng.random() < 0.3)
        full = [Viable(cand, rest, tau)] + [IrvWins(cand, c, rest) for c in labels if c != cand and c not in rest]
        want = max(full, key=ctx._margin)
        handed.clear()
        assert ctx.move(cand, rest) == _cheapest(full, ctx)
        assert max(handed[0], key=ctx._margin) == want
        best, irv_margins = ctx._margin(want), [ctx._margin(option) for option in full[1:]]
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
        (_nine_candidate_cyclic(), RiskParams(error_rate=0.0, trials=5, seed=3)),
    ]
    while len(contests) < 102:
        profile = random_irv_profile(rng, max_ballots=rng.choice([300, 3000]))
        params = RiskParams(error_rate=rng.choice([0.0, 0.002, 0.02]), trials=5, seed=rng.randrange(1000))
        contests.append((profile, params))
    while len(contests) < 142:
        contests.append((_tie_heavy_contest(rng), RiskParams(error_rate=0.0, trials=3, seed=rng.randrange(1000))))
    return contests


def _full_scan_min(options, ctx):
    """Every holding option simulated, and ``min`` by ``eae``: the first of
    the least estimates in option order."""
    best = min((a for a in options if ctx.holds(a)), key=ctx.eae, default=None)
    return best, math.inf if best is None else ctx.eae(best)


def _eager_min(options, ctx):
    """Every holding option simulated, and ``min`` by ``(eae, -margin, index)``."""
    holding = [(ctx.eae(a), -ctx._margin(a), i, a) for i, a in enumerate(options) if ctx.holds(a)]
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
