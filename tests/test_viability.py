import gc
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import (
    FOURTEEN_STRENGTHS,
    TEN_STRENGTHS,
    cyclic_contest,
    deep_contest,
    perturb_profile,
    random_irv_profile,
    random_plurality_profile,
    scan_piles,
)
from hamilton_rla import (
    RiskParams,
    UnsupportedOutcomeError,
    build_audit_spec,
    build_profile,
    tabulate,
    viability,
)
from hamilton_rla.assertions import IrvWins, NonViable, Viable
from hamilton_rla.model import IRV, PLURALITY, STATUS_COMPLETE, STATUS_FULL_COUNT, audit_spec_to_dict, load_election
from hamilton_rla.risk import estimate_asn, estimate_audit_asn
from hamilton_rla.tabulation import _first_piles, _transfer, count_piles
from hamilton_rla.viability import (
    AltOutcomeNode,
    AuditContext,
    _cheapest,
    best_root_assertion,
    build_audit_specs,
    compute_W_L,
    cut_side,
    enumerate_alt_sets,
    gen_irv_viability,
    gen_plurality_viability,
    max_viable,
    set_states,
    source_side,
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
    keys = {e.assertion.key for e in entries}
    assert Viable("Ann", frozenset(), TAU).key in keys
    assert NonViable("Dee", frozenset({"Bob", "Cal"}), TAU).key in keys
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


def _step_table(ctx):
    """Every step of the states below the whole roster, keyed by its
    candidate and the set gone before it: the assertion the cut builds for
    the step, and the step's ``eae``."""
    states = set_states(ctx, [tuple(ctx.labels)])
    return {
        (cand, child.removed): (state.assertion(i, ctx.threshold), eae)
        for state in states.values() for i, (cand, _, eae, child) in enumerate(state.steps)
    }


def test_set_steps_and_their_assertions(irv_profile):
    """A set's steps eliminate each of its candidates last among them, in
    roster order, and lead to the state of the set left before it; the
    assertion built for a step is scored over that set."""
    ctx = AuditContext(irv_profile, PARAMS)
    states = set_states(ctx, [("Bob", "Cal", "Dee")])
    top = states["Bob", "Cal", "Dee"]
    assert [(cand, child) for cand, _, _, child in top.steps] == [
        ("Bob", states["Cal", "Dee"]), ("Cal", states["Bob", "Dee"]), ("Dee", states["Bob", "Cal"])]
    by_cand = {cand: (top.assertion(i, ctx.threshold), eae) for i, (cand, _, eae, _) in enumerate(top.steps)}
    # Bob eliminated last (Cal, Dee already gone) contradicted by his 15,630
    a_bob, eae = by_cand["Bob"]
    assert isinstance(a_bob, Viable) and a_bob.eliminated == frozenset({"Cal", "Dee"})
    assert ctx.entry(a_bob).eae == eae < math.inf
    # Dee eliminated last: 8,378 pile, beats nobody, no assertion holds
    assert by_cand["Dee"][1] == math.inf
    assert ctx.exact_margin(by_cand["Dee"][0]) <= 0


def test_empty_set_has_no_steps():
    profile = build_profile(
        ["A", "B"], [(["A"], 60), (["B"], 40)], TAU, 2, "irv"
    )
    ctx = AuditContext(profile, PARAMS)
    states = set_states(ctx, [("B",)])
    assert list(states) == [(), ("B",)]
    empty = states[()]
    assert (empty.steps, empty.best, empty.via, empty.id) == ([], math.inf, -1, 0)
    assert [(cand, child) for cand, _, _, child in states["B",].steps] == [("B", empty)]


def test_set_states_name_each_set_once_in_roster_order():
    """Every set below the tops gets one state, smallest sets first and
    numbered in that order; each names its set in roster order, here a
    roster whose order is not the labels' sort order, and each step leads
    to the state of the set left."""
    cyclic = cyclic_contest(TEN_STRENGTHS[:7])
    ballots = [(list(r), n) for r, n in cyclic.rankings.items()]
    profile = build_profile(list(reversed(cyclic.labels)), ballots, TAU, 14, "irv")
    ctx = AuditContext(profile, PARAMS)
    tops = [tuple(c for c in ctx.labels if c not in {"c1", "c5"}), tuple(c for c in ctx.labels if c != "c6")]
    states = set_states(ctx, tops)
    assert len(states) == len({frozenset(s) for top in tops for r in range(len(top) + 1) for s in combinations(top, r)})
    assert [state.id for state in states.values()] == list(range(len(states)))
    assert [len(u) for u in states] == sorted(len(u) for u in states)
    roster = ctx.labels.index
    for unmentioned, state in states.items():
        assert state.unmentioned == unmentioned == tuple(sorted(unmentioned, key=roster))
        assert [(cand, child.unmentioned) for cand, _, _, child in state.steps] == [
            (c, tuple(x for x in unmentioned if x != c)) for c in unmentioned]


def test_best_is_the_maximin_over_each_sets_steps():
    """``best`` is the largest, over a set's steps, of the step's ``eae``
    and its target's ``best``, whichever is smaller; ``via`` is the first
    step attaining it, and the empty set's ``best`` is infinite."""
    profile = cyclic_contest(TEN_STRENGTHS[:8])
    ctx = AuditContext(profile, RiskParams(seed=1))
    states = set_states(ctx, [tuple(c for c in ctx.labels if c != "c0")])
    finite = 0
    for state in states.values():
        reach = [min(eae, child.best) for _, _, eae, child in state.steps]
        assert state.best == max(reach, default=math.inf)
        assert state.via == (reach.index(state.best) if reach else -1)
        finite += not math.isinf(state.best)
    assert 0 < finite < len(states)


@pytest.mark.parametrize("eaes, want", [
    ((5.0, 3.0, 4.0), 1),  # least eae wins
    ((3.0, 3.0, 3.0), 0),  # equal eae: the shallowest
    ((7.0, 2.0, 2.0), 1),
    ((math.inf, math.inf, 9.0), 2),
    ((math.inf, math.inf, math.inf), 0),  # nothing holds: the root, whose inf fails the branch
    ((4.0, math.inf, math.inf), 0),
])
def test_leaf_closes_its_branch_at_the_cheapest_node(eaes, want):
    """A lone branch from a root to the empty set (the leaf), its edges
    costing ``eaes`` from the root down, has ``T*`` equal to its least
    ``eae``, and the minimum cut at ``T*`` takes the edge of least ``eae``
    nearest the root, whatever order the arcs come in.  With no finite
    ``eae`` nothing can be cut: the flow saturates every unbounded arc,
    and the root's arc is left as a cut no cuttable arc makes."""
    t_star = min(eaes)
    arcs = [(i, i + 1, 1 if eae <= t_star < math.inf else None) for i, eae in enumerate(eaes)]
    for inserted in (arcs, arcs[::-1]):
        side = source_side(len(eaes) + 1, inserted, 0, len(eaes))
        assert [i for i in range(len(eaes)) if side[i] and not side[i + 1]] == [want]
    assert want == min(range(len(eaes)), key=lambda i: (eaes[i], i))
    assert arcs[want][2] == (1 if t_star < math.inf else None)


def test_search_nodes_are_freed_without_the_cycle_collector():
    """Set states link only to the sets their steps reach, and the flow
    graph is flat integer lists, so reference counting frees every state
    once the search returns: with the cyclic collector off, none of the
    ten-candidate search's 512 set states is left alive."""
    profile = cyclic_contest(TEN_STRENGTHS)
    ctx, outcome = AuditContext(profile, RiskParams(seed=1)), tabulate(profile)

    def alive():
        return sum(isinstance(o, AltOutcomeNode) for o in gc.get_objects())

    created = []
    init = AltOutcomeNode.__init__
    gc.collect()
    before = alive()
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AltOutcomeNode, "__init__", lambda node, *args: created.append(1) or init(node, *args))
            result = gen_irv_viability(ctx, outcome)
        after = alive()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert result.closed
    assert len(created) == 512
    assert after == before
    assert garbage == 0


def test_move_cache_keys_each_move_once():
    """The set states are keyed by the roster-ordered tuple, so in the
    ten-candidate search no two states hold the same set and no two steps
    the same candidate and set: a second spelling of a set would split its
    state and could change which of tied options a step gets.  Each state
    holds its set, its piles and its standing candidates stably sorted by
    pile, which its incoming steps are scored on: the piles that
    ``count_piles`` gives on a copy of the contest no search has counted."""
    profile = cyclic_contest(TEN_STRENGTHS)
    ctx, fresh = AuditContext(profile, RiskParams(seed=1)), cyclic_contest(TEN_STRENGTHS)
    assert gen_irv_viability(ctx, tabulate(profile)).closed
    states = set_states(ctx, [tuple(c for c in ctx.labels if c != "c0")])
    moves = [(cand, child.removed) for state in states.values() for cand, _, _, child in state.steps]
    assert len(moves) > 1000
    assert len(set(moves)) == len(moves)
    assert all(cand not in gone for cand, gone in moves)
    roster = ctx.labels.index
    assert len({state.removed for state in states.values()}) == len(states) > 500
    for unmentioned, state in states.items():
        assert list(unmentioned) == sorted(unmentioned, key=roster) and state.removed == frozenset(unmentioned)
        assert list(state.piles.items()) == list(count_piles(fresh, state.removed)[0].items())
        assert state.by_pile == sorted(
            (c for c in ctx.labels if c not in state.removed), key=lambda c: (state.piles[c], roster(c)))


def _transfer_contests():
    """Contests whose searches derive piles over trees of many shapes: 12
    eight-candidate contests of 500 to 2,000 distinct rankings up to eight
    long with blank and exhausting ballots, 300 seeded ``random_irv_profile``
    contests of up to 7 candidates at thresholds 3/20, 1/4 and 1/3, and
    ``ten_cyclic`` with its roster shuffled, and ``fourteen_cyclic``."""
    rng = random.Random(61)
    contests = [deep_contest(rng, rng.randrange(500, 2001)) for _ in range(12)]
    thresholds = (Fraction(3, 20), Fraction(1, 4), Fraction(1, 3))
    contests += [
        random_irv_profile(rng, max_candidates=7, max_ballots=rng.choice([3000, 20000]), threshold=thresholds[i % 3])
        for i in range(300)
    ]
    ten = cyclic_contest(TEN_STRENGTHS)
    roster = list(ten.labels)
    random.Random(5).shuffle(roster)
    shuffled = build_profile(roster, [(list(r), n) for r, n in ten.rankings.items()], ten.threshold, ten.delegates, IRV)
    return contests + [shuffled, cyclic_contest(FOURTEEN_STRENGTHS)]


def test_each_states_piles_are_a_fresh_count(monkeypatch):
    """Each set's piles are derived from the set without its last
    candidate, by moving that candidate's ballots on from their pile
    nodes, and the derived piles go to the context's cache.  On every
    contest of ``_transfer_contests``, each state of the search holds, in
    roster order, the piles that ``count_piles`` gives on a copy of the
    contest whose ranking tree no search has grown, which a scan of every
    ranking confirms, and the cache holds that state's piles.  Each deep
    contest's search eliminates more than three candidates."""
    searched = []

    def recorded(ctx, tops):
        states = set_states(ctx, tops)
        searched.append((ctx, states))
        return states

    monkeypatch.setattr(viability, "set_states", recorded)
    checked = Counter()
    for profile in _transfer_contests():
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        gen_irv_viability(AuditContext(profile, RiskParams(seed=1)), outcome)
        if not searched:
            continue
        (ctx, states), = searched
        searched.clear()
        fresh = replace(profile)
        for state in states.values():
            counted = count_piles(fresh, state.removed)
            assert list(state.piles.items()) == list(counted[0].items()), state.removed
            assert counted == scan_piles(profile, state.removed)
            assert ctx.piles(state.removed) is state.piles
        kind = "deep" if len(profile.rankings) >= 500 else "cyclic" if "c0" in profile.labels else "random"
        checked[kind] += 1
        checked[f"{kind} states"] += len(states)
        checked["deep sets"] += kind == "deep" and max(map(len, states)) > 3
    assert checked["deep"] == checked["deep sets"] == 12 and checked["cyclic"] == 2, checked
    assert checked["deep states"] > 500 and checked["cyclic states"] > 8000, checked
    assert checked["random"] > 100 and checked["random states"] > 3000, checked


def test_only_the_reductions_count_piles_from_the_root(monkeypatch):
    """In a ten-candidate level-3 build, ``count_piles`` runs only for the
    sets the W/L reductions are scored on, the empty set among them; every
    set of the search takes its piles from the set without its last
    candidate, and only the empty set's state walks from the root."""
    profile = cyclic_contest(TEN_STRENGTHS)
    outcome = tabulate(profile)
    counted, first, moved = [], [], []
    monkeypatch.setattr(viability, "count_piles", lambda p, gone: counted.append(gone) or count_piles(p, gone))
    monkeypatch.setattr(viability, "_first_piles", lambda p: first.append(p) or _first_piles(p))
    monkeypatch.setattr(viability, "_transfer", lambda *args: moved.append(args[2]) or _transfer(*args))
    build_audit_specs(profile, outcome, (3,), RiskParams(seed=1))
    others = frozenset(profile.labels) - {"c0"}
    assert counted == [frozenset()] + [others - {c} for c in profile.labels if c in others]
    assert len(first) == 1 and len(moved) == 511


def test_irv_beats_option_used_when_viability_fails(irv_profile):
    ctx = AuditContext(irv_profile, PARAMS)
    # last two eliminations pinned as Bob then Dee, with Cal gone first:
    # Bob's 15,630 > Dee's 8,378 gives a pairwise assertion even though no
    # candidate assertion is needed here
    assertion, eae = _step_table(ctx)["Bob", frozenset({"Cal"})]
    assert ctx.exact_margin(assertion) > 0 and not math.isinf(eae)


def test_branch_and_bound_example_complete(irv_profile):
    outcome = tabulate(irv_profile)
    result = gen_irv_viability(AuditContext(irv_profile, PARAMS), outcome)
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
    result = gen_irv_viability(AuditContext(profile, PARAMS), outcome)
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
    first = gen_irv_viability(AuditContext(irv_profile, PARAMS), outcome)
    second = gen_irv_viability(AuditContext(irv_profile, PARAMS), outcome)
    assert [e.assertion.key for e in first.entries] == [e.assertion.key for e in second.entries]
    assert first.proof_log == second.proof_log


def test_an_open_outcome_is_named_and_only_the_reductions_kept():
    """An alternative outcome with no affordable assertion on its root edge
    or any of its steps leaves the search open: its ``FAIL`` line names
    that outcome, and the spec keeps only the reductions."""
    profile = random_irv_profile(random.Random(52))
    spec, log = build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=52))
    assert log == (
        "definite viable W = ['D']; never viable L = []",
        "reduction: Viable(D | out {} | t=3/20) margin 4.5686 eae 1",
        "FAIL: no assertion rules out [E -> C -> B | viable {A,D}]",
        "status: requires-full-count; assertions: 1",
    )
    assert [e.assertion.key for e in spec.entries] == ["viable:D:E=:t=3/20"]
    ctx = AuditContext(profile, RiskParams(seed=52))
    assert math.isinf(best_root_assertion(frozenset("AD"), ctx)[1])
    steps = _step_table(ctx)
    assert all(math.isinf(steps[c, frozenset(gone)][1]) for c, gone in [("E", ""), ("C", "E"), ("B", "CE")])


def test_cut_proof_log_example():
    """The proof log states ``T*`` with the maximin path as its witness,
    the bound ``T`` the cut runs at, and one line per cut edge: the roots'
    in the order of the alternative sets, then the steps' from the largest
    sets down.  The spec is the reductions, then the cut's assertions."""
    profile = random_irv_profile(random.Random(395))
    spec, log = build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=395))
    assert log == (
        "definite viable W = ['A', 'D']; never viable L = []",
        "reduction: Viable(A | out {} | t=3/20) margin 0.7699 eae 7",
        "reduction: Viable(D | out {} | t=3/20) margin 2.1268 eae 1",
        "T* = 92: no cut is cheaper, as every edge of [C -> B | viable {A,D,E}] costs at least that "
        "(C 92, B inf, viable inf)",
        "cut at T = 92: 7 edges",
        "cut: viable {A,B,C,D} with NonViable(B | out {E} | t=3/20) (eae 70)",
        "cut: viable {A,C,D,E} with NonViable(E | out {B} | t=3/20) (eae 63)",
        "cut: viable {A,B,C,D,E} with NonViable(E | out {} | t=3/20) (eae 63)",
        "cut: C after {B,E} with Viable(C | out {B,E} | t=3/20) (eae 21)",
        "cut: C after {B} with IrvWins(C > E | out {B}) (eae 92)",
        "cut: C after {E} with Viable(C | out {E} | t=3/20) (eae 21)",
        "cut: C after {} with IrvWins(C > E | out {}) (eae 92)",
        "status: complete; assertions: 9",
    )
    assert spec.status == STATUS_COMPLETE
    assert [e.assertion.key for e in spec.entries] == [
        "viable:A:E=:t=3/20",
        "viable:D:E=:t=3/20",
        "nonviable:B:E=E:t=3/20",
        "nonviable:E:E=B:t=3/20",
        "nonviable:E:E=:t=3/20",
        "viable:C:E=B,E:t=3/20",
        "irv_wins:C>E:E=B",
        "viable:C:E=E:t=3/20",
        "irv_wins:C>E:E=",
    ]


T_STAR = re.compile(
    r"T\* = (\S+): no cut is cheaper, as every edge of \[(.*) \| viable \{(.*)\}\] costs at least that \((.*)\)"
)
CUT_AT = re.compile(r"cut at T = (\S+): (\d+) edges")
FAIL = re.compile(r"FAIL: no assertion rules out \[(.*) \| viable \{(.*)\}\]")
CUT = re.compile(r"cut: (?:viable \{(.*)\}|(\w+) after \{(.*)\}) with (.+) \(eae (\S+)\)")


def _labels(text):
    return frozenset(filter(None, text.split(",")))


def _check_cut_log(profile, spec, log) -> int:
    """Check a closed search's proof log against the context's own picks
    and count its cut lines: the witness path's edges all cost at least
    ``T*`` and one costs exactly that, ``T`` is ``T*`` or the reductions'
    largest ``eae``, and each cut line names the assertion that rules out
    its edge, at an ``eae`` of at most ``T``, among the spec's entries.
    A contest with no alternative outcome has nothing to cut."""
    if "no alternative outcome to rule out" in log:
        return 0
    ctx = AuditContext(profile, spec.params)
    reductions = compute_W_L(ctx)[2]
    t_star, order, vset, costs = T_STAR.fullmatch(next(line for line in log if line.startswith("T* = "))).groups()
    order = order.split(" -> ") if order != "(nobody eliminated)" else []
    steps = _step_table(ctx)
    edges = [steps[c, frozenset(order[:i])] for i, c in enumerate(order)]
    edges.append(best_root_assertion(_labels(vset), ctx))
    assert costs == ", ".join(f"{name} {eae}" for name, (_, eae) in zip(order + ["viable"], edges))
    assert min(eae for _, eae in edges) == float(t_star)
    bound, count = CUT_AT.fullmatch(next(line for line in log if line.startswith("cut at T = "))).groups()
    assert float(bound) == max([float(t_star)] + [e.eae for e in reductions])
    keys = {e.assertion.key for e in spec.entries}
    lines = [line for line in log if line.startswith("cut: ")]
    assert len(lines) == int(count)
    for line in lines:
        root, cand, gone, described, eae = CUT.fullmatch(line).groups()
        if root is not None:
            assertion, want = best_root_assertion(_labels(root), ctx)
        else:
            assertion, want = steps[cand, _labels(gone)]
        assert (described, float(eae)) == (str(assertion), want), line
        assert want <= float(bound) and assertion.key in keys, line
    return len(lines)


def test_cut_lines_name_the_edges_their_assertions_rule_out():
    profile = cyclic_contest(TEN_STRENGTHS)
    assert _check_cut_log(profile, *build_audit_spec(profile, tabulate(profile), 1, RiskParams(seed=1))) == 37
    rng, checked = random.Random(24), 0
    for _ in range(300):
        profile = random_irv_profile(rng, max_candidates=7, max_ballots=3000)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        spec, log = build_audit_spec(profile, outcome, 1, RiskParams(seed=1))
        if not any(line.startswith("FAIL:") for line in log):
            checked += _check_cut_log(profile, spec, log) > 0
    assert checked >= 20


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
        result = gen_irv_viability(AuditContext(profile, FUZZ_PARAMS), outcome)
        if not result.closed:
            continue
        elections += 1
        for _ in range(6):
            perturbed = perturb_profile(profile, rng)
            if not _spec_holds_on(result.entries, perturbed):
                continue
            try:
                new_viable = tabulate(perturbed).viable
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
    """The nine-candidate cyclic contest's level-3 spec costs what the
    least cut costs (the tree search reached the same 924 draws with 285
    entries) and stays a small cut: 2 reductions, 25 cut edges and 6
    delegate assertions."""
    import time

    profile = _nine_candidate_cyclic()
    outcome = tabulate(profile)
    started = time.perf_counter()
    spec, _ = build_audit_spec(profile, outcome, 3, PARAMS)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert spec.status == STATUS_COMPLETE
    assert max(entry.eae for entry in spec.entries) == 924
    assert len(spec.entries) <= 33
    ctx = AuditContext(profile, PARAMS)
    for entry in spec.entries:
        assert ctx.exact_margin(entry.assertion) > 0


def test_thirteen_candidate_search_under_budget():
    """The cut keeps the 13-candidate cyclic contest's level-3 search
    within seconds, at the least cost any cut can have."""
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


def test_move_picks_what_max_over_every_option_picks():
    """A step scores only the ``Viable`` and one ``IrvWins``, and builds
    nothing.  Its ``eae`` and the assertion built for it must be what
    ``_cheapest`` makes of the full list (the ``Viable``, then an
    ``IrvWins`` per standing candidate in roster order), and that
    assertion must be the option ``max`` picks from that list, ties
    included.  Small piles make ties common."""
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
        key = tuple(c for c in ctx.labels if c == cand or c in removed)
        top = set_states(ctx, [key])[key]
        i = key.index(cand)
        pick, eae = top.assertion(i, tau), top.steps[i][2]
        cheapest, least = _cheapest(full, ctx)
        assert eae == least and cheapest in (None, pick)
        assert pick == want
        best, irv_margins = ctx_margin(ctx)(want), list(map(ctx_margin(ctx), full[1:]))
        least_ties += want is not full[0] and irv_margins.count(best) > 1
        viable_ties += want is full[0] and best in irv_margins
    # both tie kinds are exercised, so their rules are tested
    assert least_ties > 50 and viable_ties > 50


def _full_step_options(ctx, cand, rest):
    """A step's full option list: ``Viable(cand, rest)``, then
    ``IrvWins(cand, o, rest)`` for each standing ``o`` in roster order."""
    others = [IrvWins(cand, o, rest) for o in ctx.labels if o != cand and o not in rest]
    return [Viable(cand, rest, ctx.threshold)] + others


def test_each_step_is_what_cheapest_makes_of_its_full_option_list():
    """Over a few hundred seeded contests, every state's step has the
    ``eae`` that ``_cheapest`` gives its full option list, each option
    built over its real eliminated set and scored on its own piles, and
    when that pick holds, it is the assertion the step builds.  Every cut
    line of the search names that pick at that ``eae``."""
    rng = random.Random(31)
    steps = cut = 0
    for _ in range(300):
        profile = random_irv_profile(rng, max_candidates=7, max_ballots=rng.choice([300, 3000]))
        params = RiskParams(error_rate=rng.choice([0.0, 0.002, 0.02]), seed=1)
        ctx = AuditContext(profile, params)
        for state in set_states(ctx, [ctx.labels]).values():
            for i, (cand, _, eae, child) in enumerate(state.steps):
                pick, least = _cheapest(_full_step_options(ctx, cand, child.removed), ctx)
                assert eae == least
                assert pick is None or state.assertion(i, ctx.threshold) == pick
                steps += 1
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        for line in gen_irv_viability(AuditContext(profile, params), outcome).proof_log:
            match = CUT.fullmatch(line)
            if match and match.group(2):
                _, cand, gone, described, eae = match.groups()
                pick, least = _cheapest(_full_step_options(ctx, cand, _labels(gone)), ctx)
                assert (described, float(eae)) == (str(pick), least), line
                cut += 1
    assert steps > 20000 and cut > 50


def test_root_picks_what_cheapest_picks_from_every_option():
    """``best_root_assertion`` scores each outsider's ``Viable`` on the
    first-preference piles and each member's ``NonViable`` on the piles
    with every outsider gone, and builds only its pick: the result must be
    what ``_cheapest`` makes of the full option list (``_root_options``),
    ties included.  Small piles, some passed on to the next candidate,
    make both kinds of tie common: outsiders' ``Viable`` tying each other,
    and a member's ``NonViable`` tying the best ``Viable``."""
    rng = random.Random(16)
    viable_ties = nonviable_ties = 0
    for _ in range(2000):
        labels = rng.sample("ABCDEF", rng.randint(2, 6))
        tau = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), TAU, Fraction(1)])
        ballots = [([c], rng.randint(0, 4)) for c in labels] + [([], rng.randint(0, 2))]
        ballots += [([c, d], rng.randint(0, 2)) for c, d in zip(labels, labels[1:]) if rng.random() < 0.3]
        if not any(n for ranking, n in ballots if ranking):
            ballots.append(([labels[0]], 1))
        ctx = AuditContext(build_profile(labels, ballots, tau, 1, "irv"), RiskParams(error_rate=0.0))
        vset = frozenset(c for c in labels if rng.random() < 0.4)
        options = _root_options(vset, ctx)
        assert best_root_assertion(vset, ctx) == _cheapest(options, ctx)
        margins = list(map(ctx_margin(ctx), options))
        viable = [m for a, m in zip(options, margins) if isinstance(a, Viable)]
        if not viable or max(viable) != max(margins):
            continue
        viable_ties += viable.count(max(viable)) > 1
        nonviable_ties += len(viable) < len(margins) and max(viable) in margins[len(viable):]
    # both tie kinds are exercised, so their rules are tested
    assert viable_ties > 50 and nonviable_ties > 50


def test_each_real_root_is_what_cheapest_makes_of_its_full_option_list():
    """Over a few hundred seeded contests and ``ten_cyclic``, every root the
    search makes (each alternative viable set, and the empty set when no
    candidate is definitely viable) gets from ``best_root_assertion`` the
    pick and ``eae`` that ``_cheapest`` gives its full option list
    (``_root_options``): every outsider's ``Viable`` over the empty set and
    every member's ``NonViable`` over the real set of outsiders, each
    scored on its own piles.  Some roots' largest margins tie, so the tie
    rule is tested on real roots too."""
    rng = random.Random(47)
    profiles = [cyclic_contest(TEN_STRENGTHS)] + [
        random_irv_profile(rng, max_candidates=7, max_ballots=rng.choice([60, 300]),
                           threshold=rng.choice([TAU, Fraction(1, 4), Fraction(1, 3)]))
        for _ in range(300)
    ]
    roots = ties = 0
    for profile in profiles:
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        ctx = AuditContext(profile, RiskParams(error_rate=rng.choice([0.0, 0.002]), seed=1))
        winners, losers, _ = compute_W_L(ctx)
        vsets = enumerate_alt_sets(ctx.labels, winners, losers, max_viable(ctx.threshold), outcome.viable)
        for vset in vsets + ([] if winners else [frozenset()]):
            options = _root_options(vset, ctx)
            assert best_root_assertion(vset, ctx) == _cheapest(options, ctx), (profile, vset)
            margins = list(map(ctx_margin(ctx), options))
            ties += margins.count(max(margins)) > 1
            roots += 1
    assert roots > 2000 and ties > 200, (roots, ties)


def _tie_heavy_contest(rng):
    """A small ring contest at threshold 1/4 whose candidates hold a few
    equal first-preference piles, some passing part of their votes on.
    Few candidates clear the threshold, so steps choose among
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


def _states_with(pick, standing_order):
    """``set_states`` with each step scored afresh from its own option list
    (the ``Viable``, then an ``IrvWins`` per standing candidate in
    ``standing_order(standing)``, each over the set gone before it) handed
    to ``pick``, and each ``best`` and ``via`` solved again from those
    steps, smallest sets first."""

    def states_with(ctx, tops):
        states = set_states(ctx, tops)
        for state in states.values():
            state.best, state.via = (-math.inf if state.unmentioned else math.inf), -1
            for i, (cand, _, _, child) in enumerate(state.steps):
                gone = child.removed
                standing = standing_order([c for c in ctx.labels if c != cand and c not in gone])
                options = [Viable(cand, gone, ctx.threshold)] + [IrvWins(cand, other, gone) for other in standing]
                assertion, eae = pick(options, ctx)
                state.steps[i] = cand, getattr(assertion, "loser", None), eae, child
                if min(eae, child.best) > state.best:
                    state.best, state.via = min(eae, child.best), i
        return states

    return states_with


def _roster_order(standing):
    return standing


def _reversed_order(standing):
    """The standing candidates in reverse roster order."""
    return standing[::-1]


def _build_equivalence_specs(pick=None, standing_order=None):
    """Level 1 and 3 specs and logs of every tabulable equivalence contest,
    with roots and steps picked by ``pick`` when given, and the number of
    simulations the builds ran."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return estimate_asn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(viability, "estimate_asn", counted)
        if pick is not None:
            patch.setattr(viability, "best_root_assertion", lambda vset, ctx: pick(_root_options(vset, ctx), ctx))
            patch.setattr(viability, "set_states", _states_with(pick, standing_order))
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
    """Against the full scan that takes ``min`` by ``eae`` over each step's
    own option order (the standing candidates in reverse roster order),
    every spec has the same status and the same largest ``eae``: each
    edge's estimate is the same least one, so the flow cuts the same edges
    at the same costs, and the specs differ at most in which of equally
    cheap assertions an edge names."""
    built, _ = equivalence_builds
    reference, _ = _build_equivalence_specs(_full_scan_min, _reversed_order)
    assert len(built) == len(reference) > 110

    def cut_edges(log):
        return [re.sub(r" with .* \(eae", " (eae", line) for line in log if line.startswith("cut: ")]

    cut = named_differently = 0
    for specs, ref_specs in zip(built, reference):
        for level, (spec, log) in specs.items():
            ref_spec, ref_log = ref_specs[level]
            assert spec.status == ref_spec.status
            # the stored estimates: the overall one of a full-count spec is inf
            largest, ref_largest = (max((e.eae for e in s.entries), default=0) for s in (spec, ref_spec))
            assert largest == ref_largest
            assert cut_edges(log) == cut_edges(ref_log)
            assert len(spec.entries) == len(ref_spec.entries)
            cut += bool(cut_edges(log))
            named_differently += log != ref_log
    assert cut > 10 and named_differently > 0


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


def _brute_force_t_star(profile, params):
    """The largest, over every alternative viable set and every order of
    the candidates outside it, of the least ``eae`` on that outcome's root
    edge and steps."""
    ctx = AuditContext(profile, params)
    winners, losers, _ = compute_W_L(ctx)
    vsets = enumerate_alt_sets(ctx.labels, winners, losers, max_viable(ctx.threshold), tabulate(profile).viable)
    if not winners:
        vsets.append(frozenset())
    best, table = -math.inf, _step_table(ctx)
    for vset in vsets:
        root = best_root_assertion(vset, ctx)[1]
        for order in permutations([c for c in ctx.labels if c not in vset]):
            steps = [table[c, frozenset(order[:i])][1] for i, c in enumerate(order)]
            best = max(best, min([root] + steps))
    return best


def test_t_star_is_the_brute_force_maximin():
    """The maximin pass's ``T*`` equals the brute-force maximum over every
    outcome of its least ``eae``, and a search is open exactly when that
    maximum is infinite.  An open search's ``FAIL`` line names an outcome
    that really is open: its order eliminates exactly the candidates
    outside its viable set, and its root edge and every step have an
    infinite ``eae``."""
    rng = random.Random(61)
    seen = Counter()
    while seen["closed"] < 40 or seen["open"] < 3:
        profile = random_irv_profile(rng, max_candidates=6, max_ballots=rng.choice([300, 3000]))
        params = RiskParams(error_rate=rng.choice([0.002, 0.02]), seed=1)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        log = gen_irv_viability(AuditContext(profile, params), outcome).proof_log
        want = _brute_force_t_star(profile, params)
        if "no alternative outcome to rule out" in log:
            assert want == -math.inf
            continue
        t_star = [float(T_STAR.fullmatch(line).group(1)) for line in log if line.startswith("T* = ")]
        assert t_star == ([] if math.isinf(want) else [want]), dict(profile.rankings)
        fails = [FAIL.fullmatch(line) for line in log if line.startswith("FAIL:")]
        assert len(fails) == math.isinf(want)
        for fail in fails:
            order = fail.group(1).split(" -> ") if fail.group(1) != "(nobody eliminated)" else []
            vset = _labels(fail.group(2))
            assert sorted(order) == sorted(set(profile.labels) - vset)
            ctx = AuditContext(profile, params)
            assert math.isinf(best_root_assertion(vset, ctx)[1])
            steps = _step_table(ctx)
            for i, c in enumerate(order):
                assert math.isinf(steps[c, frozenset(order[:i])][1])
        seen["open" if math.isinf(want) else "closed"] += 1


def test_cut_does_not_depend_on_the_flow_graphs_arc_order(monkeypatch):
    """Every maximum flow leaves the same nodes reachable from the source,
    so inserting the flow graph's arcs in reverse gives the same spec and
    proof-log bytes.  The seeded contests are drawn at thresholds 1/4 and
    1/3, where far more searches reach the cut than at 3/20: 34 of the
    levels built here do."""
    contests = [
        (cyclic_contest(TEN_STRENGTHS), RiskParams(seed=1)),
        (load_election(DATA / "election_irv.json"), PARAMS),
    ]
    rng = random.Random(24)
    while len(contests) < 40:
        profile = random_irv_profile(rng, max_candidates=7, max_ballots=3000,
                                     threshold=rng.choice([Fraction(1, 4), Fraction(1, 3)]))
        contests.append((profile, RiskParams(seed=1)))

    def build_all():
        built = []
        for profile, params in contests:
            try:
                outcome = tabulate(profile)
            except UnsupportedOutcomeError:
                continue
            built.append(build_audit_specs(profile, outcome, (1, 3), params))
        return _as_bytes(built)

    forward = build_all()
    monkeypatch.setattr(viability, "source_side", lambda n, arcs, s, t, side=source_side: side(n, arcs[::-1], s, t))
    assert build_all() == forward
    assert sum("\ncut: " in "\n".join(log) for specs in forward for _, log in specs.values()) >= 34


def _least_minimum_source_set(node_count, arcs, source, sink):
    """The intersection of every source set (holding ``source``, not
    ``sink``) whose cut has the least capacity, an unbounded arc counting
    as infinite; ``None`` when every cut crosses an unbounded arc."""
    others = [node for node in range(node_count) if node not in (source, sink)]
    least, meet = math.inf, None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            inside = {source, *extra}
            cost = sum(math.inf if units is None else units
                       for tail, head, units in arcs if tail in inside and head not in inside)
            if cost < least:
                least, meet = cost, inside
            elif cost == least and meet is not None:
                meet &= inside
    return meet if least < math.inf else None


def test_source_side_is_the_least_minimum_cut_by_brute_force():
    """On random graphs of up to 8 nodes, with parallel and antiparallel
    arcs, capacities 1 to 4 and unbounded arcs, in shuffled arc orders,
    ``source_side`` returns the intersection of every source set of least
    cut capacity: the least minimum cut.  Where every cut crosses an
    unbounded arc, it still leaves the sink unreached."""
    rng = random.Random(83)
    seen = Counter()
    while seen["finite"] < 300:
        node_count = rng.randint(2, 8)
        source, sink = rng.sample(range(node_count), 2)
        arcs = []
        for _ in range(rng.randint(1, 3 * node_count)):
            tail, head = rng.sample(range(node_count), 2)
            arcs += [(tail, head, None if rng.random() < 0.25 else rng.randint(1, 4))] * rng.choice((1, 1, 2, 3))
        want = _least_minimum_source_set(node_count, arcs, source, sink)
        for _ in range(3):
            rng.shuffle(arcs)
            side = source_side(node_count, arcs, source, sink)
            assert side[source] and not side[sink]
            if want is not None:
                assert {node for node in range(node_count) if side[node]} == want, (node_count, arcs, source, sink)
        seen["finite" if want is not None else "infinite"] += 1
        seen["parallel"] += want is not None and len({arc[:2] for arc in arcs}) < len(arcs)
        seen["unbounded"] += want is not None and None in {units for _, _, units in arcs}
        seen["between"] += want is not None and 1 < len(want) < node_count - 1
    assert seen["parallel"] > 150 and seen["unbounded"] > 100 and seen["between"] > 50 and seen["infinite"] > 20, seen


def _full_graph_side(states, roots, bound):
    """The source side ``source_side`` finds on the whole graph: one arc
    from the source into each root's set and one per step, none
    contracted; and the number of those arcs."""
    source = len(states)
    arcs = [(source, states[top].id, None if eae > bound else 1) for _, top, _, eae in roots]
    arcs += [(state.id, child.id, None if eae > bound else 1)
             for state in states.values() for _, _, eae, child in state.steps]
    return source_side(source + 1, arcs, source, states[()].id), len(arcs)


def test_contracted_cut_is_the_full_graphs(monkeypatch):
    """Contracting the sets that the source reaches over edges that cannot
    be cut leaves the least minimum cut as it is on the full graph: on 300
    seeded contests of up to 7 candidates, ``ten_cyclic`` and its shuffled
    roster, and the 12- to 14-candidate cyclic contests, built at levels 1
    and 3, ``cut_side`` gives every set the side that ``source_side`` gives
    it over an arc per root and per step.  More than 100 of the contests
    reach the cut, and the contraction takes arcs away on more than 100,
    every cyclic one among them."""
    ten = cyclic_contest(TEN_STRENGTHS)
    roster = list(ten.labels)
    random.Random(5).shuffle(roster)
    shuffled = build_profile(roster, [(list(r), n) for r, n in ten.rankings.items()], ten.threshold, ten.delegates, IRV)
    cyclic = [ten, shuffled] + [cyclic_contest(FOURTEEN_STRENGTHS[:size]) for size in (12, 13, 14)]
    rng = random.Random(36)
    contests = [(profile, RiskParams(seed=1)) for profile in cyclic] + [
        (random_irv_profile(rng, max_candidates=7, max_ballots=rng.choice([3000, 20000]),
                            threshold=rng.choice([Fraction(1, 4), Fraction(1, 3)])),
         RiskParams(error_rate=rng.choice([0.0, 0.002]), seed=1))
        for _ in range(300)
    ]
    flow_arcs, arcs = [], []

    def recorded(node_count, graph, source, sink):
        flow_arcs.append(len(graph))
        return source_side(node_count, graph, source, sink)

    def checked(states, roots, bound):
        side = cut_side(states, roots, bound)
        full, count = _full_graph_side(states, roots, bound)
        assert side == full
        arcs.append((flow_arcs[-1], count))
        return side

    monkeypatch.setattr(viability, "source_side", recorded)
    monkeypatch.setattr(viability, "cut_side", checked)
    for profile, params in contests:
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        build_audit_specs(profile, outcome, (1, 3), params)
    assert len(arcs) == len(flow_arcs) > 100
    assert all(contracted < full for contracted, full in arcs[:len(cyclic)])
    assert sum(contracted < full for contracted, full in arcs) > 100
