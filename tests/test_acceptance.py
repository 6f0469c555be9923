"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; a pytest failure is the FAIL line.
"""
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import enumerate_allocations, perturb_profile, random_irv_profile
from hamilton_rla import RiskParams, UnsupportedOutcomeError, build_profile, tabulate
from hamilton_rla.assertions import (
    IrvWins,
    NonViable,
    PairwiseDiff,
    Viable,
    assertion_key,
    assorter_value,
    margin,
)
from hamilton_rla.cli import main as cli_main
from hamilton_rla.delegates import find_violated_assertion
from hamilton_rla.model import STATUS_COMPLETE, load_election
from hamilton_rla.risk import estimate_asn, estimate_audit_asn
from hamilton_rla.tabulation import count_piles, irv_viability
from hamilton_rla.viability import AuditContext, branch_and_bound, build_audit_spec

TAU = Fraction(3, 20)
PARAMS = RiskParams(seed=42)


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_tabulation_exactness(plurality_profile, irv_profile):
    started = time.perf_counter()
    o1 = tabulate(plurality_profile)
    assert o1.final_tally == {"Ann": 57532, "Bob": 15630, "Cal": 1600, "Dee": 846}
    assert o1.total_ballots == 75608
    assert o1.viable == {"Ann", "Bob"}

    o2 = tabulate(irv_profile)
    assert o2.elimination_order == ("Cal", "Dee")
    r1, r2, _ = o2.rounds
    assert abs(100 * r1.piles["Cal"] / o2.valid_ballots - 10.052) < 0.001
    assert abs(100 * r2.piles["Dee"] / o2.valid_ballots - 11.080) < 0.001

    for outcome in (o1, o2):
        assert outcome.qualified_total == 73162
        assert abs(float(outcome.quotas["Ann"]) - 3.932) < 0.001
        assert abs(float(outcome.quotas["Bob"]) - 1.068) < 0.001
        assert outcome.allocation == {"Ann": 4, "Bob": 1}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "tabulation exactness")


def test_criterion_2_margin_reproduction(plurality_profile):
    viability_margins = [
        (Viable("Ann", frozenset(), TAU), 4.073, 0.001),
        (Viable("Bob", frozenset(), TAU), 0.378, 0.001),
        (NonViable("Cal", frozenset(), TAU), 0.152, 0.001),
        (NonViable("Dee", frozenset(), TAU), 0.163, 0.001),
        (PairwiseDiff("Bob", "Ann", Fraction(-4, 5), frozenset({"Ann", "Bob"})), 1.1, 0.01),
        (PairwiseDiff("Ann", "Bob", Fraction(2, 5), frozenset({"Ann", "Bob"})), 0.12, 0.01),
    ]
    for assertion, expected, tol in viability_margins:
        got = float(margin(assertion, plurality_profile).margin)
        assert abs(got - expected) < tol, (assertion, got)
    _report(2, "margin reproduction")


def test_criterion_3_asn_reproduction(plurality_profile):
    assert PARAMS.alpha == 0.05 and PARAMS.gamma == 1.1
    assert PARAMS.error_rate == 0.002 and PARAMS.trials >= 20
    outcome = tabulate(plurality_profile)
    spec, _ = build_audit_spec(plurality_profile, outcome, 3, PARAMS)
    reported = {
        assertion_key(Viable("Ann", frozenset(), TAU)): 1,
        assertion_key(Viable("Bob", frozenset(), TAU)): 17,
        assertion_key(NonViable("Cal", frozenset(), TAU)): 46,
        assertion_key(NonViable("Dee", frozenset(), TAU)): 42,
        assertion_key(
            PairwiseDiff("Bob", "Ann", Fraction(-4, 5), frozenset({"Ann", "Bob"}))
        ): 5,
        assertion_key(
            PairwiseDiff("Ann", "Bob", Fraction(2, 5), frozenset({"Ann", "Bob"}))
        ): 59,
    }
    assert len(spec.entries) == 6
    for entry in spec.entries:
        expected = reported[assertion_key(entry.assertion)]
        assert abs(entry.eae - expected) <= 0.3 * expected, (entry.assertion, entry.eae)
    level1, _ = build_audit_spec(plurality_profile, outcome, 1, PARAMS)
    overall = estimate_audit_asn(level1)
    assert abs(overall - 46) <= 0.3 * 46
    _report(3, "sample-size reproduction")


def test_criterion_4_wrong_allocations_always_violated():
    started = time.perf_counter()
    rng = random.Random(2024)
    elections = 0
    alternatives = 0
    while elections < 1000:
        n = rng.randint(2, 6)
        labels = [chr(ord("A") + i) for i in range(n)]
        ballots = [([c], rng.randint(1, 83)) for c in labels]
        delegates = rng.randint(1, 12)
        profile = build_profile(labels, ballots, TAU, delegates, "plurality")
        assert profile.total_ballots <= 500
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        if len(outcome.viable) < 2:
            continue
        elections += 1
        viable = sorted(outcome.viable)
        true = dict(outcome.allocation)
        for alt in enumerate_allocations(viable, delegates):
            if alt == true:
                continue
            alternatives += 1
            witness = find_violated_assertion(profile, alt, outcome)
            assert witness is not None, (ballots, delegates, alt, true)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, elapsed
    assert alternatives > 10000
    _report(4, f"allocation fuzz ({elections} elections, {alternatives} wrong allocations, {elapsed:.1f}s)")


def test_criterion_5_viability_soundness_fuzz():
    started = time.perf_counter()
    rng = random.Random(2025)
    fuzz_params = RiskParams(trials=5, seed=7)
    elections = 0
    perturbations_checked = 0
    while elections < 300:
        profile = random_irv_profile(rng, max_candidates=6, max_ballots=300)
        try:
            outcome = tabulate(profile)
        except UnsupportedOutcomeError:
            continue
        result = branch_and_bound(AuditContext(profile, fuzz_params), outcome)
        if result.status != STATUS_COMPLETE:
            continue
        elections += 1
        for _ in range(8):
            perturbed = perturb_profile(profile, rng)
            ctx = AuditContext(perturbed)
            if not all(ctx.holds(e.assertion) for e in result.entries):
                continue
            perturbations_checked += 1
            try:
                new_viable = irv_viability(perturbed).viable
            except UnsupportedOutcomeError:
                raise AssertionError(
                    f"assertions hold but no candidate viable: {dict(perturbed.rankings)}"
                )
            assert new_viable == outcome.viable, (
                dict(profile.rankings),
                dict(perturbed.rankings),
                sorted(new_viable),
                sorted(outcome.viable),
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, elapsed
    assert perturbations_checked >= 300
    _report(
        5,
        f"viability soundness fuzz ({elections} elections, "
        f"{perturbations_checked} surviving perturbations, {elapsed:.1f}s)",
    )


def test_criterion_6_closed_form_risk_function():
    rng = random.Random(606)
    params = RiskParams(error_rate=0.0, seed=3)
    population = 10**7
    for _ in range(50):
        mu = rng.uniform(1e-5, 2 * params.gamma - 1e-12)
        expected = math.ceil(math.log(params.alpha) / math.log(1 - mu / (2 * params.gamma)))
        assert estimate_asn(mu, params, population) == expected, mu
    for _ in range(20):
        mu = rng.uniform(2 * params.gamma, 10.0)
        assert estimate_asn(mu, params, population) == 1
    _report(6, "zero-error closed form")


def test_criterion_7_assorter_invariants():
    rng = random.Random(707)
    checked = 0
    for _ in range(60):
        profile = random_irv_profile(rng, max_candidates=5)
        valid = profile.valid_ballots
        if valid == 0:
            continue
        labels = list(profile.labels)
        t = profile.threshold
        winner, loser = rng.sample(labels, 2)
        eliminated = frozenset(
            rng.sample([c for c in labels if c not in (winner, loser)], rng.randint(0, len(labels) - 2))
        )
        viable_all = frozenset(labels)
        cases = [
            Viable(winner, eliminated, t),
            NonViable(winner, eliminated, t),
            IrvWins(winner, loser, eliminated),
            PairwiseDiff(winner, loser, Fraction(rng.randint(-9, 9), 10), viable_all),
        ]
        piles, _ = count_piles(profile, eliminated)
        for a in cases:
            u = a.upper_bound
            for ranking in profile.rankings:
                assert 0 <= assorter_value(a, ranking) <= u
            s = margin(a, profile)
            assert 0 <= s.mean <= u
            assert -1 <= s.margin <= 2 * u - 1
            if isinstance(a, Viable):
                assert (s.margin > 0) == (Fraction(piles[a.candidate], valid) > t)
            elif isinstance(a, NonViable):
                assert (s.margin > 0) == (Fraction(piles[a.candidate], valid) < t)
            elif isinstance(a, IrvWins):
                assert (s.margin > 0) == (piles[a.winner] > piles[a.loser])
        # zero-offset difference assorter equals the pairwise-majority assorter
        diff = PairwiseDiff(winner, loser, Fraction(0), viable_all)
        maj = IrvWins(winner, loser, frozenset())
        for ranking in profile.rankings:
            assert assorter_value(diff, ranking) == assorter_value(maj, ranking)
        checked += 1
    assert checked >= 40
    _report(7, f"assorter invariants over {checked} random profiles")


def test_criterion_8_scale_timing():
    # plurality contest with a large field (two strong, many minor candidates)
    rng = random.Random(808)
    labels = [f"cand{i:02d}" for i in range(34)]
    ballots = [
        ([labels[0]], 76000),
        ([labels[1]], 63000),
        ([labels[2]], 51000),
    ]
    remaining = 298377 - sum(n for _, n in ballots)
    minors = labels[3:]
    for i, label in enumerate(minors):
        share = remaining // (len(minors) - i)
        count = rng.randint(share // 2, share)
        remaining -= count
        ballots.append(([label], count))
    profile = build_profile(labels, ballots, TAU, 24, "plurality")
    started = time.perf_counter()
    outcome = tabulate(profile)
    spec, _ = build_audit_spec(profile, outcome, 3, PARAMS)
    plurality_elapsed = time.perf_counter() - started
    assert plurality_elapsed < 10.0, plurality_elapsed
    assert len([e for e in spec.entries if not isinstance(e.assertion, PairwiseDiff)]) == 34

    # ranked contest with nine candidates: two first-preference leaders and
    # seven minors kept alive by a cycle of transfers, so the reduction sets
    # stay small and the outcome search is genuinely exercised
    irv_labels = [f"c{i}" for i in range(9)]
    strengths = [4400, 3160, 2400, 2200, 2000, 1800, 1600, 1340, 1100]
    irv_ballots = []
    for i, (label, weight) in enumerate(zip(irv_labels, strengths)):
        if i < 2:
            irv_ballots.append(([label], weight))
        else:
            nxt = irv_labels[2 + ((i - 2 + 1) % 7)]
            nxt2 = irv_labels[2 + ((i - 2 + 2) % 7)]
            irv_ballots.append(([label, nxt, nxt2], weight * 2 // 3))
            irv_ballots.append(([label, nxt2], weight - weight * 2 // 3))
    irv_profile = build_profile(irv_labels, irv_ballots, TAU, 14, "irv")
    started = time.perf_counter()
    irv_outcome = tabulate(irv_profile)
    irv_spec, _ = build_audit_spec(irv_profile, irv_outcome, 3, PARAMS)
    irv_elapsed = time.perf_counter() - started
    assert irv_elapsed < 10.0, irv_elapsed
    assert irv_spec.status == STATUS_COMPLETE
    assert len(irv_spec.entries) > 50  # a real outcome search, not just reductions
    _report(
        8,
        f"scale timing (34-candidate {plurality_elapsed:.2f}s, 9-candidate IRV {irv_elapsed:.2f}s)",
    )


def test_criterion_9_estimate_table_with_full_recount_sentinel(tmp_path, capsys):
    # statewide-scale contest where one candidate misses 15% by a whisker
    ballots = [
        {"ranking": ["Biden"], "count": 79723},
        {"ranking": ["Sanders"], "count": 15524},
        {"ranking": ["Warren"], "count": 3500},
        {"ranking": ["Bloomberg"], "count": 2600},
        {"ranking": ["Buttigieg"], "count": 1400},
        {"ranking": ["Klobuchar"], "count": 800},
        {"ranking": ["Gabbard"], "count": 435},
    ]
    election = {
        "candidates": [b["ranking"][0] for b in ballots],
        "threshold": "15/100",
        "delegates": 11,
        "style": "plurality",
        "ballots": ballots,
    }
    path = tmp_path / "near_threshold.json"
    path.write_text(json.dumps(election))
    profile = load_election(path)
    assert profile.total_ballots == 103982
    share = 100 * 15524 / 103982
    assert 14.92 < share < 15.0  # narrowly below the threshold

    code = cli_main(
        ["--format", "json", "estimate", "--election", str(path), "--seed", "42"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 4
    assert set(payload["levels"]) == {"1", "2", "3"}
    for level in ("1", "2", "3"):
        data = payload["levels"][level]
        assert data["overall_asn"] is None  # full-recount sentinel
        assert data["per_assertion"]
    # text rendering shows the dash sentinel
    code = cli_main(["estimate", "--election", str(path), "--seed", "42"])
    text = capsys.readouterr().out
    assert code == 4
    assert "--" in text
    _report(9, "estimate table with full-recount sentinel")
