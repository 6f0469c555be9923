"""A brute-force check, independent of the search, that a complete IRV
viability spec rules out every alternative outcome.

An alternative outcome is a viable set other than the reported one,
empty included, with no more members than the threshold allows, plus an
order in which every other candidate is eliminated.  ``rules_out`` reads
each assertion form by the monotone argument: piles only grow as more
candidates go.  The oracle uses ``assertions`` and ``model`` alone; the
search is run only to produce the specs it judges.
"""
import random
from fractions import Fraction
from itertools import combinations

from conftest import DATA, random_irv_profile
from hamilton_rla import RiskParams, build_audit_spec, tabulate
from hamilton_rla.assertions import Assertion, IrvWins, NonViable, Viable
from hamilton_rla.model import STATUS_COMPLETE, UnsupportedOutcomeError, load_election

TAU = Fraction(3, 20)


def rules_out(assertion: Assertion, order: tuple[str, ...], viable: frozenset[str]) -> bool:
    """Whether ``assertion``, holding, contradicts eliminating ``order`` in
    turn and leaving ``viable`` standing as the viable set.

    ``Viable(c, E)``: ``c`` goes at a step where the set already gone
    contains ``E``.  ``IrvWins(w, l, E)``: ``w`` goes right after exactly
    ``E`` is gone, so ``l``, outside ``E``, still stands.
    ``NonViable(c, E)``: ``c`` ends viable with everyone eliminated in ``E``.
    """
    if isinstance(assertion, NonViable):
        return assertion.candidate in viable and assertion.eliminated.issuperset(order)
    gone: set[str] = set()
    for cand in order:
        if isinstance(assertion, Viable) and cand == assertion.candidate and assertion.eliminated <= gone:
            return True
        if isinstance(assertion, IrvWins) and cand == assertion.winner and gone == assertion.eliminated:
            return True
        gone.add(cand)
    return False


def open_outcomes(assertions, labels, viable):
    """The elimination orders of the candidates outside ``viable`` that no
    assertion rules out.  A prefix ruled out with nobody viable is ruled
    out for every completion, since only ``NonViable`` reads the viable set."""
    rest = [c for c in labels if c not in viable]

    def extend(prefix: tuple[str, ...]):
        if any(rules_out(a, prefix, frozenset()) for a in assertions):
            return
        if len(prefix) == len(rest):
            if not any(rules_out(a, prefix, viable) for a in assertions):
                yield prefix
            return
        for cand in rest:
            if cand not in prefix:
                yield from extend(prefix + (cand,))

    return extend(())


def alternative_viable_sets(profile, reported):
    """Every viable set other than ``reported`` the threshold allows."""
    cap = profile.threshold.denominator // profile.threshold.numerator
    return [
        frozenset(vset)
        for size in range(min(cap, len(profile.labels)) + 1)
        for vset in combinations(profile.labels, size)
        if frozenset(vset) != reported
    ]


def assert_rules_out_every_alternative(profile, seed: int) -> bool:
    """Whether the level-1 search closed; if it did, no alternative
    outcome is left open, and the reported outcome itself is not ruled out."""
    outcome = tabulate(profile)
    spec, _ = build_audit_spec(profile, outcome, 1, RiskParams(seed=seed))
    if spec.status != STATUS_COMPLETE:
        return False
    assertions = [entry.assertion for entry in spec.entries]
    for vset in alternative_viable_sets(profile, outcome.viable):
        assert next(open_outcomes(assertions, profile.labels, vset), None) is None, (dict(profile.rankings), vset)
    assert not any(rules_out(a, outcome.elimination_order, outcome.viable) for a in assertions)
    return True


def test_rules_out_reads_each_form_monotonely():
    viable = frozenset({"A"})
    order = ("C", "D", "B")
    assert rules_out(Viable("B", frozenset({"C"}), TAU), order, viable)  # B goes after C and D
    assert not rules_out(Viable("C", frozenset({"D"}), TAU), order, viable)  # C goes first
    assert rules_out(IrvWins("D", "B", frozenset({"C"})), order, viable)
    assert not rules_out(IrvWins("D", "B", frozenset()), order, viable)  # D goes after C, not first
    assert rules_out(NonViable("A", frozenset({"B", "C", "D"}), TAU), order, viable)
    assert not rules_out(NonViable("A", frozenset({"B", "C"}), TAU), order, viable)  # D went too
    assert not rules_out(NonViable("B", frozenset({"C", "D"}), TAU), order, viable)  # B does not end viable


def test_election_irv_rules_out_every_alternative():
    assert assert_rules_out_every_alternative(load_election(DATA / "election_irv.json"), 1)


def test_random_contests_rule_out_every_alternative():
    rng = random.Random(24)
    closed = 0
    for _ in range(300):
        profile = random_irv_profile(rng, max_candidates=7, max_ballots=3000)
        try:
            closed += assert_rules_out_every_alternative(profile, 1)
        except UnsupportedOutcomeError:
            continue
    assert closed >= 200

