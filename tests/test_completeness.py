"""Two checks, independent of the search, that a complete IRV viability
spec rules out every alternative outcome.

An alternative outcome is a viable set other than the reported one,
empty included, with no more members than the threshold allows, plus an
order in which every other candidate is eliminated.  ``rules_out`` reads
each assertion form by the monotone argument: piles only grow as more
candidates go.  The brute-force check enumerates orders, so it stops at
about 8 candidates.

``open_outcome`` reads the same forms per step instead, and searches the
sets still to be eliminated: ``Viable(c, E)`` rules out the step "``c``
goes right after exactly ``S`` is gone" for every ``S`` containing ``E``,
``IrvWins(w, l, E)`` the step ``(w, E)``, and ``NonViable(c, E)`` the
final viable set ``V`` when ``c`` is in ``V`` and ``E`` contains every
candidate outside ``V``.  An outcome is open when its viable set is not
ruled out and a path of steps that are not ruled out leads from the
candidates outside ``V`` to the empty set.  That is 2^k sets rather than
k! orders, so it judges the 14-candidate cyclic contest; the brute-force
check is its oracle up to 7 candidates.

Both checks use ``assertions`` and ``model`` alone; the search is run
only to produce the specs they judge.
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import DATA, FOURTEEN_STRENGTHS, cyclic_contest, random_irv_profile
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


def step_checks(assertions, labels):
    """Per-step readings of ``assertions``: whether a final viable set is
    ruled out, and whether the step ``(cand, gone)`` is."""
    viables: dict[str, list[frozenset[str]]] = {}
    irv_steps = set()
    nonviables = []
    for a in assertions:
        if isinstance(a, Viable):
            viables.setdefault(a.candidate, []).append(a.eliminated)
        elif isinstance(a, IrvWins):
            irv_steps.add((a.winner, a.eliminated))
        elif isinstance(a, NonViable):
            nonviables.append(a)

    def root_ruled_out(vset: frozenset[str]) -> bool:
        rest = frozenset(labels) - vset
        return any(a.candidate in vset and a.eliminated >= rest for a in nonviables)

    def step_ruled_out(cand: str, gone: frozenset[str]) -> bool:
        return (cand, gone) in irv_steps or any(e <= gone for e in viables.get(cand, ()))

    return root_ruled_out, step_ruled_out


def open_outcome(assertions, labels, viable_sets):
    """An outcome ``(viable set, elimination order)`` among ``viable_sets``
    that no assertion rules out, read per step over the sets still to be
    eliminated; None when every one is ruled out."""
    root_ruled_out, step_ruled_out = step_checks(assertions, labels)
    dead: set[frozenset[str]] = set()  # sets from which every path to the empty set is ruled out

    def order_of(todo: frozenset[str]):
        """An order eliminating ``todo`` whose steps are not ruled out."""
        if not todo:
            return ()
        if todo in dead:
            return None
        for cand in labels:
            if cand in todo and not step_ruled_out(cand, todo - {cand}):
                order = order_of(todo - {cand})
                if order is not None:
                    return order + (cand,)
        dead.add(todo)
        return None

    for vset in viable_sets:
        order = None if root_ruled_out(vset) else order_of(frozenset(labels) - vset)
        if order is not None:
            return vset, order
    return None


def steps_rule_out(assertions, labels, order, viable) -> bool:
    """Whether the per-step readings rule out eliminating ``order`` in turn
    and leaving ``viable``."""
    root_ruled_out, step_ruled_out = step_checks(assertions, labels)
    return root_ruled_out(viable) or any(step_ruled_out(c, frozenset(order[:i])) for i, c in enumerate(order))


def alternative_viable_sets(profile, reported):
    """Every viable set other than ``reported`` the threshold allows."""
    cap = profile.threshold.denominator // profile.threshold.numerator
    return [
        frozenset(vset)
        for size in range(min(cap, len(profile.labels)) + 1)
        for vset in combinations(profile.labels, size)
        if frozenset(vset) != reported
    ]


def brute_force_open(assertions, profile, vsets):
    """Whether the brute-force check finds an outcome open among ``vsets``."""
    return any(next(open_outcomes(assertions, profile.labels, vset), None) is not None for vset in vsets)


def assert_rules_out_every_alternative(profile, seed: int, drop_each: bool = False) -> bool:
    """Whether the level-1 search closed; if it did, both checks find no
    alternative outcome open and the reported outcome itself is not ruled
    out.  With ``drop_each``, the two checks also agree on every spec with
    one entry dropped, and an outcome the set check finds open is open."""
    outcome = tabulate(profile)
    spec, _ = build_audit_spec(profile, outcome, 1, RiskParams(seed=seed))
    if spec.status != STATUS_COMPLETE:
        return False
    assertions = [entry.assertion for entry in spec.entries]
    vsets = alternative_viable_sets(profile, outcome.viable)
    for vset in vsets:
        assert next(open_outcomes(assertions, profile.labels, vset), None) is None, (dict(profile.rankings), vset)
    assert open_outcome(assertions, profile.labels, vsets) is None, dict(profile.rankings)
    assert not any(rules_out(a, outcome.elimination_order, outcome.viable) for a in assertions)
    assert not steps_rule_out(assertions, profile.labels, outcome.elimination_order, outcome.viable)
    for i in range(len(assertions) if drop_each else 0):
        rest = assertions[:i] + assertions[i + 1:]
        found = open_outcome(rest, profile.labels, vsets)
        assert (found is not None) == brute_force_open(rest, profile, vsets), (dict(profile.rankings), assertions[i])
        assert found is None or not any(rules_out(a, found[1], found[0]) for a in rest), found
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



def test_set_check_agrees_with_brute_force_when_an_entry_is_dropped():
    rng = random.Random(31)
    closed = 0
    for _ in range(60):
        profile = random_irv_profile(rng, max_candidates=6, max_ballots=3000)
        try:
            closed += assert_rules_out_every_alternative(profile, 1, drop_each=True)
        except UnsupportedOutcomeError:
            continue
    assert closed >= 40


CYCLIC = {size: FOURTEEN_STRENGTHS[:size] for size in (10, 12, 13, 14)}


@pytest.mark.parametrize("size", sorted(CYCLIC))
def test_cyclic_level_one_specs_rule_out_every_alternative(size):
    """The set check judges contests too large to enumerate by order: the
    10- and 12- to 14-candidate cyclic contests' level-1 specs leave no
    alternative outcome open and do not rule out the reported one."""
    profile = cyclic_contest(CYCLIC[size])
    outcome = tabulate(profile)
    spec, _ = build_audit_spec(profile, outcome, 1, RiskParams(seed=1))
    assert spec.status == STATUS_COMPLETE
    assertions = [entry.assertion for entry in spec.entries]
    assert open_outcome(assertions, profile.labels, alternative_viable_sets(profile, outcome.viable)) is None
    assert not steps_rule_out(assertions, profile.labels, outcome.elimination_order, outcome.viable)


def test_every_cut_entry_of_the_twelve_candidate_spec_is_needed():
    """The set check is sharp enough to see a single missing entry: with
    any one of the 12-candidate cyclic level-1 spec's 65 entries after its
    reductions dropped, some alternative outcome is left open."""
    profile = cyclic_contest(CYCLIC[12])
    outcome = tabulate(profile)
    spec, log = build_audit_spec(profile, outcome, 1, RiskParams(seed=1))
    assertions = [entry.assertion for entry in spec.entries]
    reductions = sum(line.startswith("reduction: ") for line in log)
    vsets = alternative_viable_sets(profile, outcome.viable)
    assert len(assertions) - reductions == 65
    for i in range(reductions, len(assertions)):
        rest = assertions[:i] + assertions[i + 1:]
        found = open_outcome(rest, profile.labels, vsets)
        assert found is not None, assertions[i]
        assert not any(rules_out(a, found[1], found[0]) for a in rest), found
