"""Assertion-set generation certifying the reported viable set.

Plurality contests are direct: one ``Viable`` assertion per reported
viable candidate and one ``NonViable`` per reported non-viable candidate
rules out every other outcome.

Instant-runoff contests need more work.  First the alternative-outcome
space is reduced: ``W`` collects candidates whose first-preference pile
already clears the threshold (they are viable in every outcome, since a
pile never shrinks and the cutoff denominator is fixed), and ``L``
collects candidates who stay short of the threshold even with every
other non-``W`` candidate eliminated (they can never be viable).  Their
reduction assertions are always part of the emitted set.  Only viable
sets containing ``W``, avoiding ``L`` and no larger than
``floor(1/threshold)`` remain possible.

Each remaining alternative set roots a tree of outcomes.  A node pins
the final segment of an elimination sequence (everything unmentioned is
assumed already eliminated, in some order).  Expanding a node prepends
one more elimination; a node is invalidated by an assertion showing that
elimination impossible at that point (the candidate still cleared the
threshold, or out-tallied someone standing), and a root is invalidated
by an assertion contradicting the final state (a member below threshold
with everyone else gone, or an outsider whose first preferences alone
make them viable).  A branch-and-bound search over these trees picks a
cheap assertion per branch, pruning whole subtrees and any frontier node
whose best assertion costs no more than the current lower bound on audit
effort.  If some complete branch admits no assertion at all, no audit
short of a full manual count certifies the outcome.

Picking an assertion simulates only the options that can still win.  No
option's estimate is below its no-error floor (``risk.asn_floor``), so
options are simulated in order of floor and the scan stops once the next
floor exceeds the least estimate found; every option tied at that least
estimate is kept, and the first of them in option order is the one a
full ``min`` picks.

A child's options depend only on the candidate it eliminates and the set
``rest`` still to be eliminated before it: the ``Viable`` for the
candidate, and an ``IrvWins`` over each standing candidate.  So the scan
runs once per ``(candidate, rest)`` (``AuditContext.move``), and each
child only breaks ties: the ``Viable`` if it is tied, otherwise the
``IrvWins`` over the first tied loser in the child's own order of standing
candidates (its pinned eliminations, then the viable set in roster
order), which is the option ``min`` over the child's list would pick.

The frontier is a heap ranked once per node, when it is queued: highest
finite estimated effort first, unresolved (infinite) nodes last, then
deeper nodes, then roster order.  A pruned node is dropped when it
reaches the top.  Each leaf closes its branch at the branch's cheapest
node and raises the lower bound; the bound then prunes the waiting nodes
it covers in the order they were queued, which fixes the order of spec
entries and proof-log lines.

When ``W`` is empty one more alternative is reachable: every candidate
eliminated and nobody viable.  That outcome is enumerated as an extra
tree (empty viable set) so a complete specification excludes it too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, count
from typing import Mapping, Sequence

from .assertions import (
    Assertion,
    IrvWins,
    NonViable,
    Viable,
    assertion_key,
    describe,
)
from .delegates import gen_delegate_assertions
from .model import (
    IRV,
    PLURALITY,
    STATUS_COMPLETE,
    STATUS_FULL_COUNT,
    AuditSpec,
    ElectionProfile,
    ReportedOutcome,
    SpecEntry,
)
from .risk import RiskParams, asn_floor, estimate_asn
from .tabulation import count_piles


def max_viable(threshold: Fraction) -> int:
    """Largest number of candidates that can all hold the threshold share."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return threshold.denominator // threshold.numerator


class AuditContext:
    """Per-profile caches: piles by elimination set, effort by assertion,
    and the cheapest elimination moves by ``(candidate, rest)``.

    Every tally-based answer starts from ``piles``: an assertion's classes
    are the piles of the candidates left standing once its ``removed`` set
    is eliminated, plus the ballots that exhaust.  Their integer
    ``scaled_margin`` gives ``holds`` by its sign and the float margin of
    the effort estimates by one division, rounded as ``float`` of the exact
    margin is; only ``exact_margin`` builds a fraction.
    """

    def __init__(self, profile: ElectionProfile, params: RiskParams | None = None):
        self.profile = profile
        self.params = params or RiskParams()
        self.total = profile.total_ballots
        self.valid = profile.valid_ballots
        self.threshold = profile.threshold
        self.labels = profile.labels
        self.index = {c: i for i, c in enumerate(self.labels)}
        self._piles: dict[frozenset[str], dict[str, int]] = {}
        self._eae: dict[str, float] = {}
        self._floors: dict[str, float] = {}
        self._moves: dict[tuple[str, frozenset[str]], tuple[Mapping[str | None, Assertion], float]] = {}

    def piles(self, eliminated: frozenset[str]) -> dict[str, int]:
        cached = self._piles.get(eliminated)
        if cached is None:
            cached, _ = count_piles(self.profile, eliminated)
            self._piles[eliminated] = cached
        return cached

    def _scaled_margin(self, assertion: Assertion) -> int:
        return assertion.scaled_margin(self.piles(assertion.removed(self.labels)), self.valid)

    def _margin(self, assertion: Assertion) -> float:
        return self._scaled_margin(assertion) / (self.total * assertion.scale)

    def holds(self, assertion: Assertion) -> bool:
        """Exact margin-positivity test via integer tallies."""
        return self._scaled_margin(assertion) > 0

    def exact_margin(self, assertion: Assertion) -> Fraction:
        """The exact assorter margin over every cast ballot."""
        return Fraction(self._scaled_margin(assertion), self.total * assertion.scale)

    def eae(self, assertion: Assertion) -> float:
        key = assertion_key(assertion)
        cached = self._eae.get(key)
        if cached is None:
            cached = estimate_asn(self._margin(assertion), self.params, self.total, stream=key)
            self._eae[key] = cached
        return cached

    def eae_floor(self, assertion: Assertion) -> float:
        """A lower bound on ``eae`` that needs no simulation."""
        key = assertion_key(assertion)
        cached = self._floors.get(key)
        if cached is None:
            cached = asn_floor(self._margin(assertion), self.params)
            self._floors[key] = cached
        return cached

    def move(self, cand: str, rest: frozenset[str]) -> tuple[Mapping[str | None, Assertion], float]:
        """The cheapest assertions showing that ``cand`` is not eliminated
        while exactly ``rest`` is gone, and their ``eae``.

        Everyone outside ``rest`` and ``cand`` is standing, so the options
        are ``Viable(cand, rest)`` and ``IrvWins(cand, other, rest)`` for
        each standing ``other``.  Every holding option tied at the least
        ``eae`` is kept, keyed by loser (``None`` for the ``Viable``).
        """
        key = (cand, rest)
        cached = self._moves.get(key)
        if cached is None:
            holding: dict[str | None, Assertion] = {}
            for loser in [None, *(c for c in self.labels if c != cand and c not in rest)]:
                a = Viable(cand, rest, self.threshold) if loser is None else IrvWins(cand, loser, rest)
                if self.holds(a):
                    holding[loser] = a
            tied, eae = _cheapest(list(holding.values()), self)
            cached = {loser: a for loser, a in holding.items() if a in tied}, eae
            self._moves[key] = cached
        return cached

    def entry(self, assertion: Assertion) -> SpecEntry:
        return SpecEntry(assertion, self.exact_margin(assertion), self.eae(assertion))


def compute_W_L(ctx: AuditContext) -> tuple[frozenset[str], frozenset[str], tuple[SpecEntry, ...]]:
    """Definite-viable and never-viable candidates plus their reduction assertions.

    Membership requires the assertion to hold with a *finite* estimated
    sample size; a positive but microscopic margin buys nothing, since
    confirming it would already take a full count.
    """
    tau = ctx.threshold
    winners: list[str] = []
    entries: list[SpecEntry] = []
    for c in ctx.labels:
        assertion = Viable(c, frozenset(), tau)
        if ctx.holds(assertion) and not math.isinf(ctx.eae(assertion)):
            winners.append(c)
            entries.append(ctx.entry(assertion))
    w_set = frozenset(winners)
    losers: list[str] = []
    if tau < 1:
        for c in ctx.labels:
            if c in w_set:
                continue
            eliminated = frozenset(ctx.labels) - w_set - {c}
            assertion = NonViable(c, eliminated, tau)
            if ctx.holds(assertion) and not math.isinf(ctx.eae(assertion)):
                losers.append(c)
                entries.append(ctx.entry(assertion))
    return w_set, frozenset(losers), tuple(entries)


def enumerate_alt_sets(
    labels: Sequence[str],
    winners: frozenset[str],
    losers: frozenset[str],
    cap: int,
    reported: frozenset[str],
) -> list[frozenset[str]]:
    """Alternative viable sets: contain all of ``winners``, avoid ``losers``,
    hold 1..cap candidates, and differ from the reported set."""
    free = [c for c in labels if c not in winners and c not in losers]
    out: list[frozenset[str]] = []
    # no more extras than free candidates, however small the threshold
    for extra in range(0, min(len(free), max(0, cap - len(winners))) + 1):
        for combo in combinations(free, extra):
            vset = frozenset(winners | set(combo))
            if not 1 <= len(vset) <= cap:
                continue
            if vset == reported:
                continue
            out.append(vset)
    return out


@dataclass(eq=False)
class AltOutcomeNode:
    """A class of alternative outcomes: ``eliminated_suffix`` is the pinned
    tail of the elimination sequence in chronological order (its last entry
    is the final elimination) and ``viable`` the resulting viable set; every
    unmentioned candidate is assumed eliminated, in some order, beforehand."""

    eliminated_suffix: tuple[str, ...]
    viable: frozenset[str]
    assertion: Assertion | None = None
    eae: float = math.inf
    parent: "AltOutcomeNode | None" = None
    children: list["AltOutcomeNode"] = field(default_factory=list, repr=False)
    pruned: bool = False

    @property
    def depth(self) -> int:
        return len(self.eliminated_suffix)

    def unmentioned(self, labels: Sequence[str]) -> list[str]:
        pinned = set(self.eliminated_suffix) | self.viable
        return [c for c in labels if c not in pinned]

    def is_leaf(self, labels: Sequence[str]) -> bool:
        return not self.unmentioned(labels)

    def describe(self) -> str:
        tail = " -> ".join(self.eliminated_suffix) if self.eliminated_suffix else "(any order)"
        v = "{" + ",".join(sorted(self.viable)) + "}" if self.viable else "{}"
        return f"[... {tail} | viable {v}]"


def _cheapest(options: Sequence[Assertion], ctx: AuditContext) -> tuple[list[Assertion], float]:
    """Every option of least ``eae``, in option order, and that ``eae``;
    ``([], inf)`` when there is none.  ``min`` picks the first of them.

    Options are simulated in order of their ``eae_floor``, and the scan
    stops at the first floor above the least estimate found: such an
    option cannot tie, so it is never simulated.
    """
    best, tied = math.inf, []
    for floor, index in sorted((ctx.eae_floor(a), i) for i, a in enumerate(options)):
        if floor > best:
            break
        eae = ctx.eae(options[index])
        if eae < best:
            best, tied = eae, [index]
        elif eae == best:
            tied.append(index)
    return [options[i] for i in sorted(tied)], best


def best_root_assertion(vset: frozenset[str], ctx: AuditContext) -> tuple[Assertion | None, float]:
    """Cheapest assertion contradicting ``vset`` as the final viable set.

    Either an outsider is viable on first preferences alone (so belongs in
    every viable set), or a member's pile stays below the threshold even
    with every non-member eliminated.  Both contradict the final state no
    matter how the eliminations were ordered.
    """
    tau = ctx.threshold
    options: list[Assertion] = []
    for c in ctx.labels:
        if c not in vset:
            a = Viable(c, frozenset(), tau)
            if ctx.holds(a):
                options.append(a)
    if tau < 1:
        others = frozenset(ctx.labels) - vset
        for c in ctx.labels:
            if c in vset:
                a = NonViable(c, others, tau)
                if ctx.holds(a):
                    options.append(a)
    tied, eae = _cheapest(options, ctx)
    return (tied[0] if tied else None), eae


def expand_node(node: AltOutcomeNode, ctx: AuditContext) -> list[AltOutcomeNode]:
    """One child per unmentioned candidate, pinning it as the next elimination.

    The child's assertion must show that elimination impossible with
    exactly the remaining unmentioned candidates gone: either the
    candidate still clears the threshold there, or it out-tallies someone
    who is still standing (a pinned or viable candidate).  Of the cheapest
    such assertions (``AuditContext.move``) the ``Viable`` comes first,
    then the ``IrvWins`` in this node's order of standing candidates.
    """
    unmentioned = node.unmentioned(ctx.labels)
    # losers in this node's option order: the Viable, then the standing candidates
    order = [None, *node.eliminated_suffix, *(c for c in ctx.labels if c in node.viable)]
    children: list[AltOutcomeNode] = []
    for cand in unmentioned:
        tied, eae = ctx.move(cand, frozenset(u for u in unmentioned if u != cand))
        assertion = next((tied[loser] for loser in order if loser in tied), None)
        child = AltOutcomeNode(
            eliminated_suffix=(cand,) + node.eliminated_suffix,
            viable=node.viable,
            assertion=assertion,
            eae=eae,
            parent=node,
        )
        node.children.append(child)
        children.append(child)
    return children


@dataclass
class GenerationResult:
    entries: tuple[SpecEntry, ...]
    status: str
    proof_log: tuple[str, ...]


def _prune(node: AltOutcomeNode) -> None:
    node.pruned = True
    for child in node.children:
        if not child.pruned:
            _prune(child)


def _rank(node: AltOutcomeNode, ctx: AuditContext) -> tuple:
    """Frontier order: highest finite estimated effort first, unresolved
    (infinite) nodes last; ties toward deeper nodes, then roster order of
    the suffix and of the viable set.  No two nodes share a rank."""
    return (
        math.isinf(node.eae),
        -node.eae,
        -node.depth,
        tuple(ctx.index[c] for c in node.eliminated_suffix),
        tuple(sorted(ctx.index[c] for c in node.viable)),
    )


def branch_and_bound(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """Viability assertion set for an instant-runoff contest.

    Returns the reduction assertions plus one invalidating assertion per
    pruned branch of the alternative-outcome forest; status is
    ``requires-full-count`` when some branch admits no assertion.
    """
    if ctx.profile.style != IRV:
        raise ValueError("branch and bound applies to instant-runoff contests")
    winners, losers, reductions = compute_W_L(ctx)
    log: list[str] = [
        f"definite viable W = {sorted(winners)}; never viable L = {sorted(losers)}"
    ]
    entries: dict[str, SpecEntry] = {}
    for entry in reductions:
        entries[assertion_key(entry.assertion)] = entry
        log.append(f"reduction: {describe(entry.assertion)} margin {float(entry.margin):.4f} eae {entry.eae}")

    cap = max_viable(ctx.threshold)
    alt_sets = enumerate_alt_sets(ctx.labels, winners, losers, cap, outcome.viable)
    if not winners:
        # with no first-preference lock, total collapse (nobody viable) is
        # also a reachable outcome and needs ruling out
        alt_sets.append(frozenset())

    lower_bound = 0.0
    # (rank, arrival, node); pruned nodes stay until they reach the top
    frontier: list[tuple[tuple, int, AltOutcomeNode]] = []
    arrivals = count()

    def add_assertion(node: AltOutcomeNode, why: str) -> None:
        assert node.assertion is not None
        key = assertion_key(node.assertion)
        if key not in entries:
            entries[key] = ctx.entry(node.assertion)
        log.append(f"{why}: prune {node.describe()} with {describe(node.assertion)} (eae {node.eae})")

    def visit(node: AltOutcomeNode) -> bool:
        """Queue an inner node.  A leaf closes its branch at the branch's
        cheapest node, raises the bound and prunes every waiting node the
        bound covers, in arrival order; False if no assertion closes it."""
        nonlocal lower_bound
        if not node.is_leaf(ctx.labels):
            heappush(frontier, (_rank(node, ctx), next(arrivals), node))
            return True
        branch: list[AltOutcomeNode] = []
        walk: AltOutcomeNode | None = node
        while walk is not None:
            branch.append(walk)
            walk = walk.parent
        best = min(branch, key=lambda n: (n.eae, n.depth))
        if math.isinf(best.eae):
            log.append(f"FAIL: no assertion invalidates branch {node.describe()}")
            return False
        add_assertion(best, "branch")
        lower_bound = max(lower_bound, best.eae)
        _prune(best)
        covered = [(arrival, n) for _, arrival, n in frontier if not n.pruned and n.eae <= lower_bound]
        for _, waiting in sorted(covered):
            add_assertion(waiting, f"bound {lower_bound}")
            _prune(waiting)
        return True

    complete = all(visit(AltOutcomeNode((), vset, *best_root_assertion(vset, ctx))) for vset in alt_sets)
    while complete and frontier:
        node = heappop(frontier)[2]
        if node.pruned:
            continue
        for child in expand_node(node, ctx):
            if node.pruned:
                break
            if not visit(child):
                complete = False
                break

    status = STATUS_COMPLETE if complete else STATUS_FULL_COUNT
    ordered = tuple(entries.values())
    if status == STATUS_COMPLETE and any(
        e.margin <= 0 or math.isinf(e.eae) for e in ordered
    ):
        status = STATUS_FULL_COUNT
    log.append(f"status: {status}; assertions: {len(ordered)}")
    return GenerationResult(ordered, status, tuple(log))


def gen_plurality_viability(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """One Viable per reported-viable candidate, one NonViable per other.

    Jointly these pin the viable set exactly, so no outcome search is
    needed.  Any nonpositive margin (a candidate sitting exactly on the
    threshold) makes the contest unauditable short of a full count.
    """
    if ctx.profile.style != PLURALITY:
        raise ValueError("plurality generation applies to plurality contests")
    tau = ctx.threshold
    entries: list[SpecEntry] = []
    log: list[str] = []
    status = STATUS_COMPLETE
    for c in ctx.labels:
        if c in outcome.viable:
            assertion: Assertion = Viable(c, frozenset(), tau)
        else:
            if tau == 1:
                log.append(f"FAIL: no non-viability assertion exists for {c} at threshold 1")
                status = STATUS_FULL_COUNT
                continue
            assertion = NonViable(c, frozenset(), tau)
        entry = ctx.entry(assertion)
        entries.append(entry)
        log.append(f"{describe(assertion)} margin {float(entry.margin):.4f} eae {entry.eae}")
        if entry.margin <= 0 or math.isinf(entry.eae):
            # exactly on or too near the threshold: no affordable audit exists
            status = STATUS_FULL_COUNT
    log.append(f"status: {status}; assertions: {len(entries)}")
    return GenerationResult(tuple(entries), status, tuple(log))


def build_audit_specs(
    profile: ElectionProfile,
    outcome: ReportedOutcome,
    levels: Sequence[int],
    params: RiskParams | None = None,
) -> dict[int, tuple[AuditSpec, tuple[str, ...]]]:
    """Assemble the audit specification and proof log for each level.

    Level 1 certifies viability only; levels 2 and 3 add the delegate
    allocation assertions (slack 2 and 1 respectively).  The viability
    part does not depend on the level, so one context and one search
    serve every level.
    """
    if any(level not in (1, 2, 3) for level in levels):
        raise ValueError("audit level must be 1, 2 or 3")
    ctx = AuditContext(profile, params)
    search = gen_plurality_viability if profile.style == PLURALITY else branch_and_bound
    result = search(ctx, outcome)

    specs: dict[int, tuple[AuditSpec, tuple[str, ...]]] = {}
    for level in levels:
        entries = list(result.entries)
        log = list(result.proof_log)
        status = result.status
        if level >= 2:
            dset = gen_delegate_assertions(outcome, level)
            for assertion in dset.assertions:
                entry = ctx.entry(assertion)
                entries.append(entry)
                log.append(f"delegates: {describe(assertion)} margin {float(entry.margin):.4f} eae {entry.eae}")
                if entry.margin <= 0 or math.isinf(entry.eae):
                    status = STATUS_FULL_COUNT
            for skip in dset.skipped:
                log.append(
                    f"delegates: skip ({skip.winner}, {skip.loser}) d={skip.offset}: {skip.reason}"
                )
            if dset.tie_flag:
                log.append("delegates: exact remainder tie at the award boundary; full count required")
                status = STATUS_FULL_COUNT
        spec = AuditSpec(
            entries=tuple(entries),
            level=level,
            status=status,
            total_ballots=profile.total_ballots,
            params=ctx.params,
        )
        specs[level] = spec, tuple(log)
    return specs


def build_audit_spec(
    profile: ElectionProfile,
    outcome: ReportedOutcome,
    level: int,
    params: RiskParams | None = None,
) -> tuple[AuditSpec, tuple[str, ...]]:
    """The audit specification and proof log for one level."""
    return build_audit_specs(profile, outcome, (level,), params)[level]
