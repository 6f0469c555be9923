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

Each branch gets the assertion of largest margin among its options, and
only that one is simulated: an estimate depends only on the margin and
never rises with it (``risk.estimate_asn``), so the largest margin is a
least estimate.  Among equal margins the first option wins.

A child's options depend only on the candidate it eliminates and the set
``rest`` still to be eliminated before it: the ``Viable`` for the
candidate, then an ``IrvWins`` over each standing candidate in roster
order.  So the pick is made once per ``(candidate, rest)``
(``AuditContext.move``) and shared by every child that makes that move.
Every ``IrvWins`` there is scored on the same piles, so only the first
over a least standing pile can have the largest margin, and ``move``
weighs just that one against the ``Viable``.

A node carries its bookkeeping: the candidates still unmentioned, in
roster order, and its frontier tie keys.  Roots read them off the roster
once per viable set; each child takes them from its parent, so no search
step rescans the roster.  Links run one way, from child to parent: a node
is closed when it or an ancestor is pruned, and a branch the search has
finished with is freed as soon as nothing queued descends from it.

The frontier is a heap ranked once per node, when it is queued: highest
finite estimated effort first, unresolved (infinite) nodes last, then
deeper nodes, then roster order.  A closed node is dropped when it
reaches the top.  A node with k unmentioned candidates has k children,
so a leaf is always its parent's only child.  Each leaf closes its
branch at the branch's cheapest node and raises the lower bound; the
bound then prunes the waiting nodes it covers in the order they were
queued, which fixes the order of spec entries and proof-log lines.

When ``W`` is empty one more alternative is reachable: every candidate
eliminated and nobody viable.  That outcome is enumerated as an extra
tree (empty viable set) so a complete specification excludes it too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, count
from typing import Iterator, Sequence

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
from .risk import RiskParams, estimate_asn
from .tabulation import count_piles


def max_viable(threshold: Fraction) -> int:
    """Largest number of candidates that can all hold the threshold share."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return threshold.denominator // threshold.numerator


class AuditContext:
    """Per-profile caches: piles by elimination set, effort by margin,
    and the assertion picked for each elimination move ``(candidate, rest)``.

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
        self._eae: dict[float, float] = {}
        self._moves: dict[tuple[str, frozenset[str]], tuple[Assertion | None, float]] = {}

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
        """The estimated sample size, simulated once per distinct margin."""
        margin = self._margin(assertion)
        cached = self._eae.get(margin)
        if cached is None:
            cached = estimate_asn(margin, self.params, self.total)
            self._eae[margin] = cached
        return cached

    def move(self, cand: str, rest: frozenset[str]) -> tuple[Assertion | None, float]:
        """The assertion showing that ``cand`` is not eliminated while
        exactly ``rest`` is gone, and its ``eae``; ``(None, inf)`` if none
        holds.

        Everyone outside ``rest`` and ``cand`` is standing, so the options
        are ``Viable(cand, rest)``, then ``IrvWins(cand, other, rest)`` for
        each standing ``other`` in roster order.  Every ``IrvWins`` shares
        the piles after ``rest`` and its margin falls as ``pile[other]``
        grows, so only the first over the least standing pile can be
        picked: ``_cheapest`` weighs it against the ``Viable``.
        """
        key = (cand, rest)
        cached = self._moves.get(key)
        if cached is None:
            options: list[Assertion] = [Viable(cand, rest, self.threshold)]
            piles = self.piles(rest)  # the standing candidates, in roster order
            loser = min((c for c in piles if c != cand), key=piles.__getitem__, default=None)
            if loser is not None:
                options.append(IrvWins(cand, loser, rest))
            cached = self._moves[key] = _cheapest(options, self)
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


@dataclass(eq=False, slots=True)
class AltOutcomeNode:
    """A class of alternative outcomes: ``eliminated_suffix`` is the pinned
    tail of the elimination sequence in chronological order (its last entry
    is the final elimination) and ``viable`` the resulting viable set; every
    candidate in ``unmentioned`` (roster order) is assumed eliminated, in
    some order, beforehand.  ``order`` holds the roster indices of the
    suffix and ``viable_order`` the sorted roster indices of the viable
    set: the frontier's tie keys.  ``build`` derives the bookkeeping from
    the roster; ``expand_node`` passes it down to each child.  A node links
    only to its ``parent``; ``pruned`` marks the node whose assertion
    closes it, and ``closed`` reads that mark off the node's ``branch``.
    """

    eliminated_suffix: tuple[str, ...]
    viable: frozenset[str]
    unmentioned: tuple[str, ...]
    order: tuple[int, ...]
    viable_order: tuple[int, ...]
    assertion: Assertion | None = None
    eae: float = math.inf
    parent: "AltOutcomeNode | None" = None
    pruned: bool = False

    @classmethod
    def build(
        cls,
        eliminated_suffix: tuple[str, ...],
        viable: frozenset[str],
        ctx: AuditContext,
        assertion: Assertion | None = None,
        eae: float = math.inf,
    ) -> "AltOutcomeNode":
        """A node with no parent, its bookkeeping read off the roster."""
        pinned = set(eliminated_suffix) | viable
        return cls(
            eliminated_suffix,
            viable,
            tuple(c for c in ctx.labels if c not in pinned),
            tuple(ctx.index[c] for c in eliminated_suffix),
            tuple(sorted(ctx.index[c] for c in viable)),
            assertion,
            eae,
        )

    @property
    def depth(self) -> int:
        return len(self.eliminated_suffix)

    def is_leaf(self) -> bool:
        return not self.unmentioned

    def branch(self) -> Iterator["AltOutcomeNode"]:
        """This node, then each ancestor up to its root."""
        node: AltOutcomeNode | None = self
        while node is not None:
            yield node
            node = node.parent

    def closed(self) -> bool:
        """Whether an emitted assertion covers this node: it or an ancestor is pruned."""
        return any(n.pruned for n in self.branch())

    def describe(self) -> str:
        tail = " -> ".join(self.eliminated_suffix) if self.eliminated_suffix else "(any order)"
        v = "{" + ",".join(sorted(self.viable)) + "}" if self.viable else "{}"
        return f"[... {tail} | viable {v}]"


def _cheapest(options: Sequence[Assertion], ctx: AuditContext) -> tuple[Assertion | None, float]:
    """The option of largest margin (the first of equal margins) and its
    ``eae``; ``(None, inf)`` when it does not hold or there is no option.

    ``eae`` never rises with the margin, so no other option is cheaper,
    and only the pick is simulated.
    """
    best = max(options, key=ctx._margin, default=None)
    if best is None or not ctx.holds(best):
        return None, math.inf
    return best, ctx.eae(best)


def best_root_assertion(vset: frozenset[str], ctx: AuditContext) -> tuple[Assertion | None, float]:
    """Cheapest assertion contradicting ``vset`` as the final viable set.

    Either an outsider is viable on first preferences alone (so belongs in
    every viable set), or a member's pile stays below the threshold even
    with every non-member eliminated.  Both contradict the final state no
    matter how the eliminations were ordered.
    """
    tau = ctx.threshold
    options: list[Assertion] = [Viable(c, frozenset(), tau) for c in ctx.labels if c not in vset]
    if tau < 1:
        others = frozenset(ctx.labels) - vset
        options += [NonViable(c, others, tau) for c in ctx.labels if c in vset]
    return _cheapest(options, ctx)


def expand_node(node: AltOutcomeNode, ctx: AuditContext) -> list[AltOutcomeNode]:
    """One child per unmentioned candidate, pinning it as the next elimination.

    The child's assertion must show that elimination impossible with
    exactly the remaining unmentioned candidates gone: either the
    candidate still clears the threshold there, or it out-tallies someone
    who is still standing (a pinned or viable candidate); ``AuditContext.move``
    picks it.  Those remaining candidates are the child's ``unmentioned``,
    and its order key is the candidate's roster index before the node's.
    """
    unmentioned = node.unmentioned
    children: list[AltOutcomeNode] = []
    for i, cand in enumerate(unmentioned):
        rest = unmentioned[:i] + unmentioned[i + 1:]
        assertion, eae = ctx.move(cand, frozenset(rest))
        children.append(AltOutcomeNode(
            (cand,) + node.eliminated_suffix,
            node.viable,
            rest,
            (ctx.index[cand],) + node.order,
            node.viable_order,
            assertion,
            eae,
            node,
        ))
    return children


@dataclass
class GenerationResult:
    entries: tuple[SpecEntry, ...]
    status: str
    proof_log: tuple[str, ...]


def _rank(node: AltOutcomeNode) -> tuple:
    """Frontier order: highest finite estimated effort first, unresolved
    (infinite) nodes last; ties toward deeper nodes, then roster order of
    the suffix and of the viable set.  No two nodes share a rank."""
    return (math.isinf(node.eae), -node.eae, -node.depth, node.order, node.viable_order)


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
    # (rank, arrival, node); closed nodes stay until they reach the top
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
        if not node.is_leaf():
            heappush(frontier, (_rank(node), next(arrivals), node))
            return True
        best = min(node.branch(), key=lambda n: (n.eae, n.depth))
        if math.isinf(best.eae):
            log.append(f"FAIL: no assertion invalidates branch {node.describe()}")
            return False
        add_assertion(best, "branch")
        lower_bound = max(lower_bound, best.eae)
        best.pruned = True
        covered = [(arrival, n) for _, arrival, n in frontier if n.eae <= lower_bound and not n.closed()]
        for _, waiting in sorted(covered):
            add_assertion(waiting, f"bound {lower_bound}")
            waiting.pruned = True
        return True

    complete = all(visit(AltOutcomeNode.build((), vset, ctx, *best_root_assertion(vset, ctx))) for vset in alt_sets)
    while complete and frontier:
        node = heappop(frontier)[2]
        if not node.closed():
            complete = all(visit(child) for child in expand_node(node, ctx))

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
