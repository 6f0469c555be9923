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
effort, and closing any node that an assertion it already emitted rules
out.  The search is ``closed`` when every alternative outcome got an
assertion.  If it is not, or an entry or the delegate allocation cannot
be audited, ``build_audit_specs`` rules that no audit short of a full
manual count certifies the outcome.

Each branch gets the assertion of largest margin among its options, and
only that one is simulated: an estimate depends only on the margin and
never rises with it (``risk.estimate_asn``), so the largest margin is a
least estimate.  Among equal margins the first option wins.

A child's options depend only on the candidate it eliminates and the set
``rest`` still to be eliminated before it: the ``Viable`` for the
candidate, then an ``IrvWins`` over each standing candidate in roster
order.  So the pick is made once per ``(candidate, rest)``
(``AuditContext.move``) and shared by every child that makes that move.
The move is looked up by ``rest`` as the roster-ordered tuple the child
carries as its ``unmentioned``, which names each set in one way only; the
set itself is built only when the pick is made.
Every ``IrvWins`` there is scored on the same piles, so only the first
over a least standing pile can have the largest margin, and ``move``
weighs just that one against the ``Viable``.

A node carries its bookkeeping: the candidates still unmentioned, in
roster order, and its frontier tie keys.  Roots read them off the roster
once per viable set; each child takes them from its parent, so no search
step rescans the roster.  Links run one way, from child to parent: a node
is closed when it or an ancestor is pruned, and a branch the search has
finished with is freed as soon as nothing queued descends from it.  Both
per-node walks, ``closed`` and a leaf's ``cheapest``, follow those links
in a plain loop.

The frontier is a heap ranked once per node, when it is queued: highest
finite estimated effort first, unresolved (infinite) nodes last, then
deeper nodes, then roster order.  A closed node is dropped when it
reaches the top.  A node with k unmentioned candidates has k children,
so a leaf is always its parent's only child.  Each leaf closes its
branch at the branch's cheapest node and raises the lower bound; the
bound then prunes the waiting nodes it covers in the order they were
queued, which fixes the order of spec entries and proof-log lines.  A
node that reaches the top with an ``eae`` the bound already covers is
pruned there with its own assertion rather than expanded (a ``pop``
line): the audit's draws are its largest ``eae``, so that assertion
costs none.

Every ``Viable(c, E)`` the search emits also closes, with no new entry,
each node whose next elimination is ``c`` with ``E`` among the
candidates already gone: ``c``'s pile only grows as more candidates go,
so ``c`` still clears the threshold there.  That check runs wherever the
search would otherwise emit or expand a node (at the top of the
frontier, for each node the bound covers, and for a leaf's cheapest
node), and its ``implied`` line names the closing assertion.

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
from typing import Iterable, Sequence

from .assertions import (
    Assertion,
    IrvWins,
    NonViable,
    Viable,
    _set_repr,
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
    ``scaled_margin`` gives by its sign whether the assertion holds, and
    the float margin of the estimates by one division, rounded as ``float``
    of the exact margin is; only ``exact_margin`` builds a fraction.
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
        self._moves: dict[tuple[str, tuple[str, ...]], tuple[Assertion | None, float]] = {}

    def piles(self, eliminated: frozenset[str]) -> dict[str, int]:
        cached = self._piles.get(eliminated)
        if cached is None:
            cached, _ = count_piles(self.profile, eliminated)
            self._piles[eliminated] = cached
        return cached

    def _margins(self, assertion: Assertion) -> tuple[int, float]:
        """The integer margin and the float margin it gives."""
        scaled = assertion.scaled_margin(self.piles(assertion.removed(self.labels)), self.valid)
        return scaled, scaled / (self.total * assertion.scale)

    def exact_margin(self, assertion: Assertion) -> Fraction:
        """The exact assorter margin over every cast ballot."""
        return Fraction(self._margins(assertion)[0], self.total * assertion.scale)

    def _effort(self, margin: float) -> float:
        """The estimated sample size, simulated once per distinct margin."""
        cached = self._eae.get(margin)
        if cached is None:
            cached = estimate_asn(margin, self.params, self.total)
            self._eae[margin] = cached
        return cached

    def move(self, cand: str, rest: tuple[str, ...]) -> tuple[Assertion | None, float]:
        """The assertion showing that ``cand`` is not eliminated while
        exactly ``rest`` is gone, and its ``eae``; ``(None, inf)`` if none
        holds.

        ``rest`` comes in roster order, as the child's ``unmentioned``, so
        the tuple names its set in one way only and keys the cache as it
        is; the set is built only on a miss, for the options and ``piles``.

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
            removed = frozenset(rest)
            options: list[Assertion] = [Viable(cand, removed, self.threshold)]
            piles = self.piles(removed)  # the standing candidates, in roster order
            loser = min((c for c in piles if c != cand), key=piles.__getitem__, default=None)
            if loser is not None:
                options.append(IrvWins(cand, loser, removed))
            cached = self._moves[key] = _cheapest(options, self)
        return cached

    def entry(self, assertion: Assertion) -> SpecEntry:
        scaled, margin = self._margins(assertion)
        return SpecEntry(assertion, Fraction(scaled, self.total * assertion.scale), self._effort(margin))


def compute_W_L(ctx: AuditContext) -> tuple[frozenset[str], frozenset[str], tuple[SpecEntry, ...]]:
    """Definite-viable and never-viable candidates plus their reduction assertions.

    Membership requires the assertion to hold with a *finite* estimated
    sample size, as ``_cheapest`` rules; a positive but microscopic margin
    buys nothing, since confirming it would already take a full count.
    """
    tau = ctx.threshold

    def affordable(assertions: Iterable[Assertion]) -> list[Assertion]:
        """The assertions that hold at a finite estimate, in order."""
        return [a for a in assertions if not math.isinf(_cheapest([a], ctx)[1])]

    reductions = affordable(Viable(c, frozenset(), tau) for c in ctx.labels)
    winners = frozenset(a.candidate for a in reductions)
    if tau < 1:
        others = frozenset(ctx.labels) - winners
        reductions += affordable(NonViable(c, others - {c}, tau) for c in ctx.labels if c in others)
    losers = frozenset(a.candidate for a in reductions if isinstance(a, NonViable))
    return winners, losers, tuple(ctx.entry(a) for a in reductions)


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
    only to its ``parent``; ``pruned`` marks a node that its own assertion
    or an emitted ``Viable`` closes, and ``closed`` looks for that mark on
    the node and its ancestors.
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

    def closed(self) -> bool:
        """Whether an emitted assertion covers this node: it or an ancestor is pruned."""
        node: AltOutcomeNode | None = self
        while node is not None:
            if node.pruned:
                return True
            node = node.parent
        return False

    def cheapest(self) -> "AltOutcomeNode":
        """The node of least ``eae`` among this one and its ancestors, the
        shallower of equal ones: where a leaf closes its branch."""
        best, node = self, self.parent
        while node is not None:
            if node.eae <= best.eae:
                best = node
            node = node.parent
        return best

    def describe(self, viable_text: str | None = None) -> str:
        """The node as a proof log names it; ``viable_text`` is the viable
        set's ``{…}`` text when the caller keeps it."""
        tail = " -> ".join(self.eliminated_suffix) if self.eliminated_suffix else "(any order)"
        return f"[... {tail} | viable {viable_text or _set_repr(self.viable)}]"


def _cheapest(options: Sequence[Assertion], ctx: AuditContext) -> tuple[Assertion | None, float]:
    """The option of largest margin (the first of equal margins) and its
    ``eae``; ``(None, inf)`` when it does not hold or there is no option.

    ``eae`` never rises with the margin, so no other option is cheaper,
    and only the pick is simulated.  Each option's margins are computed
    once: the pick's integer margin says whether it holds, and its float
    margin gives the estimate.
    """
    best, scaled, margin = None, 0, -math.inf
    for option in options:
        option_scaled, option_margin = ctx._margins(option)
        if option_margin > margin:
            best, scaled, margin = option, option_scaled, option_margin
    if best is None or scaled <= 0:
        return None, math.inf
    return best, ctx._effort(margin)


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
        assertion, eae = ctx.move(cand, rest)
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
    """A search's entries and proof log; ``closed`` says whether every
    alternative outcome got an assertion.  ``build_audit_specs`` rules on
    the status."""

    entries: tuple[SpecEntry, ...]
    closed: bool
    proof_log: tuple[str, ...]


def _line(prefix: str, entry: SpecEntry) -> str:
    """The proof-log line of one entry."""
    return f"{prefix}{describe(entry.assertion)} margin {float(entry.margin):.4f} eae {entry.eae}"


def _rank(node: AltOutcomeNode) -> tuple:
    """Frontier order: highest finite estimated effort first, unresolved
    (infinite) nodes last; ties toward deeper nodes, then roster order of
    the suffix and of the viable set.  No two nodes share a rank."""
    return (math.isinf(node.eae), -node.eae, -node.depth, node.order, node.viable_order)


def branch_and_bound(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """Viability assertion set for an instant-runoff contest.

    Returns the reduction assertions plus one invalidating assertion per
    pruned branch of the alternative-outcome forest; the result is not
    ``closed`` when some branch admits no assertion.
    """
    if ctx.profile.style != IRV:
        raise ValueError("branch and bound applies to instant-runoff contests")
    winners, losers, reductions = compute_W_L(ctx)
    log = [f"definite viable W = {sorted(winners)}; never viable L = {sorted(losers)}"]
    entries = {assertion_key(entry.assertion): entry for entry in reductions}
    log += [_line("reduction: ", entry) for entry in reductions]

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
    viable_texts = {vset: _set_repr(vset) for vset in alt_sets}
    # candidate -> the emitted Viable assertions for that candidate
    viables: dict[str, list[Viable]] = {}

    def add_assertion(node: AltOutcomeNode, why: str) -> None:
        assert node.assertion is not None
        key = assertion_key(node.assertion)
        if key not in entries:
            entries[key] = ctx.entry(node.assertion)
            if isinstance(node.assertion, Viable):
                viables.setdefault(node.assertion.candidate, []).append(node.assertion)
        node.pruned = True
        described = node.describe(viable_texts[node.viable])
        log.append(f"{why}: prune {described} with {describe(node.assertion)} (eae {node.eae})")

    def close_implied(node: AltOutcomeNode) -> bool:
        """Close a node whose next elimination an emitted ``Viable(c, E)``
        already rules out: ``c`` is next with ``E`` among those gone, and
        ``c``'s pile only grows as more go.  No entry is added."""
        if not node.eliminated_suffix:
            return False
        gone = frozenset(node.unmentioned)
        for viable in viables.get(node.eliminated_suffix[0], ()):
            if viable.eliminated <= gone:
                node.pruned = True
                log.append(f"implied: close {node.describe(viable_texts[node.viable])} by {describe(viable)}")
                return True
        return False

    def visit(node: AltOutcomeNode) -> bool:
        """Queue an inner node.  A leaf closes its branch at the branch's
        cheapest node unless an emitted ``Viable`` implies that node, raises
        the bound and prunes every waiting node the bound covers, in arrival
        order; False if no assertion closes it."""
        nonlocal lower_bound
        if not node.is_leaf():
            heappush(frontier, (_rank(node), next(arrivals), node))
            return True
        best = node.cheapest()
        if close_implied(best):
            return True
        if math.isinf(best.eae):
            log.append(f"FAIL: no assertion invalidates branch {node.describe()}")
            return False
        add_assertion(best, "branch")
        lower_bound = max(lower_bound, best.eae)
        covered = [(arrival, n) for _, arrival, n in frontier if n.eae <= lower_bound and not n.closed()]
        for _, waiting in sorted(covered):
            if not close_implied(waiting):
                add_assertion(waiting, f"bound {lower_bound}")
        return True

    closed = all(visit(AltOutcomeNode.build((), vset, ctx, *best_root_assertion(vset, ctx))) for vset in alt_sets)
    while closed and frontier:
        node = heappop(frontier)[2]
        if node.closed() or close_implied(node):
            continue
        if node.eae <= lower_bound:  # costs no more draws than the audit already needs
            add_assertion(node, f"pop {lower_bound}")
        else:
            closed = all(visit(child) for child in expand_node(node, ctx))
    return GenerationResult(tuple(entries.values()), closed, tuple(log))


def gen_plurality_viability(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """One Viable per reported-viable candidate, one NonViable per other.

    Jointly these pin the viable set exactly, so no outcome search is
    needed.  At threshold 1 no non-viability assertion exists, so the
    result is not ``closed`` when some candidate was not reported viable.
    """
    if ctx.profile.style != PLURALITY:
        raise ValueError("plurality generation applies to plurality contests")
    tau = ctx.threshold
    entries: list[SpecEntry] = []
    log: list[str] = []
    for c in ctx.labels:
        if c in outcome.viable:
            assertion: Assertion = Viable(c, frozenset(), tau)
        elif tau == 1:
            log.append(f"FAIL: no non-viability assertion exists for {c} at threshold 1")
            continue
        else:
            assertion = NonViable(c, frozenset(), tau)
        entry = ctx.entry(assertion)
        entries.append(entry)
        log.append(_line("", entry))
    return GenerationResult(tuple(entries), len(entries) == len(ctx.labels), tuple(log))


def _status(closed: bool, tie: bool, entries: Sequence[SpecEntry]) -> str:
    """Complete iff the search closed, with no remainder tie, and every entry is auditable."""
    auditable = all(entry.margin > 0 and not math.isinf(entry.eae) for entry in entries)
    return STATUS_COMPLETE if closed and not tie and auditable else STATUS_FULL_COUNT


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
    serve every level.  A level is complete when the search closed, there
    is no delegate remainder tie (levels 2 and 3), and every entry has a
    positive margin and a finite estimate; otherwise it requires a full
    count.  Each level's log ends with its own ``status: …; assertions:
    N`` line, giving that level's status and entry count.
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
        tie = level >= 2 and outcome.tie_flag
        if level >= 2:
            assertions, skipped = gen_delegate_assertions(outcome, level)
            delegate_entries = [ctx.entry(assertion) for assertion in assertions]
            entries += delegate_entries
            log += [_line("delegates: ", entry) for entry in delegate_entries]
            log += [
                f"delegates: skip ({m}, {n}) d={d}: vacuous: holds for any qualified proportions"
                for m, n, d in skipped
            ]
            if tie:
                log.append("delegates: exact remainder tie at the award boundary; full count required")
        status = _status(result.closed, tie, entries)
        log.append(f"status: {status}; assertions: {len(entries)}")
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
