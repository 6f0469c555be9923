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

Each remaining alternative set ``V`` is ruled out by ruling out every
elimination order that leaves it viable.  Those orders form a DAG over
the sets ``U`` of candidates still to be eliminated, read backwards from
the end of the count:

- ``V`` roots an edge into ``labels - V``, ruled out by an assertion
  contradicting ``V`` as the final viable set (``AltOutcomeNode.root_pick``: a
  member below threshold with everyone else gone, or an outsider whose
  first preferences alone make them viable);
- a step ``U -> U - {c}`` says that ``c`` goes right after exactly
  ``U - {c}`` is gone; it is ruled out by an assertion that ``c`` still
  cleared the threshold there or out-tallied someone standing;
- reaching the empty set means a complete order that nothing ruled out.

A complete spec is a set of edges cutting every root from the empty set,
and its audit cost is the largest ``eae`` among its entries.  The search
takes three steps.  A maximin pass over the sets, smallest first, gives
``T*``, the least cost any cut can have: ``best(empty) = inf`` and
``best(U)`` is the largest, over the steps out of ``U``, of the step's
``eae`` and its target's ``best``, whichever is smaller.  The path it
maximises is the proof log's witness that no cheaper cut exists.  Then
the least minimum cut is found at ``T``, the larger of ``T*`` and the
reductions' largest ``eae``: an edge whose ``eae`` is at most ``T``
costs one, any other cannot be cut.  The sets the source reaches over
edges that cannot be cut lie on the source side of every finite cut, so
they are contracted into the source, and a maximum flow (Dinic's) runs
only beyond them, on one arc into each set their cuttable edges reach,
of as many units as it stands for edges (``cut_side``).  That leaves
every finite cut, and so the cut taken, as it is on the full graph.  The
spec is the reductions, then the assertions on the edges leaving the
sets the source still reaches in the final residual graph, deduplicated
by key, the roots' in the order of the alternative sets and then the
steps' from the largest sets down.  Those sets are the same for every
maximum flow, so the bytes depend only on the graph.

An alternative outcome escapes every affordable assertion exactly when
``T*`` is infinite: the maximin path is then a root edge and steps to the
empty set, each with infinite ``eae``.  No audit short of a full manual
count certifies the outcome, so no flow runs, the result is not
``closed`` and keeps only the reductions, and the proof log's ``FAIL``
line names that path.  ``build_audit_specs`` also rules a full count when
an entry or the delegate allocation cannot be audited.

Each edge gets the option of largest exact margin, the first of exactly
equal ones, and only that one is estimated: an estimate depends only on
the margin's float and never rises with it (``risk.estimate_asn``).
Margins are linear forms, derived once from each form's points, that
read no eliminated set and are evaluated on each step's and root's piles
(``AuditContext``), and two are compared by cross-multiplying their
integer margins and denominators.  A step's options are ``Viable(c,
rest)``, then ``IrvWins(c, o, rest)`` for each standing ``o`` in roster
order, where ``rest = U - {c}`` is its target's set.  Each state keeps
its set, piles and standing candidates stably sorted by pile; only the
first sorted ``IrvWins`` can beat the others, so the step weighs it
against the ``Viable`` and keeps the loser it picked, if any.  A root's
options are each outsider's ``Viable`` on the first preferences, then
each member's ``NonViable`` with every outsider gone; only the outsider
of largest first pile and the first sorted member of its set's state can
win, so the root weighs just those two.  An edge's assertion is built
only when the cut takes it.

Only the empty set's piles are counted from the root of the ranking
tree.  Every other set's come from the set without its last candidate in
roster order: only that candidate's ballots move, walked down from their
pile nodes (``tabulation._transfer``).  The states' piles fill the
context's cache, so the cut's entries and ``exact_margin`` count nothing
again.

The search indexes each set by its roster bitmask (position ``i`` is bit
``i``), so a step's target is one bit cleared.  Each set is one
``AltOutcomeNode``, linked only to the sets its steps reach, and the
flow's residual graph lives in flat integer lists, so no search state
forms a reference cycle.

When ``W`` is empty one more alternative is reachable: every candidate
eliminated and nobody viable.  That outcome roots an edge too (empty
viable set) so a complete specification excludes it.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .assertions import (
    Assertion,
    IrvWins,
    NonViable,
    Viable,
    _set_repr,
    describe,
)
from .delegates import gen_delegate_assertions
from .model import (
    PLURALITY,
    STATUS_COMPLETE,
    STATUS_FULL_COUNT,
    AuditSpec,
    ElectionProfile,
    ReportedOutcome,
    RiskParams,
    SpecEntry,
    _check_style,
)
from .risk import estimate_asn
from .tabulation import PileNodes, _first_piles, _transfer, count_piles


def max_viable(threshold: Fraction) -> int:
    """Largest number of candidates that can all hold the threshold share."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    return threshold.denominator // threshold.numerator


class AuditContext:
    """Per-profile caches: piles by elimination set, effort by margin, and
    the margin terms of the search's options.

    Every tally-based answer starts from ``piles``: an assertion's classes
    are the piles of the candidates left standing once its ``removed`` set
    is eliminated, plus the ballots that exhaust.  Their integer
    ``scaled_margin`` gives by its sign whether the assertion holds, and
    the float margin of the estimates by one division by ``_denominator``,
    rounded as ``float`` of the exact margin is; only ``exact_margin``
    builds a fraction.

    A margin is a linear form of the piles, derived once from the points
    (``Assertion.margin_terms``), that reads no eliminated set and no
    candidate's name, only roles.  So one terms tuple per form is read once
    (``_viable``, ``_nonviable``, ``None`` at threshold 1, and ``_wins``),
    and the search evaluates it on each option's own piles; only the
    options that reach the spec become assertions.

    ``piles`` counts a set from the ranking tree's root only on a miss:
    ``set_states`` stores every search state's piles, derived from a
    one-smaller set's, so after the W/L reductions the search's cut entries
    find theirs stored.
    """

    def __init__(self, profile: ElectionProfile, params: RiskParams | None = None):
        self.profile = profile
        self.params = params or RiskParams()
        self.total = profile.total_ballots
        self.valid = profile.valid_ballots
        self.threshold = tau = profile.threshold
        self.labels = profile.labels
        self._piles: dict[frozenset[str], dict[str, int]] = {}
        self._eae: dict[float, float] = {}
        self._viable = self._terms(Viable("candidate", frozenset(), tau), "candidate")
        self._nonviable = self._terms(NonViable("candidate", frozenset(), tau), "candidate") if tau < 1 else None
        self._wins = self._terms(IrvWins("winner", "loser", frozenset()), "winner", "loser")

    def piles(self, eliminated: frozenset[str]) -> dict[str, int]:
        cached = self._piles.get(eliminated)
        if cached is None:
            cached, _ = count_piles(self.profile, eliminated)
            self._piles[eliminated] = cached
        return cached

    def _denominator(self, assertion: Assertion) -> int:
        """What divides the integer margin to give the margin: the cast ballots times the scale."""
        return self.total * assertion.scale

    def _terms(self, form: Assertion, *named: str) -> tuple[int, ...]:
        """``form``'s constant times the valid-ballot count, the ``named`` piles' coefficients, its denominator."""
        constant, coefficients = form.margin_terms
        return constant * self.valid, *map(coefficients.__getitem__, named), self._denominator(form)

    def _margins(self, assertion: Assertion) -> tuple[int, float]:
        """The integer margin and the float margin it gives."""
        scaled = assertion.scaled_margin(self.piles(assertion.removed(self.labels)), self.valid)
        return scaled, scaled / self._denominator(assertion)

    def exact_margin(self, assertion: Assertion) -> Fraction:
        """The exact assorter margin over every cast ballot."""
        return Fraction(self._margins(assertion)[0], self._denominator(assertion))

    @cached_property
    def _ranked(self) -> list[tuple[str, int]]:
        """Each candidate with its first-preference pile, stably sorted by
        that pile, largest first: best ``Viable`` first."""
        first = self.piles(frozenset())
        return [(c, first[c]) for c in sorted(self.labels, key=first.__getitem__, reverse=True)]

    def _effort(self, margin: float) -> float:
        """The estimated sample size, computed once per distinct margin."""
        cached = self._eae.get(margin)
        if cached is None:
            cached = estimate_asn(margin, self.params, self.total)
            self._eae[margin] = cached
        return cached

    def entry(self, assertion: Assertion) -> SpecEntry:
        scaled, margin = self._margins(assertion)
        return SpecEntry(assertion, Fraction(scaled, self._denominator(assertion)), self._effort(margin))


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


def _cheapest(options: Sequence[Assertion], ctx: AuditContext) -> tuple[Assertion | None, float]:
    """The option of largest exact margin (the first of exactly equal ones)
    and its ``eae``; ``(None, inf)`` when it does not hold (its margin is
    not positive) or there is no option.

    ``eae`` never rises with the margin, so no other option is cheaper,
    and only the pick is estimated.  Each option's margin is computed once.
    """
    margins = [ctx.exact_margin(option) for option in options]
    best = max(margins, default=0)
    return (options[margins.index(best)], ctx._effort(float(best))) if best > 0 else (None, math.inf)


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


@dataclass(eq=False, slots=True)
class AltOutcomeNode:
    """The alternative outcomes that still have ``unmentioned`` (roster
    order) to eliminate, whatever their viable set and however their order
    ends.  ``removed`` is that set, ``piles`` the piles once it is gone and
    ``by_pile`` the candidates then standing, stably sorted by pile.
    ``steps`` holds one step per candidate in ``unmentioned``, the one
    eliminating it last of them: the candidate, the loser of the
    ``IrvWins`` that rules it out (``None`` for its ``Viable``), its
    ``eae`` (inf when no option holds) and the state of the set left
    before it, on whose piles the step is scored.  ``best`` is the least
    cost at which every path from here to the empty set can be cut (inf at
    the empty set; inf at any other set means a path from it that no
    affordable assertion cuts), ``via`` the index of the first step that
    attains it, and ``id`` the set's node in the flow graph.
    """

    unmentioned: tuple[str, ...]
    id: int
    removed: frozenset[str]
    piles: dict[str, int]
    by_pile: list[str]
    steps: list[tuple[str, str | None, float, "AltOutcomeNode"]]
    best: float
    via: int

    def assertion(self, step: int, threshold: Fraction) -> Assertion:
        """The assertion the cut builds for step ``step``, over its target's set."""
        cand, loser, _, child = self.steps[step]
        return Viable(cand, child.removed, threshold) if loser is None else IrvWins(cand, loser, child.removed)

    def root_pick(self, ctx: AuditContext) -> tuple[str | None, float]:
        """The candidate of the cheapest assertion contradicting the standing
        candidates as the final viable set, and its ``eae``; ``(None, inf)``
        when none holds.  The first outsider in ``ctx._ranked`` has the best
        ``Viable`` and ``by_pile[0]`` the best ``NonViable`` with this set
        gone; the larger exact margin wins, the outsider's on a tie.
        """
        options = [next(((c, ctx._viable, pile) for c, pile in ctx._ranked if c in self.removed), None)]
        if self.by_pile and ctx._nonviable:
            options.append((member := self.by_pile[0], ctx._nonviable, self.piles[member]))
        pick, scaled, denominator = None, 0, 1
        for cand, (constant, coefficient, den), pile in filter(None, options):
            if (cand_scaled := constant + coefficient * pile) * denominator > scaled * den:
                pick, scaled, denominator = cand, cand_scaled, den
        return pick, (math.inf if pick is None else ctx._effort(scaled / denominator))

    def root_assertion(self, pick: str, threshold: Fraction) -> Assertion:
        """The assertion the cut builds for a root edge into this set that picked ``pick``."""
        outsider = pick in self.removed
        return Viable(pick, frozenset(), threshold) if outsider else NonViable(pick, self.removed, threshold)


def set_states(ctx: AuditContext, tops: Iterable[tuple[str, ...]]) -> dict[tuple[str, ...], AltOutcomeNode]:
    """A state for each set that the sets ``tops`` (each in roster order)
    reach by eliminating candidates, smallest sets first: each step is
    scored on its target's piles and each ``best`` solved from the smaller
    sets'.

    Sets are indexed by roster bitmask, and each set's tuple is sliced
    once, when a larger set first reaches it; the states return by tuple.

    Only the empty set's piles are counted from the ranking tree's root.
    Any other set's come from the set without its last candidate, whose
    ballots alone move (``tabulation._transfer``).  A set one larger than
    a state adds a candidate later in the roster, so each state keeps the
    pile nodes of its later candidates only, and only until the sets one
    larger are built.  Every state's piles go to ``ctx``'s cache.
    """
    bit = {c: 1 << i for i, c in enumerate(ctx.labels)}
    # each set's roster-ordered tuple by its mask, by size
    layers: list[dict[int, tuple[str, ...]]] = [{} for _ in range(len(ctx.labels) + 1)]
    for top in tops:
        layers[len(top)][sum(map(bit.__getitem__, top))] = top
    for size in range(len(layers) - 1, 0, -1):
        below = layers[size - 1]
        for mask, unmentioned in layers[size].items():
            for i, cand in enumerate(unmentioned):
                if (key := mask ^ bit[cand]) not in below:
                    below[key] = unmentioned[:i] + unmentioned[i + 1:]
    eaes, effort = ctx._eae, ctx._effort
    viable_constant, viable_coefficient, viable_denominator = ctx._viable
    wins_constant, winner_coefficient, loser_coefficient, wins_denominator = ctx._wins
    # the candidates after each in the roster: the ones whose pile nodes a state with it last keeps
    later = {c: ctx.labels[i + 1:] for i, c in enumerate(ctx.labels)}
    by_mask: dict[int, AltOutcomeNode] = {}
    nodes_below: dict[int, PileNodes] = {}
    for layer in layers:
        nodes: dict[int, PileNodes] = {}
        for mask, unmentioned in layer.items():
            steps: list[tuple[str, str | None, float, AltOutcomeNode]] = []
            best, via = (-math.inf if unmentioned else math.inf), -1
            for cand in unmentioned:
                child = by_mask[mask ^ bit[cand]]
                piles, by_pile, loser = child.piles, child.by_pile, None
                scaled, denominator = viable_constant + viable_coefficient * piles[cand], viable_denominator
                if len(by_pile) > 1:  # cand stands, so someone else does too
                    other = by_pile[by_pile[0] == cand]
                    rival = wins_constant + winner_coefficient * piles[cand] + loser_coefficient * piles[other]
                    if rival * viable_denominator > scaled * wins_denominator:
                        scaled, denominator, loser = rival, wins_denominator, other
                eae = (eaes.get(margin := scaled / denominator) or effort(margin)) if scaled > 0 else math.inf
                reach = eae if eae < child.best else child.best
                if reach > best:
                    best, via = reach, len(steps)
                steps.append((cand, loser, eae, child))
            removed = frozenset(unmentioned)
            if unmentioned:  # the last candidate's ballots move on from the set without them
                last = mask ^ bit[gone := unmentioned[-1]]
                piles, nodes[mask] = _transfer(by_mask[last].piles, nodes_below[last], gone, removed, later[gone])
            else:
                piles, nodes[mask] = _first_piles(ctx.profile)
            ctx._piles[removed] = piles
            by_mask[mask] = AltOutcomeNode(
                unmentioned, len(by_mask), removed, piles, sorted(piles, key=piles.__getitem__), steps, best, via)
        nodes_below = nodes
    return {state.unmentioned: state for state in by_mask.values()}


def source_side(node_count: int, arcs: Sequence[tuple[int, int, int | None]], source: int, sink: int) -> list[bool]:
    """Which nodes a maximum flow from ``source`` to ``sink`` leaves
    reachable from ``source`` in its residual graph.  Each arc is ``(tail,
    head, capacity)``: a positive integer, or ``None`` for an arc no finite
    cut may cross.  The arcs leaving the reachable nodes form a minimum cut,
    and every maximum flow leaves the same nodes reachable, so the answer
    does not depend on the order of ``arcs``.

    Dinic's method: each phase numbers the nodes by their distance to
    ``sink`` over arcs with capacity left, outward until ``source`` is
    numbered, then saturates every shortest path from ``source``, walking
    each node's arcs once from where its last walk stopped.  Numbered from
    the sink, a node no shortest path enters is never walked, however close
    to the source it lies.  Arc ``e`` and its reverse ``e ^ 1`` sit side by
    side in flat lists, so ``e ^ 1`` enters the node that ``e`` leaves.
    """
    unbounded = sum(filter(None, map(itemgetter(2), arcs))) + 1  # more than any finite cut
    head: list[int] = []
    capacity: list[int] = []
    out: list[list[int]] = [[] for _ in range(node_count)]
    for tail, to, limit in arcs:
        out[tail].append(len(head))
        head.append(to)
        capacity.append(limit or unbounded)
        out[to].append(len(head))
        head.append(tail)
        capacity.append(0)
    while True:
        distance = [-1] * node_count
        distance[sink] = 0
        queue = [sink]
        for node in queue:
            if distance[node] == distance[source]:  # no node this far out lies on a shortest path
                break
            for arc in out[node]:
                if capacity[arc ^ 1] and distance[head[arc]] < 0:
                    distance[head[arc]] = distance[node] + 1
                    queue.append(head[arc])
        if distance[source] < 0:
            break
        walked = [0] * node_count
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                pushed = min(capacity[arc] for arc in path)
                for arc in path:
                    capacity[arc] -= pushed
                    capacity[arc ^ 1] += pushed
                path.clear()
                node = source
            arcs_out, i, nearer = out[node], walked[node], distance[node] - 1
            while i < len(arcs_out) and not (capacity[arcs_out[i]] and distance[head[arcs_out[i]]] == nearer):
                i += 1
            walked[node] = i
            if i < len(arcs_out):
                path.append(arcs_out[i])
                node = head[arcs_out[i]]
            elif path:  # a dead end: retreat and pass over the arc that led here
                node = head[path.pop() ^ 1]
                walked[node] += 1
            else:
                break
    # no path is left: the nodes the residual graph still leads to from the source
    reached = [False] * node_count
    reached[source] = True
    queue = [source]
    for node in queue:
        for arc in out[node]:
            if capacity[arc] and not reached[head[arc]]:
                reached[head[arc]] = True
                queue.append(head[arc])
    return reached


def cut_side(
    states: dict[tuple[str, ...], AltOutcomeNode],
    roots: Iterable[tuple[frozenset[str], tuple[str, ...], Assertion | None, float]],
    bound: float,
) -> list[bool]:
    """Which sets, by ``id``, lie on the source side of the least minimum
    cut at ``bound`` of the graph whose source roots an edge into each
    root's set and whose other edges are the states' steps; an edge whose
    ``eae`` exceeds ``bound`` cannot be cut.

    The sets the source reaches over edges that cannot be cut lie on the
    source side of every finite cut, so they are contracted into the
    source: the flow runs on one arc from the source into each other set
    that a cuttable edge from them or from the source reaches, of as many
    units as the edges it stands for, and on the edges among the other
    sets.  An edge into a contracted set would end at the source and is
    dropped.  The finite cuts, and so the least source side, are those of
    the full graph.
    """
    source = len(states)
    side = [False] * source + [True]
    stack: list[AltOutcomeNode] = []
    heads: list[AltOutcomeNode] = []
    for _, top, _, eae in roots:
        (stack if eae > bound else heads).append(states[top])
    while stack:
        state = stack.pop()
        if not side[state.id]:
            side[state.id] = True
            for _, _, eae, child in state.steps:
                (stack if eae > bound else heads).append(child)
    arcs = [(source, head, units) for head, units in Counter(c.id for c in heads if not side[c.id]).items()]
    arcs += [
        (state.id, child.id, None if eae > bound else 1)
        for state in states.values() if not side[state.id]
        for _, _, eae, child in state.steps if not side[child.id]
    ]
    flow = source_side(source + 1, arcs, source, states[()].id)
    return [contracted or reached for contracted, reached in zip(side, flow)]


def _outcome(vset: frozenset[str], order: Sequence[str]) -> str:
    """An outcome as a proof log names it: its elimination order and viable set."""
    return f"[{' -> '.join(order) or '(nobody eliminated)'} | viable {_set_repr(vset)}]"


def gen_irv_viability(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """Viability assertion set for an instant-runoff contest.

    Returns the reduction assertions plus a minimum cut of the edges
    between the alternative viable sets and the empty set, at the least
    cost any cut can have.  When that least cost ``T*`` is infinite, some
    alternative outcome has no affordable assertion anywhere on its path:
    the result is not ``closed``, keeps the reductions alone, and its
    ``FAIL`` line names the maximin path.
    """
    winners, losers, reductions = compute_W_L(ctx)
    log = [f"definite viable W = {sorted(winners)}; never viable L = {sorted(losers)}"]
    log += [_line("reduction: ", entry) for entry in reductions]
    alt_sets = enumerate_alt_sets(ctx.labels, winners, losers, max_viable(ctx.threshold), outcome.viable)
    if not winners:
        # with no first-preference lock, total collapse (nobody viable) is
        # also a reachable outcome and needs ruling out
        alt_sets.append(frozenset())
    if not alt_sets:
        log.append("no alternative outcome to rule out")
        return GenerationResult(reductions, True, tuple(log))

    tops = [tuple(c for c in ctx.labels if c not in vset) for vset in alt_sets]
    states = set_states(ctx, tops)
    # (viable set, the set it leaves to eliminate, the candidate its assertion names, eae)
    roots = [(vset, top, *states[top].root_pick(ctx)) for vset, top in zip(alt_sets, tops)]
    t_star, witness = -math.inf, roots[0]
    for root in roots:
        reach = min(root[3], states[root[1]].best)
        if reach > t_star:
            t_star, witness = reach, root
    # the maximin path: the root edge, then the steps back to the start of the count
    vset, top, _, eae = witness
    path, state = [("viable", eae)], states[top]
    while state.unmentioned:
        cand, _, step_eae, state = state.steps[state.via]
        path.append((cand, step_eae))
    path.reverse()
    named = _outcome(vset, [cand for cand, _ in path[:-1]])
    if math.isinf(t_star):  # the path is an outcome that no affordable assertion rules out
        log.append(f"FAIL: no assertion rules out {named}")
        return GenerationResult(reductions, False, tuple(log))
    costs = ", ".join(f"{name} {cost}" for name, cost in path)
    log.append(f"T* = {t_star}: no cut is cheaper, as every edge of {named} costs at least that ({costs})")

    bound = max([t_star] + [entry.eae for entry in reductions])
    side = cut_side(states, roots, bound)
    cut = [
        (f"viable {_set_repr(vset)}", states[top].root_assertion(pick, ctx.threshold), eae)
        for vset, top, pick, eae in roots if not side[states[top].id]
    ]
    cut += [
        (f"{cand} after {_set_repr(child.removed)}", state.assertion(i, ctx.threshold), eae)
        for state in reversed(states.values()) if side[state.id]
        for i, (cand, _, eae, child) in enumerate(state.steps) if not side[child.id]
    ]
    log.append(f"cut at T = {bound}: {len(cut)} edges")
    entries = {entry.assertion.key: entry for entry in reductions}
    for edge, assertion, eae in cut:
        log.append(f"cut: {edge} with {describe(assertion)} (eae {eae})")
        if assertion.key not in entries:
            entries[assertion.key] = ctx.entry(assertion)
    return GenerationResult(tuple(entries.values()), True, tuple(log))


def gen_plurality_viability(ctx: AuditContext, outcome: ReportedOutcome) -> GenerationResult:
    """One Viable per reported-viable candidate, one NonViable per other.

    Jointly these pin the viable set exactly, so no outcome search is
    needed.  At threshold 1 no non-viability assertion exists, so the
    result is not ``closed`` when some candidate was not reported viable.
    """
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
    _check_style(profile.style)
    if any(level not in (1, 2, 3) for level in levels):
        raise ValueError("audit level must be 1, 2 or 3")
    ctx = AuditContext(profile, params)
    search = gen_plurality_viability if profile.style == PLURALITY else gen_irv_viability
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
