"""Risk measurement for ballot-level comparison audits with replacement.

The measured risk (p-value) for an assertion with assorter margin ``m``
is a product of per-draw factors in the Kaplan-Markov "super-simple"
comparison form with inflation factor ``gamma``:

* clean draw or understatement: ``max(0, 1 - m/(2*gamma))``
* one-vote overstatement:       clean factor / ``(1 - 1/(2*gamma))``
* two-vote overstatement:       clean factor / ``(1 - 1/gamma)``

The p-value is held as its log: it is the exponential of the sum of the
draws' log factors, capped at 0, so no count of overstatements overflows
it.  An assertion is confirmed once its p-value falls to the risk limit
``alpha``.  With no errors the required number of draws is exactly
``ceil(ln(alpha) / ln(1 - m/(2*gamma)))``; a margin of ``2*gamma`` or
more confirms on the first draw, and one so small that the clean factor
rounds to 1 never confirms (a full count).  Understatements are
conservatively given the clean factor, never less.  Later draws add to
the uncapped sum, so an escalating round suggests the clean draws that
take it to ``ln(alpha)``.

Expected sample sizes (ASN) follow Stark's expected-overstatement sizing
for super-simple audits: one-vote overstatements arrive evenly at rate
``error_rate`` (the k-th at draw ``ceil((k - 1/2)/error_rate)``), the rest
of the draws are clean, and the estimate is the first draw at which the
uncapped p-value reaches ``alpha``, or the full-count sentinel if none up
to the ballot total does.  It depends on nothing but the margin and the
risk parameters, and never rises with the margin.

Audit rounds are scored from the evidence alone: ``replay_rounds``
replays every round so far along ``sample_stream`` (refusing draws beyond
the contest's ballots before any, and a draw its round has no paper for)
and counts the draws per (CVR ranking, paper ranking) pair, from which
``run_audit_round`` builds each assertion's ``RiskState`` and decides the
one full-count rule of a round: a full count once the draws so far plus
the suggested ones exceed the contest's ballots.
"""
from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .assertions import Assertion
from .model import STATUS_FULL_COUNT, AuditSpec, ElectionDataError, Ranking, RiskParams, open_input, parse_ranking_cell

FULL_COUNT = math.inf

# Discrepancy categories, each spelled as the RiskState field that counts it.
CLEAN = "clean"
ONE_VOTE = "one_vote"
TWO_VOTE = "two_vote"
UNDERSTATEMENT = "understatement"


class CannotAuditError(ValueError):
    """Raised when asked to measure risk for a nonpositive margin."""


@dataclass(frozen=True)
class RiskState:
    """Per-assertion audit progress: the discrepancy count of each category.

    The p-value is the exponential of the (capped) sum of per-draw log
    factors; computing it from counts keeps it independent of the order in
    which ballots were processed.
    """

    margin: float
    gamma: float
    clean: int = 0
    one_vote: int = 0
    two_vote: int = 0
    understatement: int = 0

    @property
    def draws(self) -> int:
        return self.clean + self.one_vote + self.two_vote + self.understatement

    @property
    def log_product(self) -> float:
        """The log of the uncapped product of the per-draw factors; a zero
        count adds nothing, so ``0 * -inf`` never occurs."""
        counts = (self.clean + self.understatement, self.one_vote, self.two_vote)
        return sum((n * f for n, f in zip(counts, _log_factors(self.margin, self.gamma)) if n), 0.0)

    @property
    def p_value(self) -> float:
        return math.exp(min(0.0, self.log_product))

    @property
    def discrepancies(self) -> dict[str, int]:
        return {
            CLEAN: self.clean,
            ONE_VOTE: self.one_vote,
            TWO_VOTE: self.two_vote,
            UNDERSTATEMENT: self.understatement,
        }


def _log_factors(margin: float, gamma: float) -> tuple[float, float, float]:
    """The logs of the per-draw p-value factors of a clean draw (or
    understatement), a one-vote and a two-vote overstatement: all ``-inf``
    when one clean draw zeroes the p-value (margin ``2*gamma`` or more), a
    clean log of 0 when the margin is below float resolution."""
    if margin <= 0:
        raise CannotAuditError(f"margin {margin} is not positive; assertion cannot be audited")
    clean = 1.0 - margin / (2.0 * gamma)
    if clean <= 0.0:
        return -math.inf, -math.inf, -math.inf
    return math.log(clean), math.log(clean / (1.0 - 1.0 / (2.0 * gamma))), math.log(clean / (1.0 - 1.0 / gamma))


def discrepancy(assertion: Assertion, cvr: "Ranking", paper: "Ranking") -> str:
    """Classify a CVR-vs-paper comparison in assorter units.

    The overstatement is ``assorter(cvr) - assorter(paper)``, in points:
    zero is clean, negative an understatement; positive overstatements are
    one-vote up to half the assorter's upper bound and two-vote beyond.
    """
    omega = assertion.ballot_points(cvr) - assertion.ballot_points(paper)
    if omega == 0:
        return CLEAN
    if omega < 0:
        return UNDERSTATEMENT
    if 2 * omega <= assertion.max_points:
        return ONE_VOTE
    return TWO_VOTE


def clean_draws(margin: float, alpha: float, gamma: float, log_p: float = 0.0) -> float:
    """Clean draws that take a p-value of ``exp(log_p)``, above ``alpha``,
    down to ``alpha``: one when a single clean draw zeroes it (margin
    ``2*gamma`` or more), the full-count sentinel when the clean factor
    rounds to 1 (a margin below float resolution never moves the p-value).
    Every other draw category multiplies the p-value by at least the
    clean factor, so no audit that starts at ``exp(log_p)`` confirms in
    fewer draws.
    """
    log_clean = _log_factors(margin, gamma)[0]
    if log_clean == -math.inf:
        return 1
    if log_clean == 0.0:
        return FULL_COUNT
    return math.ceil((math.log(alpha) - log_p) / log_clean)


def estimate_asn(margin: float | Fraction, params: RiskParams, population: int) -> float:
    """Stark's expected-overstatement sample size for one assertion: the fewest
    draws ``n`` whose uncapped p-value, as in ``RiskState.log_product``,
    reaches ``alpha`` when ``floor(error_rate*n + 1/2)`` of them are one-vote
    overstatements and the rest clean; the full-count sentinel when the
    margin is not positive or no ``n`` up to ``population`` qualifies.  Every
    log factor falls as the margin grows, so the estimate never rises with it.
    """
    if margin <= 0:
        return FULL_COUNT
    m = float(margin)
    log_clean, log_over, _ = _log_factors(m, params.gamma)
    if params.error_rate == 0 or not -math.inf < log_clean < 0.0:  # no errors, one draw zeroes p, or none lowers it
        need = clean_draws(m, params.alpha, params.gamma)
        return need if need <= population else FULL_COUNT
    log_alpha, error_rate, floor = math.log(params.alpha), params.error_rate, math.floor
    # Every draw before n fails.  With k = floor(error_rate*n + 1/2)
    # overstatements, the least draw c >= n that k would let confirm, as
    # (c - k)*log_clean + k*log_over <= log_alpha says, is estimated by
    # division and settled by that test, monotone in c for a fixed k.  A draw
    # in [n, c) has at least k overstatements, each only raising the p-value,
    # so it fails too; c confirms if it has exactly k.
    n = 1
    while True:
        k = floor(error_rate * n + 0.5)
        c = min(max(n, math.ceil(k + (log_alpha - k * log_over) / log_clean)), population + 1)
        while c > n and (c - 1 - k) * log_clean + k * log_over <= log_alpha:
            c -= 1
        while c <= population and not (c - k) * log_clean + k * log_over <= log_alpha:
            c += 1
        if c > population:
            return FULL_COUNT
        if floor(error_rate * c + 0.5) == k:
            return c
        n = c


def estimate_audit_asn(spec: "AuditSpec") -> float:
    """Overall expected draws: the largest estimate stored in the spec, since
    every drawn ballot is scored against every assertion; a full count
    (``FULL_COUNT``) when the spec's status says one is required."""
    if spec.status == STATUS_FULL_COUNT:
        return FULL_COUNT
    return max((entry.eae for entry in spec.entries), default=0)


def sample_stream(seed: int, universe: Sequence[str]) -> Iterator[str]:
    """The audit's endless deterministic sample, uniform with replacement
    from ``universe``: every round's manifest is its next segment."""
    if not universe:
        raise ValueError("cannot sample from an empty universe")
    rng = random.Random(f"{seed}|sample")
    size = len(universe)
    while True:
        yield universe[rng.randrange(size)]


def write_manifest(draws: Sequence[str], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["draw_index", "ballot_id"])
        for i, ballot_id in enumerate(draws, start=1):
            writer.writerow([i, ballot_id])


def read_manifest(path: str | Path) -> list[str]:
    with open_input(path, "manifest") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "ballot_id" not in header:
            raise ElectionDataError(f"manifest {path} must have a ballot_id column")
        column = header.index("ballot_id")
        return [row[column] if column < len(row) else "" for row in reader if row]


def replay_rounds(
    seed: int, cvrs: Mapping[str, Ranking], rounds: Sequence[Mapping], cells: dict[str, Ranking] | None = None,
    where: str = "audit state", this_round: tuple[str, Sequence[str], Mapping[str, Ranking]] = ("", (), {}),
) -> tuple[Counter[tuple[Ranking, Ranking]], Iterator[str]]:
    """The draws of the state's ``rounds`` and then of ``this_round`` (its
    manifest's name, draws and papers) per (CVR ranking, paper ranking) pair,
    and the sample after them; paper cells are parsed through ``cells``, as
    in ``model.load_cvrs``.  This round's manifest must be the sample's next
    segment, or the audited ballots could be picked."""
    label, manifest, papers = this_round
    drawn = sum(rnd["draws"] for rnd in rounds)
    if drawn + len(manifest) > len(cvrs):  # audit init and escalation stop at a full count first
        more = f" and {label} lists {len(manifest)} more" if manifest else ""
        raise ElectionDataError(f"{where} records {drawn} draws{more}, beyond the contest's {len(cvrs)} ballots")
    sample = sample_stream(seed, list(cvrs))
    pairs: Counter[tuple[Ranking, Ranking]] = Counter()

    def count(ballots: Iterable[str], papers: Mapping[str, Ranking], at: str) -> None:
        for ballot in ballots:
            if ballot not in papers:
                raise ElectionDataError(f"{at}: no manual interpretation for drawn ballot {ballot!r}")
            pairs[cvrs[ballot], papers[ballot]] += 1

    for number, rnd in enumerate(rounds, start=1):
        at = f"{where}, round {number}"
        recorded = {b: parse_ranking_cell(cell, at, cells) for b, cell in rnd["interpretations"].items()}
        count(islice(sample, rnd["draws"]), recorded, at)
    if list(manifest) != list(islice(sample, len(manifest))):
        raise ElectionDataError(f"{label} is not the next {len(manifest)} draws of the audit's sample "
                                f"(seed {seed}, {drawn} ballots drawn so far)")
    count(manifest, papers, f"round {len(rounds) + 1}")
    return pairs, sample


def run_audit_round(
    assertions: Sequence[tuple[Assertion, float]],
    pairs: Mapping[tuple["Ranking", "Ranking"], int],
    alpha: float,
    gamma: float,
    total_ballots: int,
) -> tuple[dict[str, RiskState], str, float]:
    """Score the audit's draws so far against every assertion.

    ``assertions`` pairs each assertion with its margin; ``pairs`` is
    ``replay_rounds``'s count of the draws.  A pair whose paper reads as
    its CVR overstates nothing under any assertion, so those pairs are
    summed once as clean draws and only the differing pairs are classified,
    once per assertion; since the p-value depends only on the per-category
    counts, this equals scoring the ballots one at a time in draw order.
    Returns the per-assertion states (keyed by assertion identity), the
    audit status and the suggested number of additional draws: 0 when
    ``confirmed``; otherwise the fewest that confirm every assertion if
    they are all clean, with status ``escalate`` while the draws so far
    plus that suggestion stay within the contest's ``total_ballots``, and
    ``requires-full-count`` once they exceed it, since a full count is
    then cheaper.  The suggestion is infinite, a full count, when an
    unconfirmed margin is too small for any number of draws to move its
    p-value.
    """
    clean = sum(n for (cvr, paper), n in pairs.items() if cvr == paper)
    differing = [(cvr, paper, n) for (cvr, paper), n in pairs.items() if cvr != paper]
    states: dict[str, RiskState] = {}
    for assertion, m in assertions:
        counts: Counter[str] = Counter({CLEAN: clean})
        for cvr, paper, n in differing:
            counts[discrepancy(assertion, cvr, paper)] += n
        states[assertion.key] = RiskState(margin=float(m), gamma=gamma, **counts)

    # p_value raises CannotAuditError for a nonpositive margin
    unconfirmed = {k: s for k, s in states.items() if s.p_value > alpha}
    if not unconfirmed:
        return states, "confirmed", 0
    # later draws add to the uncapped log, so the excess above 0 counts
    suggestion = max(clean_draws(s.margin, alpha, s.gamma, s.log_product) for s in unconfirmed.values())
    sampling_on = sum(pairs.values()) + suggestion <= total_ballots  # else a full count is cheaper
    return states, "escalate" if sampling_on else STATUS_FULL_COUNT, suggestion
