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

Expected sample sizes (ASN) are estimated by simulation: ballots are
drawn one at a time, each independently a one-vote overstatement with
probability ``error_rate``, until the p-value reaches ``alpha`` or every
ballot has been reviewed (the full-count sentinel).  The estimate is the
median trial length over ``trials`` runs.  Trial ``t`` draws its error
positions once, from a PRNG seeded by (seed, ``t``) alone, and every
assertion replays them (common random numbers).  So an estimate depends
only on the margin, not on evaluation order, and since a larger margin
lowers every per-draw factor, each trial's length, and hence the
estimate, never rises with the margin.

Audit rounds are scored from the evidence alone: the caller replays
every round so far along ``sample_stream`` and counts its draws per
(CVR ranking, paper ranking) pair, and ``run_audit_round`` builds each
assertion's ``RiskState`` from those counts, so no state is carried
between calls.
"""
from __future__ import annotations

import csv
import math
import random
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .assertions import Assertion, assertion_key
from .model import STATUS_FULL_COUNT, AuditSpec, ElectionDataError, Ranking, open_input

FULL_COUNT = math.inf

# Discrepancy categories, each spelled as the RiskState field that counts it.
CLEAN = "clean"
ONE_VOTE = "one_vote"
TWO_VOTE = "two_vote"
UNDERSTATEMENT = "understatement"


class CannotAuditError(ValueError):
    """Raised when asked to measure risk for a nonpositive margin."""


@dataclass(frozen=True)
class RiskParams:
    alpha: float = 0.05
    gamma: float = 1.1
    error_rate: float = 0.002
    trials: int = 20
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        if not 1 < self.gamma < math.inf:  # NaN too: every comparison with it fails
            raise ValueError(f"gamma {self.gamma} must be a finite number above 1")
        if not 0 <= self.error_rate < 1:
            raise ValueError(f"error rate {self.error_rate} outside [0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")


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


@lru_cache(maxsize=1)
def _shared_trials(seed: int, error_rate: float, trials: int) -> tuple[tuple[random.Random, array], ...]:
    """Every trial's error positions, drawn on demand from the PRNG of (seed,
    trial) and replayed for every margin: ``gaps[k]`` counts the draws after
    overstatement ``k`` (the start, for ``k = 0``) through the next one, a
    geometric variate, and ``_trial_draws`` appends it from the trial's PRNG
    when first needed.  The positions are a function of the key alone, so
    sharing them across all estimates with these parameters changes no
    result; one key is kept, which bounds the memory to one build's draws."""
    return tuple((random.Random(f"{seed}|{trial}"), array("q")) for trial in range(trials))


def _trial_draws(margin: float, params: RiskParams, population: int, trial: tuple[random.Random, array]) -> float:
    """Length of one simulated audit: draws until p <= alpha or the ballots (at least one) run out.

    Equivalent to drawing ballots one at a time with per-draw error
    probability ``error_rate``, but skips between error positions
    (the trial's geometric ``gaps``), so a trial costs O(number of errors).
    """
    log_clean, log_over, _ = _log_factors(margin, params.gamma)
    if not -math.inf < log_clean < 0.0:  # one draw zeroes p, or none lowers it
        return clean_draws(margin, params.alpha, params.gamma)
    log_target = math.log(params.alpha)
    # zero also for a rate too small to move 1 - error_rate: no errors
    log_no_error = math.log(1.0 - params.error_rate)
    rng, gaps = trial
    log_p = 0.0
    draws = errors = 0
    while draws < population:
        if log_no_error < 0.0:
            # next overstatement is `gap` draws ahead (inclusive)
            if errors == len(gaps):
                gaps.append(int(math.log(1.0 - rng.random()) / log_no_error) + 1)
            gap = gaps[errors]
            errors += 1
        else:
            gap = population - draws + 1
        clean_run = gap - 1
        need = math.ceil((log_target - log_p) / log_clean)
        if need <= clean_run:
            if draws + need <= population:
                return draws + need
            break
        take = min(clean_run, population - draws)
        log_p += take * log_clean
        draws += take
        if draws >= population:
            break
        draws += 1  # the overstatement draw itself
        log_p = min(0.0, log_p + log_over)
        if log_p <= log_target:
            return draws
    return FULL_COUNT


def estimate_asn(margin: float | Fraction, params: RiskParams, population: int) -> float:
    """Median simulated sample size for one assertion; inf if unauditable."""
    if margin <= 0 or population < 1:
        return FULL_COUNT
    m = float(margin)
    trials = _shared_trials(params.seed, params.error_rate, params.trials)
    lengths = [_trial_draws(m, params, population, trial) for trial in trials]
    med = statistics.median(lengths)
    return med if math.isinf(med) else int(math.ceil(med))


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


def run_audit_round(
    assertions: Sequence[tuple[Assertion, float]],
    pairs: Mapping[tuple["Ranking", "Ranking"], int],
    alpha: float,
    gamma: float,
) -> tuple[dict[str, RiskState], str, float]:
    """Score the audit's draws so far against every assertion.

    ``assertions`` pairs each assertion with its margin; ``pairs`` counts
    the draws of every round per distinct (CVR ranking, paper ranking),
    each draw paired with its own round's paper.  A pair whose paper reads
    as its CVR overstates nothing under any assertion, so those pairs are
    summed once as clean draws and only the differing pairs are classified,
    once per assertion; since the p-value depends only on the per-category
    counts, this equals scoring the ballots one at a time in draw order.
    Returns the per-assertion states (keyed by assertion identity), the
    audit status and the suggested number of additional draws: 0 when
    ``confirmed``; when escalating, the fewest that confirm every
    assertion if they are all clean; infinite, with status
    ``requires-full-count``, when an unconfirmed margin is too small for
    any number of draws to move its p-value.
    """
    clean = sum(n for (cvr, paper), n in pairs.items() if cvr == paper)
    differing = [(cvr, paper, n) for (cvr, paper), n in pairs.items() if cvr != paper]
    states: dict[str, RiskState] = {}
    for assertion, m in assertions:
        counts: Counter[str] = Counter({CLEAN: clean})
        for cvr, paper, n in differing:
            counts[discrepancy(assertion, cvr, paper)] += n
        states[assertion_key(assertion)] = RiskState(margin=float(m), gamma=gamma, **counts)

    # p_value raises CannotAuditError for a nonpositive margin
    unconfirmed = {k: s for k, s in states.items() if s.p_value > alpha}
    if not unconfirmed:
        return states, "confirmed", 0
    # later draws add to the uncapped log, so the excess above 0 counts
    suggestion = max(clean_draws(s.margin, alpha, s.gamma, s.log_product) for s in unconfirmed.values())
    return states, STATUS_FULL_COUNT if math.isinf(suggestion) else "escalate", suggestion
