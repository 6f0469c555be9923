"""Seeded inputs and command sequences for the three benchmark workloads.

Each op of a workload gets its own input files, derived from the workload
seed and the op index, so a cache kept across CLI calls cannot turn a
repeated command into a hit.  The program sees only the generated files.
An op is a closed-loop sequence of CLI commands: each starts after the
previous one returns.
"""
from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks

THRESHOLD = "3/20"
DELEGATES = 14


def op_rng(seed: int, op: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}|{op}|{purpose}")


def cyclic_contest(strengths: tuple[int, ...]) -> tuple[list[str], list[tuple[tuple[str, ...], int]]]:
    """The acceptance suite's cyclic-transfer IRV contest, for any field size.

    Two first-preference leaders plus a ring of minor candidates, each
    passing its votes to the next one or two in the ring.  The reduction
    sets stay small, so the outcome search has to explore elimination
    orders among the minors.
    """
    labels = [f"c{i}" for i in range(len(strengths))]
    ring = labels[2:]
    ballots = []
    for i, (label, weight) in enumerate(zip(labels, strengths)):
        if i < 2:
            ballots.append(((label,), weight))
            continue
        nxt, nxt2 = ring[(i - 1) % len(ring)], ring[i % len(ring)]
        ballots.append(((label, nxt, nxt2), weight * 2 // 3))
        ballots.append(((label, nxt2), weight - weight * 2 // 3))
    return labels, ballots


def write_election(path: Path, roster: list[str], ballots) -> None:
    doc = {
        "candidates": roster,
        "threshold": THRESHOLD,
        "delegates": DELEGATES,
        "style": "irv",
        "ballots": [{"ranking": list(r), "count": n} for r, n in ballots],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def generate_argv(election: Path, spec: Path, seed: int) -> list[str]:
    return ["generate", "--election", str(election), "--level", "3", "--seed", str(seed), "--out", str(spec)]


class IrvSearch:
    name = "irv-search"
    # Why: outcome search dominates.  Ten candidates in the cyclic contest
    # give a 1.5k-assertion level-3 spec; branch-and-bound frontier handling,
    # expand_node and ASN simulation do almost all the work, and count_piles
    # over 18 distinct rankings is negligible.  Only the roster order and the
    # risk seed vary per op: jittering the weights flips contests to
    # requires-full-count and changes the cost class.
    strengths = (4400, 3160, 2400, 2200, 2000, 1800, 1700, 1600, 1340, 1100)
    candidates = 10
    distinct_rankings = 18

    def prepare(self, seed: int, op: int, directory: Path) -> dict:
        labels, ballots = cyclic_contest(self.strengths)
        rng = op_rng(seed, op, self.name)
        roster = rng.sample(labels, len(labels))
        election = directory / "election.json"
        write_election(election, roster, ballots)
        return {"index": op, "election": election, "spec": directory / "spec.json", "seed": rng.randrange(2**31)}

    def run(self, op: dict, harness) -> None:
        res = op["generate"] = harness.command("generate", generate_argv(op["election"], op["spec"], op["seed"]), 0)
        if res.ok:
            res.failures += checks.spec_file(op["spec"], harness, res)
            res.failures += checks.oracle_margins(op["spec"], op["election"])

    def final(self, op: dict, harness) -> None:
        res = op["generate"]
        if res.ok:
            argv = generate_argv(op["election"], op["spec"], op["seed"])
            res.failures += checks.regenerates_identically(harness, argv, op["spec"])


# Fixed candidate weights of the ranking model; only the sampled rankings
# vary per op.  Changing the weights moves generate time by 2x.
DIVERSE_WEIGHTS = (30, 22, 14, 10, 9, 7, 5, 3)
DIVERSE_LENGTHS = (1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8)


def diverse_ballots(rng: random.Random, distinct: int, total: int) -> list[tuple[tuple[str, ...], int]]:
    """Plackett-Luce rankings over fixed weights, truncated to a random length.

    Draws until ``distinct`` different rankings have appeared, then scales
    each ranking's draw count (plus jitter) up to about ``total`` ballots.
    """
    labels = [f"c{i}" for i in range(len(DIVERSE_WEIGHTS))]
    draws: dict[tuple[str, ...], int] = {}
    n = 0
    while len(draws) < distinct:
        order = sorted((rng.expovariate(w), c) for w, c in zip(DIVERSE_WEIGHTS, labels))
        ranking = tuple(c for _, c in order[: rng.choice(DIVERSE_LENGTHS)])
        draws[ranking] = draws.get(ranking, 0) + 1
        n += 1
    scale = max(1, total // (n + distinct // 2))
    return [(r, k * scale + rng.randrange(scale)) for r, k in draws.items()]


class IrvDiverse:
    name = "irv-diverse"
    # Why: tallying dominates.  Eight candidates, 15k distinct rankings and
    # about 1.2M ballots in a 2.2 MB election file make every count_piles
    # call scan 15k rankings, so the pile cache and election loading matter,
    # while the search and ASN simulation stay moderate.  It is the only
    # workload that runs tabulate and estimate.
    candidates = 8
    distinct_rankings = 15000
    ballots = 1_200_000
    viable = {"c0", "c1", "c2"}
    oracle_sample = 4

    def prepare(self, seed: int, op: int, directory: Path) -> dict:
        rng = op_rng(seed, op, self.name)
        ballots = diverse_ballots(rng, self.distinct_rankings, self.ballots)
        election = directory / "election.json"
        write_election(election, [f"c{i}" for i in range(self.candidates)], ballots)
        return {"index": op, "election": election, "spec": directory / "spec.json", "seed": rng.randrange(2**31)}

    def run(self, op: dict, harness) -> None:
        election = str(op["election"])
        res = harness.command("tabulate", ["--format", "json", "tabulate", "--election", election], expect=0)
        if res.ok:
            viable = set(json.loads(res.stdout)["viable"])
            if viable != self.viable:
                res.failures.append(f"viable set {sorted(viable)}, constructed {sorted(self.viable)}")
        res = op["generate"] = harness.command("generate", generate_argv(op["election"], op["spec"], op["seed"]), 0)
        if not res.ok:
            return
        # The oracle scores an assertion against 15k rankings in exact
        # arithmetic in about 70 ms: a sample per op, all of them in final().
        sample = (op_rng(op["seed"], op["index"], "oracle"), self.oracle_sample)
        res.failures += checks.spec_file(op["spec"], harness, res)
        res.failures += checks.oracle_margins(op["spec"], op["election"], sample)
        spec_entries = len(json.loads(op["spec"].read_text(encoding="utf-8"))["assertions"])
        res = harness.command(
            "estimate", ["--format", "json", "estimate", "--election", election, "--seed", str(op["seed"])], expect=0
        )
        if res.ok:
            res.failures += checks.estimate_output(json.loads(res.stdout), spec_entries, res)

    def final(self, op: dict, harness) -> None:
        res = op.get("generate")
        if res is not None and res.ok:
            res.failures += checks.oracle_margins(op["spec"], op["election"])
            argv = generate_argv(op["election"], op["spec"], op["seed"])
            res.failures += checks.regenerates_identically(harness, argv, op["spec"])


def favours(entry: dict, ranking: tuple[str, ...]) -> bool:
    """Whether a ballot scores above 1/2 under a spec assertion (spec JSON form),
    so that reading its paper as blank is an overstatement for it."""
    if entry["type"] == "pairwise_diff":
        first = next((c for c in ranking if c in entry["viable"]), None)
        return first == entry["winner"]
    top = next((c for c in ranking if c not in entry["eliminated"]), None)
    if entry["type"] == "nonviable":
        return top is not None and top != entry["winner"]
    return top == entry["winner"]


def overstatements_to_escalate(entry: dict, metadata: dict, draws: int) -> int:
    """Fewest one-vote overstatements that keep an assertion's Kaplan-Markov
    p-value, ``f**draws / (1 - 1/(2*gamma))**k`` with ``f = 1 - margin/(2*gamma)``,
    above twice the risk limit after ``draws`` draws."""
    gamma = metadata["gamma"]
    log_clean = math.log(1 - float(Fraction(entry["margin"])) / (2 * gamma))
    log_over = -math.log(1 - 1 / (2 * gamma))
    return max(1, math.floor((math.log(2 * metadata["alpha"]) - draws * log_clean) / log_over) + 1)


def read_manifest(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["ballot_id"] for row in csv.DictReader(fh)]


def write_rankings_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ballot_id", "ranking"])
        for ballot_id, ranking in rows:
            writer.writerow([ballot_id, "|".join(ranking)])


class AuditRound:
    name = "audit-round"
    # Why: audit I/O and per-ballot scoring dominate, with no search in the
    # timed commands.  It reads what the other workloads write: a level-3
    # spec of about 350 assertions for the nine-candidate cyclic contest and
    # one CVR row per ballot (19.8k rows).  In round 1 the audit board reads
    # as blank just enough drawn ballots favouring the weakest assertion to
    # keep its p-value above twice the risk limit (a few ballots, about 0.2%
    # of the draws, each a one-vote overstatement), so round 1 always
    # escalates and round 2, read cleanly from the written next manifest,
    # confirms after a few hundred more draws.
    strengths = (4400, 3160, 2400, 2200, 2000, 1800, 1600, 1340, 1100)
    candidates = 9
    distinct_rankings = 16

    def prepare(self, seed: int, op: int, directory: Path) -> dict:
        labels, ballots = cyclic_contest(self.strengths)
        rng = op_rng(seed, op, self.name)
        roster = rng.sample(labels, len(labels))
        election = directory / "election.json"
        write_election(election, roster, ballots)
        cast = [ranking for ranking, count in ballots for _ in range(count)]
        rng.shuffle(cast)
        cvrs = {f"b{i:05d}": ranking for i, ranking in enumerate(cast)}
        cvr_path = directory / "cvrs.csv"
        write_rankings_csv(cvr_path, cvrs.items())
        return {
            "index": op,
            "dir": directory,
            "election": election,
            "spec": directory / "spec.json",
            "cvrs": cvr_path,
            "cvr_rankings": cvrs,
            "seed": rng.randrange(2**31),
            "sample_seed": rng.randrange(2**31),
            "misread_rng": rng,
        }

    def run(self, op: dict, harness) -> None:
        d: Path = op["dir"]
        # The spec is an input here, made before the timed commands.
        spec_made = harness.untimed(generate_argv(op["election"], op["spec"], op["seed"])) == 0
        audit = ["--format", "json", "audit"]
        inputs = ["--spec", str(op["spec"]), "--cvrs", str(op["cvrs"]), "--state", str(d / "state.json")]

        m1 = d / "manifest1.csv"
        res = harness.command(
            "audit_init",
            [*audit, "init", *inputs, "--manifest", str(m1), "--seed", str(op["sample_seed"])],
            expect=0,
        )
        op["audit_init"] = res
        if not spec_made:
            res.failures.append("spec generation failed")
            return
        spec_doc = json.loads(op["spec"].read_text(encoding="utf-8"))
        res.failures += checks.spec_file(op["spec"], harness, res, emitted=False)
        res.failures += checks.oracle_margins(op["spec"], op["election"])
        if not res.ok:
            return
        draws1 = read_manifest(m1)
        res.failures += checks.audit_init_output(json.loads(res.stdout), draws1, d / "state.json", harness, res)
        weakest = max(spec_doc["assertions"], key=lambda e: e["eae"])
        needed = overstatements_to_escalate(weakest, spec_doc["metadata"], len(draws1))
        drawn = Counter(draws1)
        eligible = sorted(b for b in drawn if favours(weakest, op["cvr_rankings"][b]))
        op["misread_rng"].shuffle(eligible)
        misread, overstatements = set(), 0
        for ballot in eligible:
            if overstatements >= needed:
                break
            misread.add(ballot)
            overstatements += drawn[ballot]
        i1 = d / "interp1.csv"
        write_rankings_csv(i1, ((b, () if b in misread else op["cvr_rankings"][b]) for b in drawn))

        m2 = d / "manifest2.csv"
        res = harness.command(
            "audit_round",
            [*audit, "round", *inputs, "--manifest", str(m1), "--interpretations", str(i1), "--next-manifest", str(m2)],
            expect=5,
        )
        if not res.ok:
            return
        res.failures += checks.audit_round_output(json.loads(res.stdout), "escalate", d / "state.json", len(draws1), harness, res)
        if not m2.exists():
            res.failures.append("escalating round wrote no next manifest")
            return
        draws2 = read_manifest(m2)
        i2 = d / "interp2.csv"
        write_rankings_csv(i2, ((b, op["cvr_rankings"][b]) for b in dict.fromkeys(draws2)))
        res = harness.command(
            "audit_followup",
            [*audit, "round", *inputs, "--manifest", str(m2), "--interpretations", str(i2)],
            expect=0,
        )
        if res.ok:
            res.failures += checks.audit_round_output(
                json.loads(res.stdout), "confirmed", d / "state.json", len(draws1) + len(draws2), harness, res
            )

    def final(self, op: dict, harness) -> None:
        res = op["audit_init"]
        argv = generate_argv(op["election"], op["spec"], op["seed"])
        res.failures += checks.regenerates_identically(harness, argv, op["spec"])


WORKLOADS = {w.name: w for w in (IrvSearch(), IrvDiverse(), AuditRound())}
