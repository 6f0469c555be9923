"""Command-line interface: tabulate, generate, estimate, audit init/round.

Exit codes: 0 success/confirmed, 2 input error, 3 unsupported outcome
(no valid votes were cast, no plurality candidate reaches the threshold,
or instant runoff eliminates every candidate before one reaches it), 4
full manual count required, 5 audit escalation needed.  The audit sample
is the only randomness.  ``generate --seed`` sets only the spec's seed,
``audit init``'s default sampling seed; given none, ``generate`` draws
one and prints it.  That seed is known before the CVR file is fixed, so
a sound audit passes ``audit init --seed`` a seed drawn in public once
the spec and CVR file are published (README gives the order).
``estimate`` draws nothing, so it uses no seed and ignores ``--seed``.
With ``--format json`` every command writes deterministic JSON (same
inputs and seed give byte-identical output); timing goes to stderr.

``audit init`` recomputes every assertion's margin from the CVR tallies
before drawing and refuses a spec that states another, or a nonpositive
one; the spec stores no other assorter statistic.  ``model`` reads and
writes the audit state, and ``risk.replay_rounds`` replays it.  An
escalating round always writes the next manifest: to ``--next-manifest``,
or else beside ``--manifest`` as ``<stem>.next.csv``.  A round whose
suggested draws would take the audit past the contest's ballots (always,
when an unconfirmed margin is too small to move a float p-value) ends
with status ``requires-full-count``, exit 4 and no next manifest, as
``audit init`` does; it is still recorded: its papers are evidence too.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import math
import secrets
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

from . import model, risk, tabulation, viability
from .assertions import describe
from .model import STATUS_FULL_COUNT, AuditSpec, ElectionDataError, RiskParams, UnsupportedOutcomeError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_FULL_COUNT = 4
EXIT_ESCALATE = 5


def _risk_args(parser: argparse.ArgumentParser, seed_help: str = "PRNG seed (generated and printed if absent)") -> None:
    parser.add_argument("--alpha", type=float, default=RiskParams.alpha, help="risk limit (default %(default)s)")
    parser.add_argument("--gamma", type=float, default=RiskParams.gamma, help="inflation factor (default %(default)s)")
    parser.add_argument(
        "--error-rate",
        type=float,
        default=RiskParams.error_rate,
        help="assumed overstatement rate (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=None, help=seed_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamilton-rla",
        description="Tabulate and audit largest-remainder delegate elections",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("tabulate", help="compute the reported outcome")
    p_tab.add_argument("--election", required=True)
    p_tab.add_argument("--out", help="write the outcome JSON here")
    p_tab.set_defaults(run=cmd_tabulate)

    p_gen = sub.add_parser("generate", help="generate the audit assertion set")
    p_gen.add_argument("--election", required=True)
    p_gen.add_argument("--level", type=int, choices=(1, 2, 3), default=1)
    p_gen.add_argument("--out", help="audit spec path (default: <election>.levelN.spec.json)")
    p_gen.add_argument("--proof-log", help="write the proof log here")
    _risk_args(p_gen)
    p_gen.set_defaults(run=cmd_generate)

    p_est = sub.add_parser("estimate", help="estimate sample sizes for levels 1-3")
    p_est.add_argument("--election", required=True)
    _risk_args(p_est, seed_help="accepted but has no effect here: sample sizes involve no randomness")
    p_est.set_defaults(run=cmd_estimate)

    p_audit = sub.add_parser("audit", help="run comparison-audit rounds")
    audit_sub = p_audit.add_subparsers(dest="phase", required=True)
    p_init = audit_sub.add_parser("init", help="draw the first-round sample")
    p_init.add_argument("--spec", required=True)
    p_init.add_argument("--cvrs", required=True)
    p_init.add_argument("--manifest", required=True, help="manifest CSV to write")
    p_init.add_argument("--state", required=True, help="audit state file to create")
    p_init.add_argument("--seed", type=int, default=None, help="sampling seed (default: spec seed)")
    p_init.set_defaults(run=cmd_audit_init)
    p_round = audit_sub.add_parser("round", help="apply one round of manual interpretations")
    p_round.add_argument("--spec", required=True)
    p_round.add_argument("--cvrs", required=True)
    p_round.add_argument("--manifest", required=True, help="this round's manifest CSV")
    p_round.add_argument("--interpretations", required=True, help="manual interpretations CSV")
    p_round.add_argument("--state", required=True)
    p_round.add_argument(
        "--next-manifest", help="where to write the next manifest when escalating (default: <manifest>.next.csv)"
    )
    p_round.set_defaults(run=cmd_audit_round)
    return parser


def _params_from(args: argparse.Namespace, seeded: bool = True) -> RiskParams:
    """The risk parameters; unless ``seeded``, the default seed, with none
    drawn and ``--seed`` ignored."""
    seed = args.seed if seeded else RiskParams.seed
    if seed is None:
        seed = secrets.randbelow(2**63)
        print(f"seed: {seed} (generated)", file=sys.stderr)
    try:
        return RiskParams(alpha=args.alpha, gamma=args.gamma, error_rate=args.error_rate, seed=seed)
    except ValueError as exc:
        raise ElectionDataError(str(exc)) from None


def _emit(payload: dict, args: argparse.Namespace, lines: Callable[[], Iterable[str]]) -> None:
    if args.format == "json":
        sys.stdout.write(model.canonical_json(payload))
    else:
        print("\n".join(lines()))


def _fmt_asn(value: float) -> str:
    return "--" if math.isinf(value) else str(int(value))


def cmd_tabulate(args: argparse.Namespace) -> int:
    profile = model.load_election(args.election)
    outcome = tabulation.tabulate(profile)
    payload = model.outcome_to_dict(outcome)
    if args.out:
        model.write_json(payload, args.out)

    def lines() -> Iterable[str]:
        yield f"style: {outcome.style}  ballots: {outcome.total_ballots}  valid: {outcome.valid_ballots}"
        yield f"viable: {', '.join(sorted(outcome.viable))}"
        if outcome.elimination_order:
            yield f"eliminated (in order): {', '.join(outcome.elimination_order)}"
        for i, rnd in enumerate(outcome.rounds, start=1):
            piles = "  ".join(f"{c}={n} ({100 * n / outcome.valid_ballots:.3f}%)" for c, n in rnd.piles.items())
            suffix = f"; exhausted {rnd.exhausted}" if rnd.exhausted else ""
            out = f" -> out: {rnd.eliminated}" if rnd.eliminated else ""
            yield f"round {i}: {piles}{suffix}{out}"
        yield f"qualified votes: {outcome.qualified_total}"
        for c in sorted(outcome.viable):
            quota = float(outcome.quotas[c])
            yield f"  {c}: quota {quota:.3f} -> {outcome.allocation[c]} of {outcome.delegates} delegates"
        if outcome.tie_flag or outcome.viability_tie_warning:
            yield "warning: tie broken during tabulation; affected margins are zero"

    _emit(payload, args, lines)
    return EXIT_OK


def _spec_table(spec: AuditSpec) -> str:
    rows = [f"level {spec.level}  status {spec.status}  assertions {len(spec.entries)}"]
    for e in spec.entries:
        rows.append(f"  margin {float(e.margin):9.4f}  eae {_fmt_asn(e.eae):>6}  {describe(e.assertion)}")
    overall = risk.estimate_audit_asn(spec)
    rows.append(f"overall expected draws: {_fmt_asn(overall)}")
    return "\n".join(rows)


def cmd_generate(args: argparse.Namespace) -> int:
    profile = model.load_election(args.election)
    params = _params_from(args)
    outcome = tabulation.tabulate(profile)
    spec, log = viability.build_audit_spec(profile, outcome, args.level, params)
    out_path = args.out or f"{Path(args.election).with_suffix('')}.level{args.level}.spec.json"
    payload = model.save_audit_spec(spec, out_path)
    if args.proof_log:
        Path(args.proof_log).write_text("\n".join(log) + "\n", encoding="utf-8")
    payload["spec_path"] = str(out_path)
    _emit(payload, args, lambda: (_spec_table(spec), f"spec written to {out_path}"))
    if spec.status == STATUS_FULL_COUNT:
        print("full manual count required", file=sys.stderr)
        return EXIT_FULL_COUNT
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    profile = model.load_election(args.election)
    params = _params_from(args, seeded=False)
    started = time.perf_counter()
    outcome = tabulation.tabulate(profile)
    levels: dict[str, dict] = {}
    text = [f"candidates: {len(profile.labels)}  ballots: {profile.total_ballots}"]
    specs = [spec for spec, _ in viability.build_audit_specs(profile, outcome, (1, 2, 3), params).values()]
    for spec in specs:
        overall = risk.estimate_audit_asn(spec)
        levels[str(spec.level)] = {
            "status": spec.status,
            "assertions": len(spec.entries),
            "overall_asn": None if math.isinf(overall) else int(overall),
            "per_assertion": [
                {
                    "assertion": describe(e.assertion),
                    "margin": float(e.margin),
                    "asn": None if math.isinf(e.eae) else int(e.eae),
                }
                for e in spec.entries
            ],
        }
        text.append(f"level {spec.level}: ASN {_fmt_asn(overall)} ({len(spec.entries)} assertions, {spec.status})")
    elapsed = time.perf_counter() - started
    print(f"generation time: {elapsed:.3f}s", file=sys.stderr)
    payload = {
        "candidates": len(profile.labels),
        "ballots": profile.total_ballots,
        "levels": levels,
    }
    _emit(payload, args, lambda: text)
    return EXIT_FULL_COUNT if any(spec.status == STATUS_FULL_COUNT for spec in specs) else EXIT_OK


# The input files an audit is bound to: the state field holding each one's
# SHA-256 and the option that names it.
_BOUND_INPUTS = (("spec_sha256", "spec"), ("cvrs_sha256", "cvrs"))


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_contest_cvrs(
    path: str, spec: AuditSpec, cells: dict[str, model.Ranking] | None = None
) -> dict[str, model.Ranking]:
    """The CVR file, which must hold one record per ballot of the contest:
    ballots missing from it could never be drawn.  ``cells`` is
    ``load_cvrs``'s cache of parsed ranking cells."""
    cvrs = model.load_cvrs(path, cells)
    if not cvrs:
        raise ElectionDataError(f"CVR file {path} holds no records, so there is nothing to audit")
    if len(cvrs) != spec.total_ballots:
        raise ElectionDataError(
            f"CVR file {path} holds {len(cvrs)} records but the contest has {spec.total_ballots} ballots"
        )
    return cvrs


def _check_margins(spec: AuditSpec, cvrs: dict[str, model.Ranking], path: str) -> None:
    """Each assertion's margin must be the one the CVRs give, and positive:
    rounds score with the spec's margin, so an overstated one would demand
    less evidence, and CVRs that tabulate to another outcome would be
    audited against one they do not report."""
    rankings = Counter(cvrs.values())
    labels = {c for ranking in rankings for c in ranking}
    labels.update(c for e in spec.entries for c in e.assertion.points if c is not None)
    # threshold, delegates and style do not enter an assorter's margin
    ctx = viability.AuditContext(model.build_profile(sorted(labels), rankings.items(), 1, 1, model.IRV))
    for e in spec.entries:
        margin = ctx.exact_margin(e.assertion)
        if margin <= 0 or margin != e.margin:
            raise ElectionDataError(
                f"CVR file {path} gives {describe(e.assertion)} margin {margin}, but the spec states {e.margin}"
            )


def cmd_audit_init(args: argparse.Namespace) -> int:
    spec = model.load_audit_spec(args.spec)
    cvrs = _load_contest_cvrs(args.cvrs, spec)
    if spec.status == STATUS_FULL_COUNT:
        print("spec requires a full manual count; nothing to sample", file=sys.stderr)
        return EXIT_FULL_COUNT
    size = risk.estimate_audit_asn(spec)
    if size > spec.total_ballots:  # infinite, or an edited eae: more draws than a full count
        print("expected sample size exceeds the ballot universe; full count", file=sys.stderr)
        return EXIT_FULL_COUNT
    if size < 1:  # no assertions, or every eae 0: a round needs at least one draw
        raise ElectionDataError(f"audit spec {args.spec} asks for no draws, so there is nothing to audit")
    _check_margins(spec, cvrs, args.cvrs)
    seed = args.seed if args.seed is not None else spec.params.seed
    draws = list(islice(risk.sample_stream(seed, list(cvrs)), int(size)))
    risk.write_manifest(draws, args.manifest)
    digests = {field: _sha256(getattr(args, option)) for field, option in _BOUND_INPUTS}
    model.save_audit_state(model.new_audit_state(seed, spec.params, **digests), args.state, assertions={})
    payload = {"manifest": args.manifest, "draws": len(draws), "seed": seed, "state": args.state}
    _emit(payload, args, lambda: [f"first-round manifest: {len(draws)} draws -> {args.manifest} (seed {seed})"])
    return EXIT_OK


def cmd_audit_round(args: argparse.Namespace) -> int:
    spec = model.load_audit_spec(args.spec)
    for e in spec.entries:  # rounds score with the stated margins, which must be positive
        if e.margin <= 0:
            raise ElectionDataError(f"audit spec {args.spec} states {describe(e.assertion)} margin {e.margin}, not positive")
    cells: dict[str, model.Ranking] = {}  # every ranking cell the round reads, each parsed once
    cvrs = _load_contest_cvrs(args.cvrs, spec, cells)
    manifest = risk.read_manifest(args.manifest)
    interpretations = model.load_cvrs(args.interpretations, cells)
    state = model.load_audit_state(args.state)
    for field, option in _BOUND_INPUTS:
        path = getattr(args, option)
        if _sha256(path) != state[field]:
            raise ElectionDataError(
                f"--{option} {path} is not the file this audit was initialised with (SHA-256 differs)"
            )
    for name in ("alpha", "gamma"):  # copied from the spec by audit init
        expected = getattr(spec.params, name)
        if state.get(name) != expected:
            raise ElectionDataError(f"audit state {args.state}: {name!r} is not the spec's {expected}")
    if not manifest:
        raise ElectionDataError(f"manifest {args.manifest} lists no draws")
    pairs, sample = risk.replay_rounds(state["seed"], cvrs, state["rounds"], cells, f"audit state {args.state}",
                                       (f"manifest {args.manifest}", manifest, interpretations))
    assertions = [(e.assertion, float(e.margin)) for e in spec.entries]
    states, status, suggestion = risk.run_audit_round(
        assertions, pairs, spec.params.alpha, spec.params.gamma, spec.total_ballots
    )
    state["rounds"].append(model.state_round(manifest, interpretations))
    total = sum(pairs.values())

    per_assertion = {
        key: {"margin": s.margin, "p_value": s.p_value, "draws": s.draws, "discrepancies": s.discrepancies}
        for key, s in states.items()
    }
    payload = {
        "status": status,
        "total_draws": total,
        "suggested_additional_draws": int(suggestion) if status == "escalate" else None,
        "assertions": per_assertion,
    }
    if status == "escalate":  # without the next manifest, no command could draw the suggested ballots
        following = args.next_manifest or f"{Path(args.manifest).with_suffix('')}.next.csv"
        risk.write_manifest(list(islice(sample, int(suggestion))), following)
        payload["next_manifest"] = following
    # saved last, so a failed write above leaves the audit where it was
    model.save_audit_state(state, args.state, per_assertion)

    def lines() -> Iterable[str]:
        yield f"status: {status}  cumulative draws: {total}"
        for e in spec.entries:
            s = per_assertion[e.assertion.key]
            yield f"  p={s['p_value']:.6f} draws={s['draws']}  {describe(e.assertion)}"
        if status == "escalate":
            yield f"suggested additional draws: {int(suggestion)}"
            yield f"next manifest -> {payload['next_manifest']}"

    _emit(payload, args, lines)
    if status == STATUS_FULL_COUNT:
        print("confirming every assertion needs more draws than the contest has ballots; full manual count required",
              file=sys.stderr)
        return EXIT_FULL_COUNT
    return EXIT_OK if status == "confirmed" else EXIT_ESCALATE


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The cyclic garbage collector is paused while the command runs and
    left as the caller had it on every way out.  A command's data (the
    parsed input, the profile, the search's set states, which link only to
    the states their steps reach) holds no reference cycles, so reference
    counting frees it without the collector; its passes, set off by the
    many objects a load allocates, would only rescan live data.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ElectionDataError, OSError) as exc:  # loaders report read errors, so an OSError is an output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedOutcomeError as exc:
        print(f"unsupported outcome: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
