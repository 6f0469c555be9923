"""Output checks for benchmark commands.

They test properties the paper's guarantees imply rather than pinned
numbers, so a change that legitimately moves margins or sample sizes still
passes: a complete spec whose every assertion is true on the ballots, a
spec file that survives load/save unchanged, deterministic regeneration,
and audit state consistent with the manifests drawn so far.  Each returns
a list of failure messages; an empty list means the output is correct.
"""
from __future__ import annotations

import json
from pathlib import Path

from hamilton_rla import assertions, model


def spec_file(spec_path: Path, harness, res, emitted: bool = True) -> list[str]:
    """Status complete and an unchanged load/save round trip.  ``emitted``:
    the command wrote this spec, so it counts toward the op's output size."""
    failures = []
    harness.digest(res, spec_path)
    res.info["spec_bytes"] += spec_path.stat().st_size
    spec = model.load_audit_spec(spec_path)
    if spec.status != model.STATUS_COMPLETE:
        failures.append(f"spec status {spec.status!r}")
    resaved = spec_path.with_name(spec_path.stem + ".resaved.json")
    model.save_audit_spec(spec, resaved)
    if resaved.read_bytes() != spec_path.read_bytes():
        failures.append("spec changes under load_audit_spec/save_audit_spec")
    resaved.unlink()
    if emitted:
        res.info["assertions_emitted"] += len(spec.entries)
        res.info["expected_draws"] += max(e.eae for e in spec.entries) if spec.entries else 0
    return failures


def oracle_margins(spec_path: Path, election_path: Path, sample=None) -> list[str]:
    """A positive margin for every assertion under the per-ballot scoring
    oracle ``assertions.margin``, which shares nothing with the tallies the
    generator uses.  ``sample`` is ``(rng, k)``: score k seeded assertions."""
    entries = list(model.load_audit_spec(spec_path).entries)
    if sample is not None:
        rng, k = sample
        entries = rng.sample(entries, min(k, len(entries)))
    profile = model.load_election(election_path)
    false = [e for e in entries if assertions.margin(e.assertion, profile).margin <= 0]
    if not false:
        return []
    return [f"{len(false)} assertions have nonpositive oracle margin, e.g. {assertions.describe(false[0].assertion)}"]


def regenerates_identically(harness, argv: list[str], spec_path: Path) -> list[str]:
    """Generating the same input with the same seed again gives the same bytes."""
    again = spec_path.with_name(spec_path.stem + ".again.json")
    rc = harness.untimed([str(again) if arg == str(spec_path) else arg for arg in argv])
    same = rc == 0 and again.read_bytes() == spec_path.read_bytes()
    again.unlink(missing_ok=True)
    return [] if same else ["regenerating the spec gave different bytes"]


def estimate_output(payload: dict, spec_entries: int, res) -> list[str]:
    failures = []
    levels = payload["levels"]
    for level in ("1", "2", "3"):
        info = levels[level]
        if info["status"] != model.STATUS_COMPLETE or info["overall_asn"] is None:
            failures.append(f"estimate level {level}: status {info['status']}, ASN {info['overall_asn']}")
            continue
        res.info["assertions_emitted"] += info["assertions"]
        res.info["expected_draws"] += info["overall_asn"]
    if levels["3"]["assertions"] != spec_entries:
        failures.append(f"estimate level 3 has {levels['3']['assertions']} assertions, generate {spec_entries}")
    return failures


def _state(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["state"]


def audit_init_output(payload: dict, draws: list[str], state_path: Path, harness, res) -> list[str]:
    failures = []
    harness.digest(res, state_path)
    if not draws or payload["draws"] != len(draws):
        failures.append(f"init reported {payload['draws']} draws, manifest has {len(draws)}")
    if _state(state_path)["total_draws"] != 0:
        failures.append("fresh audit state already counts draws")
    res.info["expected_draws"] += payload["draws"]
    return failures


def audit_round_output(payload: dict, status: str, state_path: Path, cumulative: int, harness, res) -> list[str]:
    """Expected status; p-values in [0, 1]; every assertion has seen every drawn ballot."""
    failures = []
    harness.digest(res, state_path)
    if payload["status"] != status:
        failures.append(f"round status {payload['status']!r}, expected {status!r}")
    state = _state(state_path)
    if state["total_draws"] != cumulative:
        failures.append(f"state counts {state['total_draws']} draws, manifests hold {cumulative}")
    for key, a in state["assertions"].items():
        if not 0.0 <= a["p_value"] <= 1.0 or a["draws"] != cumulative:
            failures.append(f"{key}: p-value {a['p_value']}, draws {a['draws']} of {cumulative}")
            break
    return failures
