"""The benchmark's workload generators make the inputs they claim to, and the
tracer sees calls made through every binding of a wrapped function."""
import pytest

from hamilton_rla import RiskParams, model, tabulate
from hamilton_rla.viability import build_audit_spec

import run
import tracer
from workloads import WORKLOADS

DEFAULT_SEED = 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    op = workload.prepare(DEFAULT_SEED, 0, tmp_path)
    profile = model.load_election(op["election"])
    assert len(profile.labels) == workload.candidates
    assert len(profile.rankings) == workload.distinct_rankings
    spec, _ = build_audit_spec(profile, tabulate(profile), 3, RiskParams(seed=op["seed"]))
    assert spec.status == model.STATUS_COMPLETE


def test_ops_get_distinct_inputs(tmp_path):
    workload = WORKLOADS["irv-diverse"]
    first = workload.prepare(DEFAULT_SEED, 0, tmp_path)["election"].read_bytes()
    second = workload.prepare(DEFAULT_SEED, 1, tmp_path)["election"].read_bytes()
    again = workload.prepare(DEFAULT_SEED, 0, tmp_path)["election"].read_bytes()
    assert first != second
    assert first == again


def test_tracer_counts_calls_through_imported_bindings():
    modules = run.import_program()
    profile = model.build_profile(
        ["a", "b", "c", "d"],
        [(["a"], 40), (["b", "c"], 25), (["c", "d"], 20), (["d", "b"], 15)],
        "3/20",
        4,
        "irv",
    )
    outcome = tabulate(profile)
    t = tracer.Tracer()
    t.install(modules, {})
    try:
        with t.active():
            build_audit_spec(profile, outcome, 3, RiskParams(seed=1))
    finally:
        t.uninstall()
    assert t.calls["viability->count_piles"] > 0
    assert t.calls["tabulation.count_piles"] >= t.calls["viability->count_piles"]
    assert t.calls["risk.estimate_asn"] > 0
    assert t.self_s["viability.build_audit_spec"] >= 0
    assert len(t.span_name) == sum(n for k, n in t.calls.items() if k not in tracer.COUNT_ONLY and "->" not in k)
    assert modules["viability"].count_piles.__name__ == "count_piles"
    assert not hasattr(modules["viability"].count_piles, "__wrapped__")
