"""Tabulation and risk-limiting audits for largest-remainder delegate elections."""

from .assertions import (
    Assertion,
    AssorterSummary,
    IrvWins,
    NonViable,
    PairwiseDiff,
    Viable,
    assertion_key,
    assorter_value,
    holds_on,
    margin,
)
from .delegates import (
    DelegateAssertionSet,
    find_violated_assertion,
    gen_delegate_assertions,
)
from .model import (
    IRV,
    PLURALITY,
    STATUS_COMPLETE,
    STATUS_FULL_COUNT,
    AuditSpec,
    CvrRecord,
    ElectionDataError,
    ElectionProfile,
    ReportedOutcome,
    SpecEntry,
    UnsupportedOutcomeError,
    build_profile,
    load_audit_spec,
    load_cvrs,
    load_election,
    save_audit_spec,
)
from .risk import (
    FULL_COUNT,
    CannotAuditError,
    RiskParams,
    RiskState,
    discrepancy,
    draw_sample,
    estimate_asn,
    estimate_audit_asn,
    run_audit_round,
    step_factor,
)
from .tabulation import (
    AllocationResult,
    ViabilityResult,
    hamilton_allocate,
    irv_viability,
    plurality_viability,
    tabulate,
    top_remaining,
)
from .viability import (
    AltOutcomeNode,
    AuditContext,
    best_root_assertion,
    branch_and_bound,
    build_audit_spec,
    build_audit_specs,
    compute_W_L,
    enumerate_alt_sets,
    expand_node,
    gen_plurality_viability,
    max_viable,
)

__version__ = "0.1.0"
