"""Tabulation and risk-limiting audits for largest-remainder delegate elections.

The package exports the library API: building or loading a contest,
tabulating it, generating and saving its audit specification, and the file
formats' loaders and savers.  Internals are imported from their modules.
"""

from .assertions import IrvWins, NonViable, PairwiseDiff, Viable
from .model import (
    AuditSpec,
    ElectionDataError,
    ElectionProfile,
    ReportedOutcome,
    RiskParams,
    SpecEntry,
    UnsupportedOutcomeError,
    build_profile,
    load_audit_spec,
    load_cvrs,
    load_election,
    save_audit_spec,
)
from .risk import estimate_audit_asn, read_manifest, write_manifest
from .tabulation import tabulate
from .viability import build_audit_spec, build_audit_specs

__version__ = "0.1.0"
