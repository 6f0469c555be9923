"""The package's public surface is the README's: its "Library use" code block
runs as written, and ``hamilton_rla`` exports exactly the documented API,
so neither can drift from the other nor the surface grow back unnoticed."""
import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import hamilton_rla

README = Path(__file__).resolve().parents[1] / "README.md"

# the README's library names, the file formats' loaders and savers with the
# types they return, the two error types and the four assertion forms
PUBLIC = {
    "build_profile", "tabulate", "build_audit_spec", "build_audit_specs", "RiskParams", "estimate_audit_asn",
    "load_election", "ElectionProfile", "ReportedOutcome", "load_cvrs",
    "load_audit_spec", "save_audit_spec", "AuditSpec", "SpecEntry", "read_manifest", "write_manifest",
    "ElectionDataError", "UnsupportedOutcomeError",
    "Viable", "NonViable", "IrvWins", "PairwiseDiff",
}


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs_verbatim():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_use_block(), str(README), "exec"), {})
    assert out.getvalue().startswith("{'Ann': 4, 'Bob': 1} ")


def test_package_exports_exactly_the_documented_api():
    exported = {name for name, value in vars(hamilton_rla).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == PUBLIC
