"""The package's public names, pinned: adding or removing an export is a
deliberate change to this list."""

from __future__ import annotations

import goldsub

PUBLIC = [
    "BISECT", "Branch", "BudgetExceededError", "CertificateReport",
    "CertificationError", "CheckResult", "GoldsteinCertificate",
    "GoldsubError", "InfeasibleStartError", "ModulusError", "Oracle",
    "OracleError", "ProblemRecord", "ProblemSpec", "RAND", "SolveTrace",
    "SolverConfig", "UsageError", "WeightedSubgradient", "__version__",
    "certificate_data", "certificate_from_data", "check_certificate",
    "config_from_data", "constant_constraint", "dumps", "get_problem",
    "list_problems", "manifest_data", "read_json", "solve", "trace_data",
    "write_json",
]


def test_public_names_are_pinned():
    assert sorted(goldsub.__all__) == PUBLIC
    assert len(set(goldsub.__all__)) == len(goldsub.__all__)


def test_every_public_name_resolves():
    assert all(hasattr(goldsub, name) for name in goldsub.__all__)
