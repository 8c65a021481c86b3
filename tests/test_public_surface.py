"""The package's public names, pinned: adding or removing an export is a
deliberate change to this list."""

from __future__ import annotations

import goldsub

PUBLIC = [
    "BISECT", "Branch", "BudgetExceededError", "CHECK_ORDER", "CORRUPT_CHECKS",
    "C_BISECT", "C_RAND", "CertificateReport", "CertificationError",
    "CheckResult", "DESCENT", "GcqReport", "GoldsteinCertificate",
    "GoldsubError", "HOLDS", "HullEstimate", "InfeasibleStartError",
    "InnerResult", "ModulusError", "OBJECTIVE", "Oracle", "OracleError",
    "ProblemRecord", "ProblemSpec", "RAND", "RayRestriction",
    "ReducedConstraint", "STATIONARY", "SolveTrace", "SolverConfig",
    "Subproblem", "UsageError", "VIOLATED", "Vector", "WeightedSubgradient",
    "__version__", "ball_linear_sigma", "bisect_call_budget",
    "bisect_negative_slope", "bisect_search", "certificate_data",
    "certificate_from_data", "certify", "check_certificate", "check_gcq",
    "config_from_data", "constant_constraint", "dumps", "get_problem",
    "goldstein_estimate", "list_problems", "manifest_data",
    "min_norm_over_hull", "rand_call_budget", "rand_search", "read_json",
    "sample_ball", "segment_projection_coefficient", "solve", "trace_data",
    "trace_from_data", "write_json",
]


def test_public_names_are_pinned():
    assert sorted(goldsub.__all__) == PUBLIC
    assert len(set(goldsub.__all__)) == len(goldsub.__all__)


def test_every_public_name_resolves():
    assert all(hasattr(goldsub, name) for name in goldsub.__all__)
