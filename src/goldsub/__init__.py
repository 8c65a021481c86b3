"""Feasible descent for Lipschitz objectives under Lipschitz inequality
constraints, with machine-checkable Goldstein Fritz-John / KKT stationarity
certificates.

The library minimizes f subject to g_i <= 0 where f and the g_i are only
assumed Lipschitz near the feasible region.  Progress comes from the
anchored subproblem h_x(z) = max{f(z) - f(x), g(z)}: an inner search (one
randomized, one deterministic) either finds a small convex combination of
ball subgradients, certifying approximate stationarity, or a descent step
that provably lowers f while keeping the iterate strictly feasible.
"""

from .core import (OBJECTIVE, Branch, Oracle, ProblemSpec, ReducedConstraint,
                   Subproblem, Vector, WeightedSubgradient, sample_ball,
                   segment_projection_coefficient)
from .errors import (BudgetExceededError, CertificationError, GoldsubError,
                     InfeasibleStartError, ModulusError, OracleError,
                     UsageError)
from .inner_bisect import (C_BISECT, RayRestriction, bisect_call_budget,
                           bisect_negative_slope, bisect_search)
from .inner_rand import (C_RAND, DESCENT, STATIONARY, InnerResult,
                         rand_call_budget, rand_search)
from .problems import (ProblemRecord, ball_linear_sigma, constant_constraint,
                       get_problem, list_problems)
from .serialize import (certificate_data, certificate_from_data,
                        config_from_data, dumps, manifest_data, read_json,
                        trace_data, trace_from_data, write_json)
from .solver import BISECT, RAND, SolveTrace, SolverConfig, certify, solve
from .verify import (CHECK_ORDER, CORRUPT_CHECKS, HOLDS, VIOLATED,
                     CertificateReport, CheckResult, GcqReport,
                     GoldsteinCertificate, HullEstimate, check_certificate,
                     check_gcq, goldstein_estimate, min_norm_over_hull)

__version__ = "0.1.0"

__all__ = [
    "OBJECTIVE", "Branch", "Oracle", "ProblemSpec", "ReducedConstraint",
    "Subproblem", "Vector", "WeightedSubgradient", "sample_ball",
    "segment_projection_coefficient",
    "BudgetExceededError", "CertificationError", "GoldsubError",
    "InfeasibleStartError", "ModulusError", "OracleError", "UsageError",
    "C_BISECT", "RayRestriction", "bisect_call_budget", "bisect_negative_slope",
    "bisect_search",
    "C_RAND", "DESCENT", "STATIONARY", "InnerResult", "rand_call_budget",
    "rand_search",
    "ProblemRecord", "ball_linear_sigma", "constant_constraint", "get_problem",
    "list_problems",
    "certificate_data", "certificate_from_data", "config_from_data", "dumps",
    "manifest_data", "read_json", "trace_data", "trace_from_data", "write_json",
    "BISECT", "RAND", "SolveTrace", "SolverConfig", "certify", "solve",
    "CHECK_ORDER", "CORRUPT_CHECKS", "HOLDS", "VIOLATED", "CertificateReport",
    "CheckResult", "GcqReport", "GoldsteinCertificate", "HullEstimate",
    "check_certificate",
    "check_gcq", "goldstein_estimate", "min_norm_over_hull",
    "__version__",
]
