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

from .core import Branch, Oracle, ProblemSpec, WeightedSubgradient
from .errors import (BudgetExceededError, CertificationError, GoldsubError,
                     InfeasibleStartError, ModulusError, OracleError,
                     UsageError)
from .problems import ProblemRecord, constant_constraint, get_problem, list_problems
from .serialize import (certificate_data, certificate_from_data,
                        config_from_data, dumps, manifest_data, read_json,
                        trace_data, write_json)
from .solver import BISECT, RAND, SolveTrace, SolverConfig, solve
from .verify import (CertificateReport, CheckResult, GoldsteinCertificate,
                     check_certificate)

__version__ = "0.1.0"

# the supported surface: what the CLI and the README use, the types they
# return, and constant_constraint, which ProblemSpec's error message names;
# lower layers are importable from their modules
__all__ = [
    "Branch", "Oracle", "ProblemSpec", "WeightedSubgradient",
    "BudgetExceededError", "CertificationError", "GoldsubError",
    "InfeasibleStartError", "ModulusError", "OracleError", "UsageError",
    "ProblemRecord", "constant_constraint", "get_problem", "list_problems",
    "certificate_data", "certificate_from_data", "config_from_data", "dumps",
    "manifest_data", "read_json", "trace_data", "write_json",
    "BISECT", "RAND", "SolveTrace", "SolverConfig", "solve",
    "CertificateReport", "CheckResult", "GoldsteinCertificate",
    "check_certificate",
    "__version__",
]
