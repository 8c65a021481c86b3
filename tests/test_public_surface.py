"""The package's public names, its solve knobs and its certificate, pinned:
adding or removing an export, a SolverConfig field, a solve option, a
parameter of a solve step, a certificate field or a verify check is a
deliberate change to these lists."""

from __future__ import annotations

import dataclasses
import inspect

import goldsub
from goldsub.cli import build_parser
from goldsub.inner_bisect import bisect_search
from goldsub.inner_rand import rand_search
from goldsub.serialize import _REQUIRED_CONFIG_KEYS
from goldsub.solver import certify
from goldsub.verify import CHECK_ORDER

PUBLIC = [
    "BISECT", "BudgetExceededError", "CertificateReport",
    "CertificationError", "CheckResult", "GoldsteinCertificate",
    "GoldsubError", "InfeasibleStartError", "ModulusError", "Oracle",
    "OracleError", "ProblemRecord", "ProblemSpec", "RAND", "SolveTrace",
    "SolverConfig", "UsageError", "WeightedSubgradient", "__version__",
    "certificate_data", "certificate_from_data", "check_certificate",
    "config_from_data", "constant_constraint", "dumps", "get_problem",
    "list_problems", "manifest_data", "read_json", "solve", "trace_data",
    "write_json",
]


# SolverConfig's fields, in order; the first two have no default
CONFIG_FIELDS = [
    "delta", "target_eps", "inner", "kkt_mode", "gcq_sigma", "tau", "seed",
    "outer_cap", "inner_call_cap",
]

# GoldsteinCertificate's fields, in order; the last five have a default
CERTIFICATE_FIELDS = [
    "anchor", "zeta", "zeta_norm", "combination", "gamma0", "gamma", "lam",
    "eps_effective", "delta", "f_anchor", "g_anchor", "kkt_eps", "kkt_eta",
    "kkt_lambda_bound", "gcq_sigma", "warnings",
]

# the checks of `goldsub verify`, in the order they run
CHECKS = [
    "weights-nonnegative", "weights-sum", "points-in-ball", "vector-recompute",
    "zeta-recompute", "zeta-norm-bound", "multiplier-split", "anchor-feasible",
    "complementary-slackness", "stationarity-estimate", "claims-recompute",
]

# the dests of `goldsub solve`'s options, plus the subcommand's own two
SOLVE_DESTS = [
    "command", "config", "delta", "func", "gcq_sigma", "inner",
    "inner_call_cap", "kkt_mode", "out_dir", "outer_cap", "param", "problem",
    "seed", "tag", "target_eps", "tau", "x0",
]

# each solve step's parameters, in order, with the ones that have a default
SOLVE_STEPS = [
    (rand_search, ["anchor", "problem", "delta", "eps", "rng", "call_cap",
                   "anchor_values"], ["anchor_values"]),
    (bisect_search, ["anchor", "problem", "delta", "eps", "call_cap",
                     "anchor_values"], ["anchor_values"]),
    (certify, ["anchor", "combination", "problem", "config", "zeta",
               "anchor_values"], []),
]


def test_public_names_are_pinned():
    assert sorted(goldsub.__all__) == PUBLIC
    assert len(set(goldsub.__all__)) == len(goldsub.__all__)


def test_every_public_name_resolves():
    assert all(hasattr(goldsub, name) for name in goldsub.__all__)


def test_solver_config_fields_are_pinned():
    fields = dataclasses.fields(goldsub.SolverConfig)
    assert [f.name for f in fields] == CONFIG_FIELDS
    assert [f.name for f in fields if f.default is dataclasses.MISSING] \
        == list(_REQUIRED_CONFIG_KEYS)


def test_certificate_fields_are_pinned():
    fields = dataclasses.fields(goldsub.GoldsteinCertificate)
    assert [f.name for f in fields] == CERTIFICATE_FIELDS
    assert [f.name for f in fields if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING] == CERTIFICATE_FIELDS[:-5]


def test_verify_checks_are_pinned():
    assert list(CHECK_ORDER) == CHECKS


def test_solve_options_are_pinned():
    assert sorted(vars(build_parser().parse_args(["solve"]))) == SOLVE_DESTS


def test_solve_step_signatures_are_pinned():
    for step, names, defaulted in SOLVE_STEPS:
        params = inspect.signature(step).parameters.values()
        assert [p.name for p in params] == names, step.__name__
        assert [p.name for p in params
                if p.default is not inspect.Parameter.empty] == defaulted, \
            step.__name__
