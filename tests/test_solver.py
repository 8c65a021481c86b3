"""Outer descent loop and certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from goldsub import inner_rand, verify
from goldsub.core import OBJECTIVE, Branch, Oracle, ProblemSpec, WeightedSubgradient
from goldsub.errors import (
    BudgetExceededError,
    CertificationError,
    InfeasibleStartError,
    OracleError,
    UsageError,
)
from goldsub.inner_rand import rand_call_budget
from goldsub.problems import ball_linear_sigma, constant_constraint, get_problem
from goldsub.serialize import certificate_data, dumps, trace_data
from goldsub.solver import (
    BISECT,
    RAND,
    SolverConfig,
    SolveTrace,
    certify,
    solve,
)

BALL = get_problem("ball-linear")


def unit_combo(vector, branch=OBJECTIVE, point=None):
    point = np.zeros(2) if point is None else np.asarray(point, dtype=float)
    return [WeightedSubgradient(point=point, vector=np.asarray(vector, dtype=float),
                                branch=branch, weight=1.0)]


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(UsageError):
        SolverConfig(delta=0.0, target_eps=0.1)
    with pytest.raises(UsageError):
        SolverConfig(delta=0.1, target_eps=0.1, inner="newton")
    with pytest.raises(UsageError):
        SolverConfig(delta=0.1, target_eps=0.1, kkt_mode=True)
    with pytest.raises(UsageError):
        SolverConfig(delta=0.1, target_eps=0.1, tau=0.0)
    with pytest.raises(UsageError):
        SolverConfig(delta=0.1, target_eps=0.1, tau=1.0)
    with pytest.raises(UsageError):
        SolverConfig(delta=0.1, target_eps=0.1, outer_cap=0)
    # the deterministic inner search does not consume tau
    SolverConfig(delta=0.1, target_eps=0.1, inner=BISECT, tau=1.0)


def test_eps_effective_kkt_formula():
    config = SolverConfig(delta=0.1, target_eps=0.1, kkt_mode=True,
                          gcq_sigma=0.5)
    assert config.eps_effective(1.0) == 0.5 * 0.1 / (0.1 + 0.5 + 1.0)
    assert config.eps_effective(1.0) == 0.03125
    plain = SolverConfig(delta=0.1, target_eps=0.1)
    assert plain.eps_effective(1.0) == 0.1


# ----------------------------------------------------------------- certify


def test_certify_fritz_john_eta_bound():
    config = SolverConfig(delta=0.1, target_eps=1.5)
    cert = certify(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec, config)
    assert cert.fj_eta_bound == 3.0 * 1.0 * 0.1
    assert cert.gamma0 == 1.0
    assert cert.lam == 0.0
    assert cert.kkt_eps is None


def test_certify_kkt_fields():
    config = SolverConfig(delta=0.1, target_eps=0.1, kkt_mode=True,
                          gcq_sigma=0.5)
    eps_t = config.eps_effective(1.0)
    cert = certify(np.zeros(2), unit_combo([0.02, 0.0]), BALL.spec, config)
    factor = (0.5 + 1.0) / (0.5 - eps_t)
    assert factor == pytest.approx(3.2)
    assert cert.kkt_eps == pytest.approx(eps_t * factor)
    assert cert.kkt_eps == pytest.approx(0.1)
    assert cert.kkt_eta == pytest.approx(3.0 * 1.0 * 0.1 * factor)
    assert cert.kkt_lambda_bound == pytest.approx(factor - 1.0)
    assert cert.gcq_sigma == 0.5
    assert cert.eps_effective == eps_t


def test_certify_kkt_without_objective_mass_warns():
    config = SolverConfig(delta=0.05, target_eps=0.1, kkt_mode=True,
                          gcq_sigma=0.5)
    anchor = np.array([-1.0, 0.0])
    combo = [
        WeightedSubgradient(point=anchor, vector=np.array([1.0, 0.0]),
                            branch=Branch.constraint(1), weight=0.5),
        WeightedSubgradient(point=anchor, vector=np.array([-1.0, 0.0]),
                            branch=Branch.constraint(1), weight=0.5),
    ]
    with pytest.warns(UserWarning, match="Fritz-John"):
        cert = certify(anchor, combo, BALL.spec, config)
    assert cert.lam is None
    assert cert.kkt_eps is None
    assert cert.warnings


def test_certify_rejects_broken_combinations():
    config = SolverConfig(delta=0.1, target_eps=1.5)
    with pytest.raises(CertificationError, match="weights-nonnegative"):
        certify(np.zeros(2), [], BALL.spec, config)
    bad_weight = unit_combo([1.0, 0.0])
    bad_weight[0] = WeightedSubgradient(np.zeros(2), np.array([1.0, 0.0]),
                                        OBJECTIVE, -0.2)
    with pytest.raises(CertificationError, match="negative"):
        certify(np.zeros(2), bad_weight, BALL.spec, config)
    off_simplex = unit_combo([1.0, 0.0])
    off_simplex[0] = WeightedSubgradient(np.zeros(2), np.array([1.0, 0.0]),
                                         OBJECTIVE, 0.9)
    with pytest.raises(CertificationError, match="sum"):
        certify(np.zeros(2), off_simplex, BALL.spec, config)
    with pytest.raises(CertificationError, match="zeta-recompute"):
        certify(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec, config,
                zeta=np.array([0.5, 0.0]))
    with pytest.raises(CertificationError, match="zeta-norm-bound"):
        certify(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec,
                SolverConfig(delta=0.1, target_eps=0.5))
    far = unit_combo([1.0, 0.0], point=[0.5, 0.0])
    with pytest.raises(CertificationError, match="distance"):
        certify(np.zeros(2), far, BALL.spec, config)
    with pytest.raises(CertificationError, match="anchor-feasible"):
        certify(np.array([1.5, 0.0]), unit_combo([1.0, 0.0], point=[1.5, 0.0]),
                BALL.spec, config)


# ------------------------------------------------------------------- solve


def solve_ball(seed=0, inner=RAND, delta=0.05, eps=0.05, **kw):
    config = SolverConfig(delta=delta, target_eps=eps, inner=inner, seed=seed,
                          **kw)
    return solve(BALL.spec, config, BALL.start)


def test_solve_descends_to_the_constrained_minimum():
    cert, trace = solve_ball(seed=0)
    c = 0.25
    bar = c * 0.05 * 0.05
    records = trace.records
    assert records[0]["x"] == [0.0, 0.0]
    assert records[-1]["inner_outcome"] == "stationary"
    for before, after in zip(records, records[1:]):
        assert before["inner_outcome"] == "descent"
        assert before["f"] - after["f"] >= bar - 1e-12
        assert after["g"] <= -bar + 1e-12
        dx = np.array(after["x"]) - np.array(before["x"])
        assert float(np.linalg.norm(dx)) == pytest.approx(0.05, abs=1e-12)
    assert cert.zeta_norm <= 0.05
    assert float(np.linalg.norm(cert.anchor - np.array([-1.0, 0.0]))) <= 0.2
    assert cert.lam is not None and 0.5 <= cert.lam <= 2.0
    assert trace.outer_steps == len(records) - 1
    assert trace.outer_steps <= trace.lemma_bound
    assert trace.oracle_calls == sum(r["inner_oracle_calls"] for r in records)
    assert trace.value_calls == 1 + sum(r["inner_value_calls"] for r in records)


def test_lemma_bound_value():
    # gap (f(x0) - p_star) = 1, C = 1/4, delta = eps = 0.1 -> 400 steps max
    cert, trace = solve_ball(delta=0.1, eps=0.1)
    assert trace.lemma_bound == 400
    assert trace.outer_steps <= 400
    assert trace.descent_fraction == 0.25


def test_solve_bisect_is_deterministic():
    a = solve_ball(seed=1, inner=BISECT)
    b = solve_ball(seed=99, inner=BISECT)
    # neither the bisection search nor certify reads the seed
    assert dumps(certificate_data(a[0])) == dumps(certificate_data(b[0]))
    assert dumps(trace_data(a[1])) == dumps(trace_data(b[1]))
    assert a[1].descent_fraction == pytest.approx(1.0 / 3.0)


def test_solve_rand_replays_with_equal_seed():
    a = solve_ball(seed=7)
    b = solve_ball(seed=7)
    assert a[1].records == b[1].records
    assert np.array_equal(a[0].zeta, b[0].zeta)
    assert dumps(certificate_data(a[0])) == dumps(certificate_data(b[0]))


# the acceptance members
MEMBERS = (("ball-linear", {}), ("l1-ball", {}), ("footnote-1d", {}),
           ("footnote-2c", {}), ("pl-nonconvex", {}),
           ("ball-linear", {"dim": 10}), ("pl-nonconvex", {"dim": 10}))


@pytest.mark.parametrize("inner", [RAND, BISECT])
def test_certify_draws_no_ball_sample(monkeypatch, inner):
    # every ball draw outside the randomized inner search goes through
    # verify.sample_ball; a solve must not reach it
    def no_draw(*args, **kwargs):
        raise AssertionError("solve drew a ball sample outside its search")

    monkeypatch.setattr(verify, "sample_ball", no_draw)
    gammas = []
    for name, params in MEMBERS:
        record = get_problem(name, **params)
        config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner)
        cert, _ = solve(record.spec, config, record.start)
        gammas.append(cert.gamma)
    assert any(gamma > 0.0 for gamma in gammas)  # constraint mass occurs


@pytest.mark.parametrize("inner", [RAND, BISECT])
def test_solve_exports_only_the_stationary_combination(monkeypatch, inner):
    exported = []
    export = inner_rand._Combination.export

    def counted(combo):
        exported.append(combo)
        return export(combo)

    monkeypatch.setattr(inner_rand._Combination, "export", counted)
    record = get_problem("pl-nonconvex")
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner)
    _, trace = solve(record.spec, config, record.start)
    assert trace.outer_steps > 0
    assert len(exported) == 1


def test_unconstrained_embedding_keeps_lambda_zero():
    dim = 2
    objective = Oracle(value=lambda x: float(np.abs(x).sum()),
                       grad=lambda x: np.where(x >= 0.0, 1.0, -1.0),
                       dir_grad=None)
    prob = ProblemSpec(dim=dim, objective=objective,
                       constraints=(constant_constraint(dim),),
                       lipschitz_m=math.sqrt(2.0), neighborhood_delta=1.0,
                       p_star=0.0, known_optimum=np.zeros(dim))
    config = SolverConfig(delta=0.1, target_eps=0.1, seed=3)
    cert, trace = solve(prob, config, np.array([0.8, -0.6]))
    assert cert.gamma0 == 1.0
    assert cert.gamma == 0.0
    assert cert.lam == 0.0
    assert cert.f_anchor <= 0.0 + math.sqrt(2.0) * 0.1 + 0.1


def test_kkt_mode_end_to_end():
    delta = eps = 0.05
    sigma = ball_linear_sigma(delta)
    cert, trace = solve_ball(seed=2, delta=delta, eps=eps, kkt_mode=True,
                             gcq_sigma=sigma)
    m = 1.0
    eps_t = sigma * eps / (eps + sigma + m)
    assert trace.eps_effective == pytest.approx(eps_t)
    assert cert.zeta_norm <= eps_t
    bound = (sigma + m) / (sigma - eps_t) - 1.0
    assert cert.kkt_lambda_bound == pytest.approx(bound)
    assert cert.lam is not None
    assert 0.0 <= cert.lam <= bound + 1e-12


def test_infeasible_start_is_rejected():
    config = SolverConfig(delta=0.05, target_eps=0.05)
    with pytest.raises(InfeasibleStartError):
        solve(BALL.spec, config, np.array([1.5, 0.0]))


def test_delta_must_stay_below_problem_neighborhood():
    config = SolverConfig(delta=0.5, target_eps=0.05)
    with pytest.raises(UsageError, match="neighborhood"):
        solve(BALL.spec, config, BALL.start)


def test_inner_cap_attaches_partial_trace():
    config = SolverConfig(delta=0.05, target_eps=1e-9, seed=5,
                          inner_call_cap=10)
    with pytest.raises(BudgetExceededError) as err:
        solve(BALL.spec, config, np.array([-1.0, 0.0]))
    trace = err.value.partial["trace"]
    assert isinstance(trace, SolveTrace)
    assert trace.call_cap == 10
    assert trace.records == []  # the very first inner run blew the cap


def test_tau_prime_splits_the_failure_budget():
    cert, trace = solve_ball(seed=0, tau=0.1)
    # f(x0) - p_star = 1: ceil(4 * 1 / (0.05 * 0.05)) = 1600 outer slots
    assert trace.tau_prime == pytest.approx(0.1 / 1600)
    _, bise = solve_ball(seed=0, inner=BISECT)
    assert bise.tau_prime is None


def test_trace_wall_time_positive():
    _, trace = solve_ball(seed=4)
    assert trace.wall_time_s > 0.0


def test_trace_carries_the_inner_budget_the_cap_derives_from():
    _, trace = solve_ball(seed=0)
    budget = rand_call_budget(1.0, 0.05, trace.tau_prime)
    assert trace.inner_budget == budget
    assert trace.call_cap == 4 * budget
    config = SolverConfig(delta=0.05, target_eps=0.05, inner_call_cap=10**6)
    _, capped = solve(BALL.spec, config, BALL.start)
    assert (capped.inner_budget, capped.call_cap) == (budget, 10**6)


def nan_at_origin(oracle: Oracle) -> Oracle:
    """The oracle, except that its value at the origin is NaN."""
    def value(x):
        return math.nan if not np.any(x) else oracle.value(x)
    return Oracle(value=value, grad=oracle.grad, dir_grad=oracle.dir_grad)


@pytest.mark.parametrize("broken", ["objective", "constraint"])
def test_non_finite_anchor_reads_raise_oracle_error(broken):
    spec = BALL.spec
    objective, constraint = spec.objective, spec.constraints[0]
    if broken == "objective":
        objective = nan_at_origin(objective)
    else:
        constraint = nan_at_origin(constraint)
    bad = ProblemSpec(dim=2, objective=objective, constraints=(constraint,),
                      lipschitz_m=spec.lipschitz_m,
                      neighborhood_delta=spec.neighborhood_delta,
                      p_star=spec.p_star)
    config = SolverConfig(delta=0.05, target_eps=1.5)
    # solve reads f(x0) and g(x0) at the start
    with pytest.raises(OracleError):
        solve(bad, config, np.zeros(2))
    # certify reads f(anchor) and every g_i(anchor); the combination itself
    # passes every structural check, and caller-supplied anchor values skip
    # only the first reads
    with pytest.raises(OracleError):
        certify(np.zeros(2), unit_combo([1.0, 0.0]), bad, config)
    if broken == "constraint":
        with pytest.raises(OracleError):
            certify(np.zeros(2), unit_combo([1.0, 0.0]), bad, config,
                    anchor_values=(0.0, -1.0))
