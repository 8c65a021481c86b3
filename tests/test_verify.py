"""Hull projection, sampled stationarity estimates, and certificate checks."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsub import verify
from goldsub.core import (MAX_SAMPLES, OBJECTIVE, Branch, Oracle, ProblemSpec,
                          ReducedConstraint, Subproblem, WeightedSubgradient,
                          sample_ball)
from goldsub.errors import OracleError, UsageError
from goldsub.problems import constant_constraint, get_problem
from goldsub.solver import SolverConfig, certify, solve
from goldsub.verify import (
    CHECK_ORDER,
    CORRUPT_CHECKS,
    HOLDS,
    VIOLATED,
    check_certificate,
    check_gcq,
    goldstein_estimate,
    min_norm_over_hull,
    multiplier_split,
)

BALL = get_problem("ball-linear")


# -------------------------------------------------------------------- hull


def test_hull_single_point():
    est = min_norm_over_hull(np.array([[3.0, 4.0]]))
    assert np.array_equal(est.min_norm_point, [3.0, 4.0])
    assert est.min_norm == 5.0
    assert est.support_weights == [1.0]


def test_hull_opposite_points_contain_origin():
    est = min_norm_over_hull(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert est.min_norm <= 1e-6


def test_hull_orthogonal_pair():
    est = min_norm_over_hull(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(est.min_norm_point, [0.5, 0.5], atol=1e-7)
    assert est.min_norm == pytest.approx(math.sqrt(0.5), abs=1e-7)


def test_hull_support_recombines_to_the_point():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((40, 3)) + np.array([0.5, -0.2, 0.1])
    est = min_norm_over_hull(pts)
    weights = np.asarray(est.support_weights)
    assert np.all(weights >= 0.0)
    assert abs(float(weights.sum()) - 1.0) <= 1e-9
    recombined = weights @ pts[est.support_indices]
    assert np.allclose(recombined, est.min_norm_point, atol=1e-9)


def test_hull_rejects_bad_input():
    with pytest.raises(UsageError):
        min_norm_over_hull(np.empty((0, 2)))
    with pytest.raises(UsageError):
        min_norm_over_hull(np.array([[1.0, float("inf")]]))


point_sets = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n),
        min_size=1, max_size=12,
    )
)


@settings(max_examples=200, derandomize=True)
@given(point_sets)
def test_hull_min_norm_properties(rows):
    pts = np.asarray(rows)
    est = min_norm_over_hull(pts)
    norms = np.linalg.norm(pts, axis=1)
    assert est.min_norm <= float(norms.min()) + 1e-7 * (1.0 + float(norms.min()))
    # spot-check optimality against random simplex combinations
    rng = np.random.default_rng(17)
    for _ in range(30):
        w = rng.dirichlet(np.ones(len(pts)))
        combo = w @ pts
        assert est.min_norm <= float(np.linalg.norm(combo)) + 1e-7 * (
            1.0 + float(np.linalg.norm(combo)))


# ---------------------------------------------------------------- estimate


def test_goldstein_estimate_constant_gradient():
    objective = Oracle(value=lambda x: float(x[0]),
                       grad=lambda x: np.array([1.0, 0.0]))
    prob = ProblemSpec(dim=2, objective=objective,
                       constraints=(constant_constraint(2),),
                       lipschitz_m=1.0, neighborhood_delta=1.0)
    est = goldstein_estimate(np.zeros(2), prob, 0.1, 50, seed=0)
    assert est.min_norm == 1.0
    assert est.sample_count == 50


def test_goldstein_estimate_single_sample():
    est = goldstein_estimate(np.zeros(2), BALL.spec, 0.1, 1, seed=2)
    assert est.sample_count == 1
    assert est.min_norm == float(np.linalg.norm(est.points[0]))


def test_goldstein_estimate_shrinks_with_more_samples():
    anchor = np.array([-0.999, 0.0])
    small = goldstein_estimate(anchor, BALL.spec, 0.05, 200, seed=5)
    large = goldstein_estimate(anchor, BALL.spec, 0.05, 400, seed=5)
    # the first 200 samples coincide, so the estimate can only improve
    assert large.min_norm <= small.min_norm + 1e-12
    assert np.array_equal(large.points[:200], small.points)


def test_goldstein_estimate_near_optimum_is_small():
    est = goldstein_estimate(np.array([-0.999, 0.0]), BALL.spec, 0.05,
                             1000, seed=9)
    assert est.min_norm <= 0.05


def test_goldstein_estimate_needs_samples():
    with pytest.raises(UsageError):
        goldstein_estimate(np.zeros(2), BALL.spec, 0.1, 0, seed=0)


# --------------------------------------------------------------------- gcq


def test_gcq_vacuous_when_nothing_is_near_active():
    record = get_problem("footnote-1d")
    a, b, c = record.gcq_params
    report = check_gcq(np.zeros(1), record.spec, a, b, c)
    assert report.outcome == HOLDS
    assert report.near_active == []
    assert report.estimate is None


def test_gcq_holds_on_the_ball_boundary():
    report = check_gcq(np.array([0.0, -1.0]), BALL.spec, 0.1, 0.9, 0.2,
                       n_samples=500, seed=1)
    assert report.outcome == HOLDS
    assert report.near_active == [1]
    assert report.estimate.min_norm >= 0.9


def test_gcq_detects_opposing_constraints():
    g1 = Oracle(value=lambda x: float(x[0]), grad=lambda x: np.array([1.0]))
    g2 = Oracle(value=lambda x: -float(x[0]), grad=lambda x: np.array([-1.0]))
    f = Oracle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    prob = ProblemSpec(dim=1, objective=f, constraints=(g1, g2),
                       lipschitz_m=1.0, neighborhood_delta=1.0)
    report = check_gcq(np.zeros(1), prob, 0.1, 0.5, 0.5, n_samples=50, seed=0)
    assert report.outcome == VIOLATED
    assert report.near_active == [1, 2]
    assert report.estimate.min_norm < 1e-6


def test_gcq_rejects_nonpositive_parameters():
    with pytest.raises(UsageError):
        check_gcq(np.zeros(2), BALL.spec, 0.0, 0.9, 0.2)


@pytest.mark.parametrize("n_samples", [-5, 0, MAX_SAMPLES + 1])
def test_sampled_estimates_reject_counts_out_of_range(n_samples):
    # the anchor sits on the constraint, so check_gcq would sample there
    with pytest.raises(UsageError, match="n_samples"):
        check_gcq(np.array([1.0, 0.0]), BALL.spec, 0.1, 0.9, 0.2,
                  n_samples=n_samples)
    with pytest.raises(UsageError, match="n_samples"):
        goldstein_estimate(np.zeros(2), BALL.spec, 0.05, n_samples, seed=0)


def one_constraint(value, grad) -> ProblemSpec:
    f = Oracle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    return ProblemSpec(dim=1, objective=f,
                       constraints=(Oracle(value=value, grad=grad),),
                       lipschitz_m=1.0, neighborhood_delta=1.0)


def test_gcq_rejects_non_finite_anchor_value():
    prob = one_constraint(lambda x: float("nan"), lambda x: np.ones(1))
    with pytest.raises(OracleError):
        check_gcq(np.zeros(1), prob, 0.1, 0.5, 0.5, n_samples=10)


@pytest.mark.parametrize("grad", [lambda x: np.ones(2),
                                  lambda x: np.array([np.nan])])
def test_gcq_rejects_malformed_gradients(grad):
    prob = one_constraint(lambda x: float(x[0]), grad)
    with pytest.raises(OracleError):
        check_gcq(np.zeros(1), prob, 0.1, 0.5, 0.5, n_samples=10)


# -------------------------------------------------------- multiplier split


def entry(branch, weight, point=(0.0, 0.0), vector=(1.0, 1.0)):
    return WeightedSubgradient(np.asarray(point, dtype=float),
                               np.asarray(vector, dtype=float), branch, weight)


def test_multiplier_split_even_split():
    combo = [entry(OBJECTIVE, 0.5), entry(Branch.constraint(1), 0.5)]
    assert multiplier_split(combo) == (0.5, 0.5, 1.0)


def test_multiplier_split_constraint_heavy():
    combo = [entry(OBJECTIVE, 0.25), entry(Branch.constraint(1), 0.75)]
    gamma0, gamma, lam = multiplier_split(combo)
    assert (gamma0, gamma) == (0.25, 0.75)
    assert lam == pytest.approx(3.0)


def test_multiplier_split_single_branch_is_exact():
    obj = [entry(OBJECTIVE, 0.5), entry(OBJECTIVE, 0.5)]
    assert multiplier_split(obj) == (1.0, 0.0, 0.0)
    con = [entry(Branch.constraint(1), 1.0)]
    assert multiplier_split(con) == (0.0, 1.0, None)


def test_multiplier_split_of_an_empty_combination_is_constraint_only():
    assert multiplier_split([]) == (0.0, 1.0, None)


def ten_tenths_certificate():
    """Objective-only l1-ball certificate whose ten weights of 0.1 sum to
    0.9999999999999999, not 1."""
    record = get_problem("l1-ball")
    combo = [entry(OBJECTIVE, 0.1, point=(s * 0.01, s * 0.01), vector=(s, s))
             for s in (1.0, -1.0) * 5]
    config = SolverConfig(delta=0.05, target_eps=0.05)
    return record, certify(np.zeros(2), combo, record.spec, config)


def test_multiplier_split_of_inexact_objective_weights_is_exact():
    record, cert = ten_tenths_certificate()
    assert sum(w.weight for w in cert.combination) != 1.0
    assert multiplier_split(cert.combination) == (1.0, 0.0, 0.0)
    assert (cert.gamma0, cert.gamma, cert.lam) == (1.0, 0.0, 0.0)


def test_verifier_reports_the_exact_split_of_objective_only_weights():
    # summing the weights would report "gamma0 0.99999999999999989"
    record, cert = ten_tenths_certificate()
    report = check_certificate(cert, record.spec, slackness_samples=100,
                               estimate_samples=100)
    assert report.passed, report.reason
    split = report.checks[CHECK_ORDER.index("multiplier-split")]
    assert split.detail == "gamma0 1 vs stored 1"


# ------------------------------------------------------------ certificates


def fresh_cert(seed=0, name="ball-linear", delta=0.05, eps=0.05):
    record = get_problem(name)
    config = SolverConfig(delta=delta, target_eps=eps, seed=seed)
    cert, _ = solve(record.spec, config, record.start)
    return record, cert


def test_valid_certificate_passes_every_check():
    record, cert = fresh_cert(seed=0)
    report = check_certificate(cert, record.spec, slackness_samples=2000,
                               estimate_samples=2000, seed=0)
    assert report.passed
    assert report.reason is None
    assert not report.corrupt
    assert tuple(c.name for c in report.checks) == CHECK_ORDER


@pytest.mark.parametrize("name", ["l1-ball", "footnote-1d", "pl-nonconvex"])
def test_valid_certificates_across_problems(name):
    record, cert = fresh_cert(seed=3, name=name)
    report = check_certificate(cert, record.spec, slackness_samples=1000,
                               estimate_samples=2000, seed=1)
    assert report.passed, report.reason


def test_weight_fault_is_rejected():
    record, cert = fresh_cert(seed=1)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["weight"] = bad.combination[0].weight + 0.1
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "weights-sum"
    assert not report.corrupt


def test_negative_weight_fault_is_rejected():
    record, cert = fresh_cert(seed=1)
    bad = copy.deepcopy(cert)
    entry = bad.combination[0]
    entry.__dict__["weight"] = -0.05
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "weights-nonnegative"


def test_anchor_fault_is_rejected_by_the_ball_check():
    record, cert = fresh_cert(seed=2)
    bad = copy.deepcopy(cert)
    bad.anchor = bad.anchor + np.array([2.0 * cert.delta, 0.0])
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "points-in-ball"
    assert not report.corrupt


def test_vector_fault_is_flagged_corrupt():
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    entry = bad.combination[0]
    entry.vector[0] += 1e-3
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "vector-recompute"
    assert report.corrupt
    assert report.reason in CORRUPT_CHECKS


def test_zeta_fault_is_flagged_corrupt():
    record, cert = fresh_cert(seed=4)
    bad = copy.deepcopy(cert)
    bad.zeta = bad.zeta + np.array([1e-4, 0.0])
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "zeta-recompute"
    assert report.corrupt


def test_multiplier_fault_is_rejected():
    record, cert = fresh_cert(seed=5)
    bad = copy.deepcopy(cert)
    bad.gamma0, bad.gamma = 0.123, 0.877
    bad.lam = 0.877 / 0.123
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert not report.passed
    assert report.reason == "multiplier-split"


def test_nan_vector_fails_the_recompute_check():
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    bad.combination[0].vector[:] = np.nan
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10)
    assert report.reason == "vector-recompute"
    assert report.corrupt
    assert "nan" in report.checks[CHECK_ORDER.index("vector-recompute")].detail


@pytest.mark.parametrize("length", [1, 3])
def test_wrong_length_stored_vector_is_usage_error(length):
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["vector"] = np.ones(length)
    with pytest.raises(UsageError, match="dimension 2"):
        check_certificate(bad, record.spec, slackness_samples=10,
                          estimate_samples=10)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"slackness_samples": -5},
                                    {"estimate_samples": -1},
                                    {"slackness_samples": MAX_SAMPLES + 1},
                                    {"estimate_samples": 10**20}])
def test_negative_seed_or_sample_count_is_usage_error(kwargs):
    record, cert = fresh_cert(seed=0)
    with pytest.raises(UsageError):
        check_certificate(cert, record.spec, **kwargs)


def slack_prefix_max(cert, spec, rng, n, drawn):
    """max |gamma * g| over the first n rows of one draw of ``drawn`` rows."""
    rows = sample_ball(cert.anchor, cert.delta, rng, size=drawn)
    gvals, _ = ReducedConstraint(spec).values(rows[:n])
    return float(np.max(np.abs(cert.gamma * gvals)))


def test_sampled_checks_are_prefixes_of_one_draw(monkeypatch):
    # small blocks, so every loop draws its samples in several of them
    monkeypatch.setattr("goldsub.core.SAMPLE_BLOCK", 7)
    record, cert = fresh_cert(seed=0)
    assert cert.gamma > 0.0
    hulls = []

    def kept(points):
        hulls.append(np.array(points))
        return min_norm_over_hull(points)

    monkeypatch.setattr(verify, "min_norm_over_hull", kept)
    est = goldstein_estimate(cert.anchor, record.spec, cert.delta, 30, seed=5)
    # the slackness check takes fewer, as many and more rows than the
    # estimate's 30; both read stream seed + 1
    for slack_n in (10, 30, 100):
        hulls.clear()
        report = check_certificate(cert, record.spec, slackness_samples=slack_n,
                                   estimate_samples=30, seed=4)
        details = {c.name: c.detail for c in report.checks}
        measured = float(details["complementary-slackness"].split()[3])
        assert measured == slack_prefix_max(cert, record.spec,
                                            np.random.default_rng(5), slack_n,
                                            max(slack_n, 30)), slack_n
        assert len(hulls) == 1 and np.array_equal(hulls[0], est.points)
        assert float(details["stationarity-estimate"].split()[2]) == est.min_norm

    config = SolverConfig(delta=0.05, target_eps=0.05, slackness_samples=100)
    again = certify(cert.anchor, cert.combination, record.spec, config,
                    zeta=cert.zeta, rng=np.random.default_rng(9))
    assert again.slack_max == slack_prefix_max(cert, record.spec,
                                               np.random.default_rng(9), 100, 300)

    rows = sample_ball(cert.anchor, cert.delta, np.random.default_rng(5), size=90)
    grads, _ = Subproblem(record.spec, cert.anchor).grads(rows[:30])
    assert np.array_equal(est.points, grads)


def never_called(*args, **kwargs):
    raise AssertionError("ran although the outcome was already known")


def test_stop_at_first_failure_skips_the_rest(monkeypatch):
    record, cert = fresh_cert(seed=6)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["weight"] = bad.combination[0].weight + 0.1
    # no code of a later check runs: no oracle call of the recompute, and no
    # draw of the ball
    for name in ("Subproblem", "sample_ball", "_ball_draws", "sampled_slack",
                 "min_norm_over_hull"):
        monkeypatch.setattr(verify, name, never_called)
    report = check_certificate(bad, record.spec, slackness_samples=10,
                               estimate_samples=10, stop_at_first_failure=True)
    assert report.reason == "weights-sum"
    assert [c.name for c in report.checks] == ["weights-nonnegative", "weights-sum"]


def test_stop_at_a_slackness_failure_computes_no_estimate(monkeypatch):
    record, cert = fresh_cert(seed=0)
    assert cert.gamma > 0.0
    monkeypatch.setattr(verify, "slack_bound", lambda m, delta: 0.0)
    monkeypatch.setattr(Subproblem, "grads", never_called)
    monkeypatch.setattr(verify, "min_norm_over_hull", never_called)
    report = check_certificate(cert, record.spec, slackness_samples=100,
                               estimate_samples=100, stop_at_first_failure=True)
    assert report.reason == "complementary-slackness"
    assert tuple(c.name for c in report.checks) == CHECK_ORDER[:-1]


def test_verification_reads_the_constraints_at_the_anchor_once(monkeypatch):
    # the recompute, feasibility and estimate checks share one Subproblem
    record, cert = fresh_cert(seed=0)
    assert all(not np.array_equal(w.point, cert.anchor) for w in cert.combination)
    value = ReducedConstraint.value
    at_anchor = []

    def counted(self, z):
        at_anchor.append(np.array_equal(z, cert.anchor))
        return value(self, z)

    monkeypatch.setattr(ReducedConstraint, "value", counted)
    report = check_certificate(cert, record.spec, slackness_samples=100,
                               estimate_samples=100)
    assert report.passed, report.reason
    assert sum(at_anchor) == 1


def test_zero_estimate_samples_is_usage_error_before_any_check(monkeypatch):
    record, cert = fresh_cert(seed=0)
    monkeypatch.setattr(verify, "sampled_slack", never_called)
    with pytest.raises(UsageError, match="estimate_samples"):
        check_certificate(cert, record.spec, estimate_samples=0)
