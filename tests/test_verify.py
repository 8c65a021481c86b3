"""Hull projection, sampled stationarity estimates, and certificate checks."""

from __future__ import annotations

import collections
import copy
import dataclasses
import functools
import json
import math
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldsub import core, solver, verify
from goldsub.core import (MAX_SAMPLES, Oracle, ProblemSpec, ReducedConstraint,
                          Subproblem, WeightedSubgradient, sample_ball)
from goldsub.errors import UsageError
from goldsub.problems import constant_constraint, get_problem
from goldsub.serialize import certificate_data, certificate_from_data, dumps
from goldsub.solver import SolverConfig, certify, solve
from goldsub.verify import (
    CHECK_ORDER,
    CORRUPT_CHECKS,
    HULL_TOL,
    check_certificate,
    goldstein_estimate,
    min_norm_over_hull,
    multiplier_split,
)

BALL = get_problem("ball-linear")
ESTIMATE = CHECK_ORDER.index("stationarity-estimate")


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


@pytest.mark.parametrize("a", [1.0, 1e3, 1e4, 1e8, 1e150])
def test_hull_orthogonal_pair_at_any_scale(a):
    # a large Gram block next to the unit border must not turn the solve
    # into a stall at a vertex (norm a)
    est = min_norm_over_hull(np.array([[a, 0.0], [0.0, a]]))
    assert est.min_norm == pytest.approx(a / math.sqrt(2.0), rel=1e-12)
    assert est.support_weights == pytest.approx([0.5, 0.5], abs=1e-12)


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


clouds = st.tuples(st.integers(1, 300), st.integers(1, 12),
                   st.integers(0, 2**32 - 1), st.sampled_from(["spread", "tight",
                                                                  "grid"]))


def cloud(rows, dim, seed, kind):
    rng = np.random.default_rng(seed)
    shift = rng.standard_normal(dim)
    if kind == "spread":
        return rng.standard_normal((rows, dim)) + shift
    if kind == "tight":
        return 1e-3 * rng.standard_normal((rows, dim)) + shift
    return np.round(2.0 * rng.standard_normal((rows, dim)))  # repeated rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(clouds, st.floats(0.0, 1.0))
def test_hull_warm_start_from_a_prefix(spec, share):
    pts = cloud(*spec)
    prefix = min_norm_over_hull(pts[:max(1, int(share * len(pts)))])
    est = min_norm_over_hull(pts, start=prefix)
    # never longer than the start, and stopped by the gap or a stall
    assert est.min_norm <= prefix.min_norm
    x = est.min_norm_point
    gap = float(x @ x) - float(np.min(pts @ x))
    stalled = int(np.argmin(pts @ x)) in est.support_indices
    assert gap <= HULL_TOL or stalled
    weights = np.asarray(est.support_weights)
    assert np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-9
    scale = 1.0 + float(np.abs(pts).max())
    assert np.allclose(weights @ pts[est.support_indices], x, atol=1e-9 * scale)
    # a cold solve is the warm start from the shortest point, bit for bit
    first = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    shortest = verify.HullEstimate(pts[first].copy(),
                                   float(np.linalg.norm(pts[first])),
                                   [first], [1.0])
    cold, from_shortest = min_norm_over_hull(pts), min_norm_over_hull(
        pts, start=shortest)
    assert np.array_equal(cold.min_norm_point, from_shortest.min_norm_point)
    assert (cold.min_norm, cold.support_indices, cold.support_weights) == (
        from_shortest.min_norm, from_shortest.support_indices,
        from_shortest.support_weights)


def lstsq_hull_norm(pts) -> float:
    """The min-norm hull solver as it was before its LU solve: every
    bordered system by lstsq (an SVD), the weights kept in an array."""
    norms_sq = np.einsum("ij,ij->i", pts, pts)
    k, n = pts.shape
    top = float(norms_sq.max())
    shift = -math.frexp(top)[1] if top > 2.0 ** 16 else 0
    first = int(np.argmin(norms_sq))
    support, weights, x = [first], np.array([1.0]), pts[first].copy()
    for _ in range(64 * (n + 2) + 2 * k):
        norm_sq = float(x @ x)
        if norm_sq == 0.0:
            break
        dots = pts @ x
        best = int(np.argmin(dots))
        if float(dots[best]) > norm_sq - HULL_TOL or best in support:
            break
        support.append(best)
        weights = np.append(weights, 0.0)
        for _minor in range(2 * (n + 2)):
            sub = pts[support]
            s = len(support)
            border = np.zeros((s + 1, s + 1))
            gram = sub @ sub.T
            border[:s, :s] = np.ldexp(gram, shift) if shift else gram
            border[:s, s] = 1.0
            border[s, :s] = 1.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            lam = np.linalg.lstsq(border, rhs, rcond=None)[0][:s]
            if np.all(lam > 1e-14):
                weights = lam
                break
            diff = weights - lam
            mask = diff > 1e-14
            theta = float(np.min(weights[mask] / diff[mask])) if np.any(mask) else 1.0
            theta = min(1.0, max(0.0, theta))
            weights = (1.0 - theta) * weights + theta * lam
            weights[weights < 1e-14] = 0.0
            keep = weights > 0.0
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
                weights[keep] = 1.0
            support = [i for i, k_ in zip(support, keep) if k_]
            weights = weights[keep]
        weights = weights / float(weights.sum())
        new_x = weights @ pts[support]
        if float(new_x @ new_x) > norm_sq:
            break
        x = new_x
    return float(np.linalg.norm(x))


# (rows, dim, seed, kind, log10 of the scale): rows below, at and above dim
degenerate_sets = st.tuples(st.integers(1, 40), st.integers(1, 12),
                            st.integers(0, 2**32 - 1),
                            st.sampled_from(["random", "duplicate", "collinear"]),
                            st.floats(-8.0, 8.0))


def degenerate_set(rows, dim, seed, kind, log_scale):
    rng = np.random.default_rng(seed)
    if kind == "random":
        base = rng.standard_normal((rows, dim)) + rng.standard_normal(dim)
    elif kind == "duplicate":  # rows repeated from a few distinct ones
        distinct = rng.standard_normal((3, dim))
        base = distinct[rng.integers(3, size=rows)]
    else:  # every row on one line, which need not pass through 0
        base = (rng.standard_normal(dim)
                + rng.standard_normal(rows)[:, None] * rng.standard_normal(dim))
    return 10.0 ** log_scale * base, 10.0 ** log_scale


@settings(max_examples=300, derandomize=True, deadline=None)
@given(degenerate_sets)
@example((6, 3, 0, "duplicate", 8.0))
@example((6, 3, 1, "collinear", -8.0))
@example((30, 2, 2, "random", 8.0))
def test_hull_matches_the_lstsq_solver_on_degenerate_sets(spec):
    pts, scale = degenerate_set(*spec)
    est = min_norm_over_hull(pts)
    x = est.min_norm_point
    gap = float(x @ x) - float((pts @ x).min())
    assert gap <= HULL_TOL or est.min_norm <= lstsq_hull_norm(pts) + 1e-12 * (1.0 + scale)
    weights = np.asarray(est.support_weights)
    assert np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-12
    assert np.allclose(weights @ pts[est.support_indices], x, rtol=0.0,
                       atol=1e-12 * (1.0 + float(np.abs(pts).max())))


def test_a_singular_bordered_system_falls_back_to_lstsq(monkeypatch):
    # a warm support of two identical rows: with any third vertex, the
    # bordered system has two equal rows, singular in exact arithmetic
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    start = verify.HullEstimate(pts[0], 1.0, [0, 1], [0.5, 0.5])
    est = min_norm_over_hull(pts, start=start)
    assert calls
    weights = np.asarray(est.support_weights)
    assert np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-12
    assert np.array_equal(weights @ pts[est.support_indices], est.min_norm_point)
    assert est.min_norm == pytest.approx(math.sqrt(0.5), rel=1e-12)


# ---------------------------------------------------------------- estimate


def drawn_grads(anchor, spec, delta, n_samples, seed):
    """h's gradients at one draw of n_samples rows of B(anchor, delta) from
    stream ``seed``: the points of that estimate's hull."""
    rows = sample_ball(anchor, delta, np.random.default_rng(seed),
                       out=np.empty((n_samples, anchor.size)))
    return Subproblem(spec, anchor).grads(rows)[0]


def same_hull(a, b) -> bool:
    return (np.array_equal(a.min_norm_point, b.min_norm_point)
            and (a.min_norm, a.support_indices, a.support_weights)
            == (b.min_norm, b.support_indices, b.support_weights))


def test_goldstein_estimate_constant_gradient():
    objective = Oracle(value=lambda x: float(x[0]),
                       grad=lambda x: np.array([1.0, 0.0]))
    prob = ProblemSpec(dim=2, objective=objective,
                       constraints=(constant_constraint(2),),
                       lipschitz_m=1.0, neighborhood_delta=1.0)
    est = goldstein_estimate(np.zeros(2), prob, 0.1, 50, seed=0)
    assert est.min_norm == 1.0
    grads = drawn_grads(np.zeros(2), prob, 0.1, 50, seed=0)
    assert same_hull(est, min_norm_over_hull(grads))


def test_goldstein_estimate_single_sample():
    est = goldstein_estimate(np.zeros(2), BALL.spec, 0.1, 1, seed=2)
    grads = drawn_grads(np.zeros(2), BALL.spec, 0.1, 1, seed=2)
    assert est.support_indices == [0]
    assert est.min_norm == float(np.linalg.norm(grads[0]))


def test_goldstein_estimate_shrinks_with_more_samples():
    anchor = np.array([-0.999, 0.0])
    small = goldstein_estimate(anchor, BALL.spec, 0.05, 200, seed=5)
    large = goldstein_estimate(anchor, BALL.spec, 0.05, 400, seed=5)
    # the first 200 samples coincide, so the estimate can only improve
    assert large.min_norm <= small.min_norm + 1e-12
    grads = drawn_grads(anchor, BALL.spec, 0.05, 400, seed=5)
    assert same_hull(small, min_norm_over_hull(grads[:200]))
    assert same_hull(large, min_norm_over_hull(grads))


def test_goldstein_estimate_near_optimum_is_small():
    est = goldstein_estimate(np.array([-0.999, 0.0]), BALL.spec, 0.05,
                             1000, seed=9)
    assert est.min_norm <= 0.05


def test_goldstein_estimate_needs_samples():
    with pytest.raises(UsageError):
        goldstein_estimate(np.zeros(2), BALL.spec, 0.1, 0, seed=0)


@pytest.mark.parametrize("n_samples", [-5, 0, MAX_SAMPLES + 1])
def test_sampled_estimates_reject_counts_out_of_range(n_samples):
    with pytest.raises(UsageError, match="n_samples"):
        goldstein_estimate(np.zeros(2), BALL.spec, 0.05, n_samples, seed=0)


# -------------------------------------------------------- multiplier split


def entry(branch, weight, point=(0.0, 0.0), vector=(1.0, 1.0)):
    return WeightedSubgradient(np.asarray(point, dtype=float),
                               np.asarray(vector, dtype=float), branch, weight)


def test_multiplier_split_even_split():
    combo = [entry(0, 0.5), entry(1, 0.5)]
    assert multiplier_split(combo) == (0.5, 0.5, 1.0)


def test_multiplier_split_constraint_heavy():
    combo = [entry(0, 0.25), entry(1, 0.75)]
    gamma0, gamma, lam = multiplier_split(combo)
    assert (gamma0, gamma) == (0.25, 0.75)
    assert lam == pytest.approx(3.0)


def test_multiplier_split_single_branch_is_exact():
    obj = [entry(0, 0.5), entry(0, 0.5)]
    assert multiplier_split(obj) == (1.0, 0.0, 0.0)
    con = [entry(1, 1.0)]
    assert multiplier_split(con) == (0.0, 1.0, None)


def test_multiplier_split_of_an_empty_combination_is_constraint_only():
    assert multiplier_split([]) == (0.0, 1.0, None)


def ten_tenths_certificate():
    """Objective-only l1-ball certificate whose ten weights of 0.1 sum to
    0.9999999999999999, not 1."""
    record = get_problem("l1-ball")
    combo = [entry(0, 0.1, point=(s * 0.01, s * 0.01), vector=(s, s))
             for s in (1.0, -1.0) * 5]
    config = SolverConfig(delta=0.05, target_eps=0.05)
    anchor = np.zeros(2)
    values = (record.spec.objective.value(anchor),
              ReducedConstraint(record.spec).value(anchor)[0])
    return record, certify(anchor, combo, record.spec, config,
                           verify.recombine(combo, [w.vector for w in combo], 2),
                           values)


def test_multiplier_split_of_inexact_objective_weights_is_exact():
    record, cert = ten_tenths_certificate()
    assert sum(w.weight for w in cert.combination) != 1.0
    assert multiplier_split(cert.combination) == (1.0, 0.0, 0.0)
    assert (cert.gamma0, cert.gamma, cert.lam) == (1.0, 0.0, 0.0)


def test_verifier_reports_the_exact_split_of_objective_only_weights():
    # summing the weights would report "gamma0 0.99999999999999989"
    record, cert = ten_tenths_certificate()
    report = check_certificate(cert, record.spec, samples=100)
    assert report.passed, report.reason
    split = report.checks[CHECK_ORDER.index("multiplier-split")]
    assert split.detail.startswith("gamma0 1 vs stored 1; lam = 0,")


def test_a_split_without_objective_mass_reports_fritz_john_only():
    record, cert = fresh_cert(seed=0)
    # only the constraint entries: gamma0 = 0 and no multiplier
    combo = [w for w in cert.combination if w.branch != 0]
    assert combo
    cert = dataclasses.replace(cert, combination=combo, gamma0=0.0, gamma=1.0,
                               lam=None)
    report = check_certificate(cert, record.spec, samples=100)
    split = report.checks[CHECK_ORDER.index("multiplier-split")]
    assert split.passed
    assert split.detail == "gamma0 0 vs stored 0; Fritz-John only"


# ---------------------------------------------------------- derived claims


def test_eps_effective_formula():
    assert verify.eps_effective(0.1, 1.0, 0.5) == 0.5 * 0.1 / (0.1 + 0.5 + 1.0)
    assert verify.eps_effective(0.1, 1.0, 0.5) == 0.03125
    assert verify.eps_effective(0.1, 1.0, None) == 0.1


def test_kkt_claims_with_objective_mass():
    eps_t = verify.eps_effective(0.1, 1.0, 0.5)
    kkt_eps, kkt_eta, kkt_lambda_bound, warnings = verify.kkt_claims(
        eps_t, 0.5, 1.0, 0.1, 1.0)
    factor = (0.5 + 1.0) / (0.5 - eps_t)
    assert factor == pytest.approx(3.2)
    assert kkt_eps == pytest.approx(eps_t * factor)
    assert kkt_eps == pytest.approx(0.1)
    assert kkt_eta == pytest.approx(3.0 * 1.0 * 0.1 * factor)
    assert kkt_lambda_bound == pytest.approx(factor - 1.0)
    assert warnings == []


def test_kkt_claims_without_objective_mass_warn():
    assert verify.kkt_claims(0.03, 0.5, 1.0, 0.05, 0.0) == (
        None, None, None, [verify.NO_OBJECTIVE_MASS])
    assert "Fritz-John" in verify.NO_OBJECTIVE_MASS


def test_fritz_john_mode_claims_no_kkt_residual():
    assert verify.kkt_claims(0.1, None, 1.0, 0.1, 0.0) == (None, None, None, [])
    assert verify.kkt_claims(0.1, None, 1.0, 0.1, 1.0) == (None, None, None, [])


@pytest.mark.parametrize("sigma", [0.03, 0.01, -1.0])
def test_kkt_claims_at_sigma_not_above_eps_are_vacuous(sigma):
    # no solve runs there (eps_effective < sigma), but a document may say so
    kkt_eps, kkt_eta, kkt_lambda_bound, _ = verify.kkt_claims(
        0.03, sigma, 1.0, 0.05, 1.0)
    assert kkt_eps == kkt_eta == kkt_lambda_bound == math.inf


# ------------------------------------------------------------ certificates


def fresh_cert(seed=0, name="ball-linear", delta=0.05, eps=0.05):
    record = get_problem(name)
    config = SolverConfig(delta=delta, target_eps=eps, seed=seed)
    cert, _ = solve(record.spec, config, record.start)
    return record, cert


def test_valid_certificate_passes_every_check():
    record, cert = fresh_cert(seed=0)
    report = check_certificate(cert, record.spec, samples=2000, seed=0)
    assert report.passed
    assert report.reason is None
    assert not report.corrupt
    assert tuple(c.name for c in report.checks) == CHECK_ORDER


@pytest.mark.parametrize("name", ["l1-ball", "footnote-1d", "pl-nonconvex"])
def test_valid_certificates_across_problems(name):
    record, cert = fresh_cert(seed=3, name=name)
    report = check_certificate(cert, record.spec, samples=2000, seed=1)
    assert report.passed, report.reason


def test_weight_fault_is_rejected():
    record, cert = fresh_cert(seed=1)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["weight"] = bad.combination[0].weight + 0.1
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "weights-sum"
    assert not report.corrupt


def test_negative_weight_fault_is_rejected():
    record, cert = fresh_cert(seed=1)
    bad = copy.deepcopy(cert)
    entry = bad.combination[0]
    entry.__dict__["weight"] = -0.05
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "weights-nonnegative"


def test_anchor_fault_is_rejected_by_the_ball_check():
    record, cert = fresh_cert(seed=2)
    bad = copy.deepcopy(cert)
    bad.anchor = bad.anchor + np.array([2.0 * cert.delta, 0.0])
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "points-in-ball"
    assert not report.corrupt


def test_vector_fault_is_flagged_corrupt():
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    entry = bad.combination[0]
    entry.vector[0] += 1e-3
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "vector-recompute"
    assert report.corrupt
    assert report.reason in CORRUPT_CHECKS


def test_zeta_fault_is_flagged_corrupt():
    record, cert = fresh_cert(seed=4)
    bad = copy.deepcopy(cert)
    bad.zeta = bad.zeta + np.array([1e-4, 0.0])
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "zeta-recompute"
    assert report.corrupt


def test_multiplier_fault_is_rejected():
    record, cert = fresh_cert(seed=5)
    bad = copy.deepcopy(cert)
    bad.gamma0, bad.gamma = 0.123, 0.877
    bad.lam = 0.877 / 0.123
    report = check_certificate(bad, record.spec, samples=10)
    assert not report.passed
    assert report.reason == "multiplier-split"


def test_nan_vector_fails_the_recompute_check():
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    bad.combination[0].vector[:] = np.nan
    report = check_certificate(bad, record.spec, samples=10)
    assert report.reason == "vector-recompute"
    assert report.corrupt
    assert "nan" in report.checks[CHECK_ORDER.index("vector-recompute")].detail


@pytest.mark.parametrize("length", [1, 3])
def test_wrong_length_stored_vector_is_usage_error(length):
    record, cert = fresh_cert(seed=3)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["vector"] = np.ones(length)
    with pytest.raises(UsageError, match="dimension 2"):
        check_certificate(bad, record.spec, samples=10)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"samples": -5},
                                    {"samples": 0},
                                    {"samples": MAX_SAMPLES + 1},
                                    {"samples": 10**20}])
def test_negative_seed_or_sample_count_is_usage_error(kwargs):
    record, cert = fresh_cert(seed=0)
    with pytest.raises(UsageError):
        check_certificate(cert, record.spec, **kwargs)


def test_row_blocks_cover_the_rows(monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 4)
    for total, sizes in ((0, []), (8, [4, 4]), (10, [4, 4, 2])):
        rows = np.arange(3.0 * total).reshape(total, 3)
        blocks = list(verify._row_blocks(rows))
        assert [len(block) for block in blocks] == sizes
        # views of the rows in order, so a write to a block fills the rows
        assert all(np.shares_memory(block, rows) for block in blocks)
        assert np.array_equal(np.concatenate(blocks or [rows]), rows)


def slack_max(cert, spec, rng, n):
    """max |gamma * g| over one draw of n rows."""
    rows = sample_ball(cert.anchor, cert.delta, rng,
                       out=np.empty((n, cert.anchor.size)))
    gvals, _ = ReducedConstraint(spec).values(rows)
    return float(np.max(np.abs(cert.gamma * gvals)))


def test_sampled_checks_are_prefixes_of_one_draw(monkeypatch):
    # small blocks, so every loop draws its samples in several of them, and
    # a zero limit, so the estimate solves a hull at every checkpoint
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 7)
    monkeypatch.setattr(verify, "ESTIMATE_FACTOR", 0.0)
    record, cert = fresh_cert(seed=0)
    assert cert.gamma > 0.0
    hulls = []

    def kept(points, **kwargs):
        hulls.append(np.array(points))
        return min_norm_over_hull(points, **kwargs)

    monkeypatch.setattr(verify, "min_norm_over_hull", kept)
    est = goldstein_estimate(cert.anchor, record.spec, cert.delta, 150, seed=5)
    grads = drawn_grads(cert.anchor, record.spec, cert.delta, 150, seed=5)
    # the verifier reads stream seed + 1
    hulls.clear()
    report = check_certificate(cert, record.spec, samples=150, seed=4)
    details = {c.name: c.detail for c in report.checks}
    # one hull per checkpoint, over growing prefixes of the one draw
    assert [len(h) for h in hulls] == [64, 128, 150]
    assert all(np.array_equal(h, grads[:len(h)]) for h in hulls)
    estimate = float(details["stationarity-estimate"].split()[2])
    assert estimate <= est.min_norm + HULL_TOL
    assert details["stationarity-estimate"].endswith("at 150 of 150 samples")

    assert same_hull(est, min_norm_over_hull(grads))


@pytest.mark.parametrize("n", [1, 2, 10])
def test_ball_draw_in_place_equals_one_allocating_draw(n):
    total = 2 * verify.SAMPLE_BLOCK + 17
    center = np.linspace(-1.0, 1.0, n)
    draw = verify._BallDraw(center, 0.3, 9, total)
    # uneven reads: within a block, across a block edge, then the rest
    for count in (64, verify.SAMPLE_BLOCK + 4, total):
        rows = draw.upto(count)
    assert np.shares_memory(rows, draw.rows)
    one = sample_ball(center, 0.3, np.random.default_rng(9), out=np.empty((total, n)))
    assert rows.tobytes() == one.tobytes()


REAL_EXTREMES = (5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 0.0, -0.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.sampled_from(REAL_EXTREMES)),
                       min_size=1, max_size=40),
       gamma=st.one_of(st.floats(min_value=0.0, exclude_min=True,
                                 allow_infinity=False),
                       st.sampled_from([5e-324, 1e-300, 0.5, 1e300])))
@example(values=[1e300, -2e300], gamma=1e300)
@example(values=[5e-324, -1e-310], gamma=0.3)
def test_gamma_times_the_largest_value_is_the_largest_product(values, gamma):
    # rounding is monotone and sign-symmetric, so slack_max, the largest
    # |gamma * g| over a draw, is gamma times the largest |g|
    v = np.array(values)
    with np.errstate(over="ignore", under="ignore"):
        largest_product = float(np.max(np.abs(gamma * v)))
    assert gamma * float(np.max(np.abs(v))) == largest_product


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_checks_work_in_about_one_block():
    # the drawn rows exist before tracing starts; the estimate adds about
    # one block of gradients to them
    n = 200
    record = get_problem("ball-linear", dim=n)
    cert, _ = solve(record.spec, SolverConfig(delta=0.05, target_eps=0.05),
                    record.start)
    draw = verify._BallDraw(cert.anchor, cert.delta, 1, 10_000)
    draw.upto(10_000)
    sub = Subproblem(record.spec, cert.anchor)
    peak = traced_peak(verify._grads_over, sub, draw.rows)
    assert peak <= 1.5 * verify.SAMPLE_BLOCK * n * 8
    assert sub.subgrad_calls == 10_000


# ------------------------------------------------------------ kept offsets


def fresh_offsets(monkeypatch) -> None:
    """No kept offsets, as in a new process."""
    monkeypatch.setattr(verify, "_OFFSETS", verify._Offsets())


def kept_tables() -> list[np.ndarray]:
    """The kept offsets, each read-only; the running byte count equals
    their recount and stays within the cap."""
    tables = [t for t in verify._OFFSETS.values() if t is not None]
    assert not any(t.flags.writeable for t in tables)
    total = (len(verify._OFFSETS) * verify.ENTRY_BYTES
             + sum(t.nbytes for t in tables))
    assert verify._OFFSETS.nbytes == total <= verify.OFFSET_BYTES
    return tables


def offsets_drawn(seed, n, radius, total) -> np.ndarray:
    """A fresh draw of ``total`` rows of B(-0.0s, radius) from stream seed."""
    return sample_ball(np.full(n, -0.0), radius, np.random.default_rng(seed),
                       out=np.empty((total, n)))


CENTER_EXTREMES = (0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300)
KEPT_RADII = (0.3, 0.0, -0.0, math.nan)


@pytest.mark.parametrize("n", [1, 2, 10])
@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(
    st.integers(0, 2), st.sampled_from(KEPT_RADII),
    st.integers(1, 30), st.lists(st.integers(0, 30), min_size=1, max_size=3),
    st.integers(0, len(CENTER_EXTREMES) - 1)), max_size=12))
@example(draws=[(9, 0.3, 15, [5, 15], shift) for shift in range(3)]
         + [(9, 0.3, 15, [11, 3], 3), (9, 0.3, 25, [25], 4)])
def test_kept_rows_are_the_bits_of_one_draw(n, draws):
    # small blocks, so reads cross block edges, and a small cap, so tables
    # are evicted and some draws are too large to keep; rows around every
    # center carry the bits of sample_ball's own draw, cold and warm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "SAMPLE_BLOCK", 7)
        mp.setattr(verify, "ENTRY_BYTES", 64)
        mp.setattr(verify, "OFFSET_BYTES", 1500)
        fresh_offsets(mp)
        drawn = counted_draw_rows(mp)
        for seed, radius, total, reads, shift in draws:
            center = np.resize(np.roll(CENTER_EXTREMES, shift), n)
            key = (seed, n, struct.pack("d", radius), total)
            fits = verify.ENTRY_BYTES + total * n * 8 <= verify.OFFSET_BYTES
            warm = verify._OFFSETS.get(key) is not None
            # new or too large: in place; seen once: the whole table
            expected = (max(min(c, total) for c in reads)
                        if key not in verify._OFFSETS or not fits
                        else 0 if warm else total)
            drawn.clear()
            draw = verify._BallDraw(center, radius, seed, total)
            one = sample_ball(center, radius, np.random.default_rng(seed),
                              out=np.empty((total, n)))
            for count in reads:
                rows = draw.upto(min(count, total))
                assert rows.tobytes() == one[:len(rows)].tobytes()
            assert sum(drawn) == expected
            for table in kept_tables():
                assert not np.shares_memory(rows, table)
            for (s, k, bits, t), table in verify._OFFSETS.items():
                if table is not None:
                    r = struct.unpack("d", bits)[0]
                    assert table.tobytes() == offsets_drawn(s, k, r, t).tobytes()


def test_the_kept_table_survives_an_estimate(monkeypatch):
    # the estimate writes gradients over its rows; the kept offsets stay a
    # fresh draw, so the next certificate of the key reads the same rows
    fresh_offsets(monkeypatch)
    monkeypatch.setattr(verify, "ESTIMATE_FACTOR", 0.0)
    record, cert = fresh_cert(seed=0)
    first = check_certificate(cert, record.spec, samples=300, seed=3)
    assert first.reason == "stationarity-estimate"
    assert list(verify._OFFSETS.values()) == [None]  # the key, seen once
    assert check_certificate(cert, record.spec, samples=300, seed=3) == first
    (table,) = kept_tables()
    fresh = offsets_drawn(4, cert.anchor.size, cert.delta, 300)
    assert table.tobytes() == fresh.tobytes()
    assert check_certificate(cert, record.spec, samples=300, seed=3) == first
    assert table.tobytes() == fresh.tobytes()


def test_each_seed_dimension_and_delta_has_its_own_table(monkeypatch):
    fresh_offsets(monkeypatch)
    keys = [(4, 2, 0.3, 50), (5, 2, 0.3, 50), (4, 3, 0.3, 50), (4, 2, 0.25, 50),
            (4, 2, 0.3, 40), (4, 2, 0.0, 50), (4, 2, -0.0, 50),
            (4, 2, math.nan, 50)]
    for _ in range(2):  # in place, then from each key's table
        for seed, n, radius, total in keys:
            rows = verify._BallDraw(np.full(n, -0.0), radius, seed,
                                    total).upto(total)
            one = offsets_drawn(seed, n, radius, total)
            assert rows.tobytes() == one.tobytes()
    # 0.0 and -0.0 are equal deltas whose offsets differ in sign, and a NaN
    # delta is found again by its bits
    assert len(kept_tables()) == len(verify._OFFSETS) == len(keys)


def test_kept_bytes_never_exceed_the_cap(monkeypatch):
    fresh_offsets(monkeypatch)
    monkeypatch.setattr(verify, "OFFSET_BYTES", 40_000 + verify.ENTRY_BYTES)
    rows = counted_draw_rows(monkeypatch)
    for n in (1, 2, 10, 50):
        for radius in (0.05, 0.1, math.nan, 0.05):
            for total in (100, 400, 1000):
                draw = verify._BallDraw(np.zeros(n), radius, 1, total)
                draw.upto(total)
                kept_tables()
    # 100 rows at n = 50 fill the cap alone; more rows there are not kept
    assert [t.shape for t in verify._OFFSETS.values()] == [(100, 50)]
    # a NaN delta's key is found again by its bits: in place, a table, warm
    for drawn in (10, 10, 0):
        rows.clear()
        nan = verify._BallDraw(np.zeros(1), math.nan, 1, 10).upto(10)
        assert np.isnan(nan).all() and sum(rows) == drawn
    kept_tables()
    # every entry counts, however small its rows: many keys of 16 rows
    for seed in range(40):
        for _ in range(2):
            verify._BallDraw(np.zeros(1), 0.05, seed, 16).upto(16)
            kept_tables()
    assert len(verify._OFFSETS) <= verify.OFFSET_BYTES // verify.ENTRY_BYTES


def test_the_verifier_draws_every_row_through_sample_ball(monkeypatch):
    # perfbench's core.sample_ball hook counts verify.sample_ball: every row
    # a verification reads is drawn through it once, kept or not
    fresh_offsets(monkeypatch)
    record, cert = fresh_cert(seed=0)
    rows = counted_draw_rows(monkeypatch)
    # the estimate's 64 rows in place, the key's whole table, then warm
    for drawn in (64, 500, 0):
        rows.clear()
        check_certificate(cert, record.spec, samples=500)
        assert sum(rows) == drawn
    monkeypatch.setattr(verify, "OFFSET_BYTES", 0)  # too large to keep
    rows.clear()
    check_certificate(cert, record.spec, samples=500, seed=1)
    assert sum(rows) == 64
    assert verify._OFFSETS.keys() == {(1, 2, struct.pack("d", cert.delta), 500)}


def test_a_table_whose_draw_fails_draws_the_same_rows_again(monkeypatch):
    # the key's table draw raises after its first block and keeps nothing;
    # later checks of the key still read the rows of one draw
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 64)
    fresh_offsets(monkeypatch)
    record, cert = fresh_cert(seed=0)
    expected = check_certificate(cert, record.spec, samples=300)
    draw_block = verify.sample_ball
    blocks = []

    def failing(center, radius, rng, out):
        assert not verify._OFFSETS_LOCK.locked()  # drawn outside the lock
        blocks.append(len(out))
        draw_block(center, radius, rng, out)
        if len(blocks) == 2:
            raise KeyboardInterrupt
        return out

    monkeypatch.setattr(verify, "sample_ball", failing)
    with pytest.raises(KeyboardInterrupt):
        check_certificate(cert, record.spec, samples=300)
    assert list(verify._OFFSETS.values()) == [None]
    monkeypatch.setattr(verify, "sample_ball", draw_block)
    rows = counted_draw_rows(monkeypatch)
    for drawn in (300, 0):  # the table again, then warm
        rows.clear()
        assert check_certificate(cert, record.spec, samples=300) == expected
        assert sum(rows) == drawn
    (table,) = kept_tables()
    fresh = offsets_drawn(1, cert.anchor.size, cert.delta, 300)
    assert table.tobytes() == fresh.tobytes()


def test_threads_sharing_a_cold_key_read_the_rows_of_one_draw(monkeypatch):
    # more threads than cores, switching often, each verifying the same
    # certificate on a cold key; every report is the one-thread report
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 16)
    record, cert = fresh_cert(seed=0)
    seeds = range(12)
    fresh_offsets(monkeypatch)
    expected = [check_certificate(cert, record.spec, samples=800, seed=s)
                for s in seeds]
    fresh_offsets(monkeypatch)
    reports = collections.defaultdict(list)

    def verify_all():
        for s in seeds:
            reports[s].append(check_certificate(cert, record.spec,
                                                samples=800, seed=s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=verify_all) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [reports[s] for s in seeds] == [[e] * 4 for e in expected]


ACCEPTANCE_MEMBERS = {"ball-linear": ("ball-linear", {}),
                      "l1-ball": ("l1-ball", {}),
                      "footnote-1d": ("footnote-1d", {}),
                      "footnote-2c": ("footnote-2c", {}),
                      "pl-nonconvex": ("pl-nonconvex", {}),
                      "ball-linear-n10": ("ball-linear", {"dim": 10}),
                      "pl-nonconvex-n10": ("pl-nonconvex", {"dim": 10})}


def counted_grad_rows(monkeypatch) -> list[int]:
    """Rows handed to ``Subproblem.grads`` from now on, one entry per call."""
    grads = Subproblem.grads
    rows = []

    def counted(self, z):
        rows.append(len(z))
        return grads(self, z)

    monkeypatch.setattr(Subproblem, "grads", counted)
    return rows


@pytest.mark.parametrize("inner", ["rand", "bisect"])
@pytest.mark.parametrize("member", ACCEPTANCE_MEMBERS)
def test_acceptance_certificates_pass_the_estimate_early(monkeypatch, member,
                                                         inner):
    name, params = ACCEPTANCE_MEMBERS[member]
    record = get_problem(name, **params)
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner, seed=0)
    cert, _ = solve(record.spec, config, record.start)
    rows = counted_grad_rows(monkeypatch)
    report = check_certificate(cert, record.spec)
    estimate = report.checks[ESTIMATE]
    assert report.passed, (report.reason, estimate.detail)
    # the hull of the first 64 or 128 rows already proves the check
    assert sum(rows) <= 128
    assert estimate.detail.endswith("at %d of 10000 samples" % sum(rows))


def test_a_failing_estimate_reads_every_row_once(monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 7)
    monkeypatch.setattr(verify, "ESTIMATE_FACTOR", 0.0)
    record, cert = fresh_cert(seed=0)
    cold = goldstein_estimate(cert.anchor, record.spec, cert.delta, 300, seed=4)
    hulls = []

    def kept(points, **kwargs):
        hulls.append((np.array(points), min_norm_over_hull(points, **kwargs)))
        return hulls[-1][1]

    monkeypatch.setattr(verify, "min_norm_over_hull", kept)
    rows = counted_grad_rows(monkeypatch)
    report = check_certificate(cert, record.spec, samples=300, seed=3)
    assert report.reason == "stationarity-estimate"
    assert sum(rows) == 300  # every row's gradient, none twice
    assert [len(points) for points, _ in hulls] == [64, 128, 256, 300]
    grads = drawn_grads(cert.anchor, record.spec, cert.delta, 300, seed=4)
    assert np.array_equal(hulls[-1][0], grads)
    assert same_hull(cold, min_norm_over_hull(grads))
    assert hulls[-1][1].min_norm <= cold.min_norm + HULL_TOL


def never_called(*args, **kwargs):
    raise AssertionError("ran although the outcome was already known")


def test_stop_at_first_failure_skips_the_rest(monkeypatch):
    record, cert = fresh_cert(seed=6)
    bad = copy.deepcopy(cert)
    bad.combination[0].__dict__["weight"] = bad.combination[0].weight + 0.1
    # no code of a later check runs: no oracle call of the recompute, and no
    # draw of the ball
    for name in ("Subproblem", "sample_ball", "_BallDraw", "min_norm_over_hull"):
        monkeypatch.setattr(verify, name, never_called)
    report = check_certificate(bad, record.spec, samples=10,
                               stop_at_first_failure=True)
    assert report.reason == "weights-sum"
    assert [c.name for c in report.checks] == ["weights-nonnegative", "weights-sum"]


VECTOR = CHECK_ORDER.index("vector-recompute")


def counted_recomputes(monkeypatch) -> list[str]:
    """The name of each ``Subproblem.grad`` or ``dir_grad`` call from now on."""
    calls = []
    for name in ("grad", "dir_grad"):
        def counted(self, *args, _name=name, _oracle=getattr(Subproblem, name)):
            calls.append(_name)
            return _oracle(self, *args)

        monkeypatch.setattr(Subproblem, name, counted)
    return calls


def full_and_fast(monkeypatch, record, cert):
    """(full report, fast report, entries the fast one recomputed)."""
    calls = counted_recomputes(monkeypatch)
    full = check_certificate(cert, record.spec, samples=10)
    assert len(calls) == len(cert.combination)  # the full run reads them all
    calls.clear()
    fast = check_certificate(cert, record.spec, samples=10,
                             stop_at_first_failure=True)
    assert (fast.reason, fast.corrupt) == (full.reason, full.corrupt) \
        == ("vector-recompute", True)
    assert [c.name for c in fast.checks] == list(CHECK_ORDER[:VECTOR + 1])
    return full, fast, len(calls)


@pytest.mark.parametrize("inner", ["rand", "bisect"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_fast_recompute_stops_at_the_forged_entry(monkeypatch, inner, where):
    record, cert = acceptance_cert("pl-nonconvex-n10", inner, 0)
    size = len(cert.combination)
    i = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    bad = copy.deepcopy(cert)
    bad.combination[i].vector[0] += 1e-3 * (i + 1)
    full, fast, read = full_and_fast(monkeypatch, record, bad)
    assert read == i + 1
    # honest entries recompute to a mismatch of exactly 0
    assert fast.checks[VECTOR] == full.checks[VECTOR]


@pytest.mark.parametrize("inner", ["rand", "bisect"])
def test_fast_recompute_reports_the_first_of_two_forged_entries(monkeypatch,
                                                                inner):
    record, cert = acceptance_cert("pl-nonconvex-n10", inner, 0)
    bad = copy.deepcopy(cert)
    bad.combination[1].vector[0] += 1e-3
    bad.combination[-1].vector[0] += 1e-2  # the worse one, read last
    full, fast, read = full_and_fast(monkeypatch, record, bad)
    assert read == 2
    assert full.checks[VECTOR].detail.startswith("worst oracle mismatch 0.01 ")
    assert fast.checks[VECTOR].detail.startswith("worst oracle mismatch 0.001 ")


@pytest.mark.parametrize("inner", ["rand", "bisect"])
@pytest.mark.parametrize("fault", ["nan", "relabelled"])
def test_fast_recompute_stops_at_a_nan_or_relabelled_entry(monkeypatch, inner,
                                                           fault):
    record, cert = acceptance_cert("pl-nonconvex-n10", inner, 0)
    bad = copy.deepcopy(cert)
    entry = bad.combination[2]
    if fault == "nan":
        entry.vector[:] = np.nan
    else:  # the other side of the max: pl-nonconvex has one constraint
        entry.__dict__["branch"] = 1 - entry.branch
    full, fast, read = full_and_fast(monkeypatch, record, bad)
    assert read == 3
    assert fast.checks[VECTOR] == full.checks[VECTOR]
    assert ("nan" if fault == "nan" else "inf") in fast.checks[VECTOR].detail


def counted_draw_rows(monkeypatch) -> list[int]:
    """Ball rows the verifier draws from now on, one entry per draw."""
    sample_ball = verify.sample_ball
    rows = []

    def counted(center, radius, rng, out):
        rows.append(len(out))
        return sample_ball(center, radius, rng, out)

    monkeypatch.setattr(verify, "sample_ball", counted)
    return rows


def test_stop_at_a_slackness_failure_computes_no_estimate(monkeypatch):
    # the bound needs no sample: a slackness failure draws no ball row, and
    # its key stays unseen, so the next check of the key draws in place
    record, cert = fresh_cert(seed=0)
    assert cert.gamma > 0.0
    fresh_offsets(monkeypatch)  # a cold process
    monkeypatch.setattr(verify, "slack_bound", lambda m, delta: 0.0)
    for name in ("_BallDraw", "sample_ball", "min_norm_over_hull"):
        monkeypatch.setattr(verify, name, never_called)
    monkeypatch.setattr(Subproblem, "grads", never_called)
    for _ in range(2):
        report = check_certificate(cert, record.spec, samples=1000,
                                   stop_at_first_failure=True)
        assert report.reason == "complementary-slackness"
        assert tuple(c.name for c in report.checks) == CHECK_ORDER[:ESTIMATE]
    assert not verify._OFFSETS


def test_a_constraint_free_combination_draws_64_rows(monkeypatch):
    # gamma = 0: the slackness check reads no row, and the estimate's first
    # checkpoint already passes (the defaults of `goldsub verify --fast`)
    record = get_problem("l1-ball")
    cert, _ = solve(record.spec, SolverConfig(delta=0.05, target_eps=0.05),
                    record.start)
    assert cert.gamma == 0.0
    fresh_offsets(monkeypatch)  # a cold process
    rows = counted_draw_rows(monkeypatch)
    report = check_certificate(cert, record.spec, stop_at_first_failure=True)
    assert report.passed
    assert sum(rows) == 64
    assert report.checks[ESTIMATE].detail.endswith("at 64 of 10000 samples")
    for drawn in (10_000, 0):  # the key's whole table, then warm
        rows.clear()
        assert check_certificate(cert, record.spec,
                                 stop_at_first_failure=True) == report
        assert sum(rows) == drawn


def test_a_constraint_weighted_combination_draws_64_rows(monkeypatch):
    # gamma > 0: the slackness bound reads no row either, so a cold check at
    # the `goldsub verify` defaults draws only the estimate's first 64 rows
    record, cert = fresh_cert(seed=0)
    assert cert.gamma > 0.0
    fresh_offsets(monkeypatch)  # a cold process
    rows = counted_draw_rows(monkeypatch)
    report = check_certificate(cert, record.spec)
    assert report.passed
    assert sum(rows) == 64
    assert report.checks[ESTIMATE].detail.endswith("at 64 of 10000 samples")


# --------------------------------------------------------------- slackness

SLACKNESS = CHECK_ORDER.index("complementary-slackness")


@functools.cache
def acceptance_cert(member, inner, seed):
    """(record, certificate) of one solve of an acceptance member."""
    name, params = ACCEPTANCE_MEMBERS[member]
    record = get_problem(name, **params)
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner, seed=seed)
    return record, solve(record.spec, config, record.start)[0]


@pytest.mark.parametrize("inner", ["rand", "bisect"])
@pytest.mark.parametrize("member", ACCEPTANCE_MEMBERS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 3), stream=st.integers(0, 2**32 - 1))
def test_the_exact_slackness_bound_covers_every_drawn_row(member, inner, seed,
                                                          stream):
    # whenever M holds, gamma * (|g(anchor)| + M*delta) is at least the
    # largest |gamma * g| over any draw of the ball, here 10^4 rows
    record, cert = acceptance_cert(member, inner, seed)
    check = check_certificate(cert, record.spec, samples=64).checks[SLACKNESS]
    assert check.passed, check.detail
    exact = float(check.detail.split()[4])
    assert exact == cert.gamma * (abs(cert.g_anchor)
                                  + record.spec.lipschitz_m * cert.delta)
    drawn = slack_max(cert, record.spec, np.random.default_rng(stream), 10_000)
    assert exact >= drawn


def test_the_slackness_bound_and_the_m_guard_are_inclusive():
    # the largest |g(anchor)| that passes, then the next double; the same
    # for the longest recomputed vector against M(1 + VECTOR_MATCH_REL)
    m, delta = 1.0, 0.05
    bound = verify.slack_bound(m, delta)
    g = bound - m * delta
    while g + m * delta <= bound:
        g = math.nextafter(g, math.inf)
    below = math.nextafter(g, 0.0)
    assert verify.check_slackness(1.0, -below, m, m, delta).passed
    assert not verify.check_slackness(1.0, -g, m, m, delta).passed
    longest = m * (1.0 + verify.VECTOR_MATCH_REL)
    assert verify.check_slackness(1.0, 0.0, longest, m, delta).passed
    above = math.nextafter(longest, math.inf)
    check = verify.check_slackness(1.0, 0.0, above, m, delta)
    assert not check.passed
    assert check.detail == ("gamma*(|g(anchor)| + M*delta) = %.17g vs bound "
                            "%.17g; max ||v|| = %.17g vs M = 1"
                            % (m * delta, bound, above))


def test_an_oracle_that_breaks_m_fails_the_slackness_check():
    # ball-linear's objective gradient has norm 1, twice the stated M; the
    # product alone stays within 3*M*delta, as a draw of the ball does
    record, cert = fresh_cert(seed=0)
    spec = dataclasses.replace(record.spec, lipschitz_m=record.spec.lipschitz_m / 2)
    for fast in (True, False):
        report = check_certificate(cert, spec, samples=64,
                                   stop_at_first_failure=fast)
        assert report.reason == "complementary-slackness"
    tokens = report.checks[SLACKNESS].detail.split()
    assert float(tokens[4]) <= verify.slack_bound(spec.lipschitz_m, cert.delta)
    assert float(tokens[11]) == 1.0 > spec.lipschitz_m
    drawn = slack_max(cert, spec, np.random.default_rng(0), 10_000)
    assert drawn <= verify.slack_bound(spec.lipschitz_m, cert.delta)


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
    report = check_certificate(cert, record.spec, samples=100)
    assert report.passed, report.reason
    assert sum(at_anchor) == 1


def test_zero_samples_is_usage_error_before_any_check(monkeypatch):
    record, cert = fresh_cert(seed=0)
    monkeypatch.setattr(verify, "_checks", never_called)
    with pytest.raises(UsageError, match="samples must be positive"):
        check_certificate(cert, record.spec, samples=0)


# ------------------------------------------------------------ conversions


def counted_conversions(monkeypatch, module) -> collections.Counter:
    """How often ``module._as_vector`` converts each object, by id, from now
    on."""
    as_vector = module._as_vector
    seen = collections.Counter()

    def counted(x, *args, **kwargs):
        seen[id(x)] += 1
        return as_vector(x, *args, **kwargs)

    monkeypatch.setattr(module, "_as_vector", counted)
    return seen


@pytest.mark.parametrize("inner", ["rand", "bisect"])
def test_verification_converts_each_stored_array_once(monkeypatch, inner):
    record = get_problem("footnote-2c")
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner)
    cert, _ = solve(record.spec, config, record.start)
    # decoded, as `goldsub verify` reads it: every stored array its own object
    cert, _ = certificate_from_data(json.loads(dumps(certificate_data(cert))))
    stored = [cert.anchor, cert.zeta]
    for w in cert.combination:
        stored += [w.point, w.vector] + ([] if w.direction is None
                                         else [w.direction])
    assert (inner == "bisect") == (len(stored) > 2 + 2 * len(cert.combination))
    seen = counted_conversions(monkeypatch, verify)
    report = check_certificate(cert, record.spec, samples=200)
    assert report.passed and len(report.checks) == len(CHECK_ORDER)
    assert [seen[id(array)] for array in stored] == [1] * len(stored)
    assert sum(seen.values()) == len(stored)


def test_certify_converts_no_array(monkeypatch):
    # the search's arrays are checked where they are made, so certify takes
    # them as they are: the certificate holds the very arrays it was handed
    record = get_problem("footnote-2c")
    config = SolverConfig(delta=0.05, target_eps=0.05)
    cert, _ = solve(record.spec, config, record.start)
    combo = [dataclasses.replace(w, point=w.point.copy(), vector=w.vector.copy())
             for w in cert.combination]
    seen = [counted_conversions(monkeypatch, module) for module in (core, verify)]
    again = certify(cert.anchor, combo, record.spec, config, cert.zeta,
                    (cert.f_anchor, cert.g_anchor))
    assert not hasattr(solver, "_as_vector")
    assert [sum(counter.values()) for counter in seen] == [0, 0]
    assert again.anchor is cert.anchor and again.zeta is cert.zeta
    assert all(a.point is w.point and a.vector is w.vector
               for a, w in zip(again.combination, combo, strict=True))
    assert dumps(certificate_data(again)) == dumps(certificate_data(cert))
