"""Acceptance suite: ten desk-scale guarantees the package must honor.

Each criterion is one test that prints a single CRITERION line on success;
on failure the assert message is the line.  The seed sweeps are shared
module fixtures so the whole file costs a few minutes, dominated by the
10^4-sample certificate checks of criterion 5.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time

import numpy as np
import pytest

from goldsub.inner_bisect import bisect_call_budget
from goldsub.inner_rand import rand_call_budget
from goldsub.problems import ball_linear_sigma, get_problem
from goldsub.serialize import certificate_data, dumps, trace_data
from goldsub.solver import BISECT, RAND, SolverConfig, solve
from goldsub.verify import check_certificate, goldstein_estimate

DELTA = 0.05
EPS = 0.05
RAND_SEEDS = tuple(range(100))
BISECT_SEEDS = (0, 1, 2)

# registry defaults plus ten-dimensional members, so the runtime and bound
# claims are exercised up to n = 10
MEMBERS = (
    ("ball-linear", {}),
    ("l1-ball", {}),
    ("footnote-1d", {}),
    ("footnote-2c", {}),
    ("pl-nonconvex", {}),
    ("ball-linear", {"dim": 10}),
    ("pl-nonconvex", {"dim": 10}),
)
TWO_DIM = ("ball-linear", "l1-ball", "pl-nonconvex")


def member_label(name, params):
    return name if not params else "%s(n=%d)" % (name, params["dim"])


def run_member(name, params, inner, seed, **config_kw):
    record = get_problem(name, **params)
    config = SolverConfig(delta=DELTA, target_eps=EPS, inner=inner, seed=seed,
                          **config_kw)
    cert, trace = solve(record.spec, config, record.start)
    return record, cert, trace


@pytest.fixture(scope="module")
def rand_sweep():
    out = {}
    for name, params in MEMBERS:
        record = get_problem(name, **params)
        runs = []
        started = time.perf_counter()
        for seed in RAND_SEEDS:
            config = SolverConfig(delta=DELTA, target_eps=EPS, inner=RAND,
                                  seed=seed)
            runs.append(solve(record.spec, config, record.start))
        wall = time.perf_counter() - started
        out[member_label(name, params)] = (record, runs, wall)
    return out


@pytest.fixture(scope="module")
def bisect_sweep():
    out = {}
    for name, params in MEMBERS:
        record = get_problem(name, **params)
        runs = []
        started = time.perf_counter()
        for seed in BISECT_SEEDS:
            config = SolverConfig(delta=DELTA, target_eps=EPS, inner=BISECT,
                                  seed=seed)
            runs.append(solve(record.spec, config, record.start))
        wall = time.perf_counter() - started
        out[member_label(name, params)] = (record, runs, wall)
    return out


@pytest.fixture(scope="module")
def kkt_runs():
    record = get_problem("ball-linear")
    sigma = ball_linear_sigma(DELTA)
    coarse = []
    for seed in range(5):
        config = SolverConfig(delta=DELTA, target_eps=EPS, inner=RAND,
                              seed=seed, kkt_mode=True, gcq_sigma=sigma)
        coarse.append(solve(record.spec, config, record.start))
    sigma_fine = ball_linear_sigma(0.01)
    fine = []
    for inner in (RAND, BISECT):
        config = SolverConfig(delta=0.01, target_eps=0.01, inner=inner,
                              seed=0, kkt_mode=True, gcq_sigma=sigma_fine)
        fine.append(solve(record.spec, config, record.start))
    return record, sigma, coarse, sigma_fine, fine


def iter_steps(trace):
    """Consecutive record pairs: the step k -> k+1 was a descent step."""
    return zip(trace.records, trace.records[1:])


def descent_bar(trace):
    return trace.descent_fraction * trace.delta * trace.eps_effective


# --------------------------------------------------------------- criteria


def test_criterion_01_descent_feasibility_and_runtime(rand_sweep, bisect_sweep):
    for sweep, inner in ((rand_sweep, RAND), (bisect_sweep, BISECT)):
        for label, (record, runs, wall) in sweep.items():
            assert wall < 10.0, "%s %s sweep took %.1fs" % (label, inner, wall)
            for cert, trace in runs:
                bar = descent_bar(trace)
                for before, after in iter_steps(trace):
                    drop = before["f"] - after["f"]
                    assert drop >= bar - 1e-12, (label, inner, before["k"])
                    assert after["g"] <= -bar + 1e-12, (label, inner, after["k"])
    print("CRITERION 1 PASS: per-step descent and strict feasibility "
          "on %d members, both inner searches, under 10s per sweep"
          % len(MEMBERS))


def test_criterion_02_outer_iteration_bound(rand_sweep, bisect_sweep):
    checked = 0
    for sweep in (rand_sweep, bisect_sweep):
        for label, (record, runs, _) in sweep.items():
            if record.spec.p_star is None:
                continue
            f0 = record.spec.objective.value(record.start)
            for cert, trace in runs:
                bound = math.ceil((f0 - record.spec.p_star) / descent_bar(trace))
                assert trace.outer_steps <= bound, (label, trace.outer_steps, bound)
                assert trace.lemma_bound == max(1, bound)
                checked += 1
    assert checked >= 700
    print("CRITERION 2 PASS: outer steps within ceil(gap/(C delta eps)) "
          "on %d runs with known optimum" % checked)


def test_criterion_03_randomized_call_budget(rand_sweep):
    for label, (record, runs, _) in rand_sweep.items():
        taus = {trace.tau_prime for _, trace in runs}
        assert len(taus) == 1
        tau_prime = taus.pop()
        invocations = 0
        over = 0
        for _, trace in runs:
            budget = rand_call_budget(record.spec.lipschitz_m,
                                      trace.eps_effective, tau_prime)
            for step in trace.records:
                invocations += 1
                if step["inner_oracle_calls"] > budget:
                    over += 1
        assert invocations >= 500, label
        fraction = over / invocations
        assert fraction <= tau_prime + 0.03, (label, fraction, tau_prime)
    print("CRITERION 3 PASS: randomized search call budget respected "
          "within tau' + 0.03 on every member")


def test_criterion_04_deterministic_budget_and_replay(bisect_sweep):
    for label, (record, runs, _) in bisect_sweep.items():
        spec = record.spec
        modulus = spec.nonconvexity_f + spec.nonconvexity_g
        for cert, trace in runs:
            budget = bisect_call_budget(spec.lipschitz_m,
                                        trace.eps_effective, modulus)
            for step in trace.records:
                assert step["inner_oracle_calls"] <= budget, (label, step["k"])
        # the seed feeds only certification sampling: traces must agree
        first = runs[0][1]
        for _, trace in runs[1:]:
            assert trace.records == first.records, label
        # an honest replay of the same configuration is byte-identical
        name, params = next(m for m in MEMBERS
                            if member_label(*m) == label)
        _, cert2, trace2 = run_member(name, params, BISECT, BISECT_SEEDS[0])
        assert dumps(trace_data(trace2)) == dumps(trace_data(first))
        assert dumps(certificate_data(cert2)) == dumps(
            certificate_data(runs[0][0]))
    print("CRITERION 4 PASS: bisection call budget held exactly and "
          "replays are byte-identical")


def test_criterion_05_every_certificate_verifies(rand_sweep, bisect_sweep,
                                                 kkt_runs):
    pool = []
    for sweep in (rand_sweep, bisect_sweep):
        for label, (record, runs, _) in sweep.items():
            pool.extend((label, record, cert) for cert, _ in runs)
    record, _, coarse, _, fine = kkt_runs
    pool.extend(("kkt", record, cert) for cert, _ in coarse + fine)
    full = 0
    for label, record, cert in pool:
        report = check_certificate(cert, record.spec, samples=10_000, seed=0)
        for check in report.checks:
            if check.name == "stationarity-estimate":
                continue
            assert check.passed, (label, check.name, check.detail)
        # the sampled estimate loses power with dimension; demanding it
        # here is the low-dimensional half, criterion 6 covers the rest
        if record.spec.dim <= 2:
            assert report.passed, (label, report.reason)
            full += 1
    print("CRITERION 5 PASS: %d certificates re-verified from scratch "
          "at 10^4 samples (%d with the sampled estimate included)"
          % (len(pool), full))


def test_criterion_06_independent_stationarity_estimate(rand_sweep,
                                                        bisect_sweep):
    checked = 0
    for label in TWO_DIM:
        record, runs, _ = rand_sweep[label]
        anchors = [cert.anchor for cert, _ in runs[:10]]
        anchors.append(bisect_sweep[label][1][0][0].anchor)
        for idx, anchor in enumerate(anchors):
            est = goldstein_estimate(anchor, record.spec, DELTA, 10_000,
                                     seed=6000 + idx)
            limit = 1.1 * runs[0][1].eps_effective
            assert est.min_norm <= limit, (label, idx, est.min_norm)
            checked += 1
    print("CRITERION 6 PASS: sampled Goldstein estimate within 1.1 eps "
          "at %d returned anchors" % checked)


def test_criterion_07_kkt_multiplier_bounds(kkt_runs):
    record, sigma, coarse, sigma_fine, fine = kkt_runs
    m = record.spec.lipschitz_m
    for cert, _ in coarse:
        eps_tilde = sigma * EPS / (EPS + sigma + m)
        assert cert.eps_effective == pytest.approx(eps_tilde, abs=1e-15)
        bound = (sigma + m) / (sigma - eps_tilde) - 1.0
        assert cert.lam is not None
        assert 0.0 <= cert.lam <= bound + 1e-12
        assert cert.kkt_lambda_bound == pytest.approx(bound, abs=1e-12)
    target = np.zeros(record.spec.dim)
    target[0] = -1.0
    for cert, _ in fine:
        assert float(np.linalg.norm(cert.anchor - target)) <= 0.1
        assert 0.7 <= cert.lam <= 1.4
    print("CRITERION 7 PASS: KKT multipliers within the analytic bound, "
          "fine run lands at the optimum with lambda near 1")


def test_criterion_08_known_optimum_convergence(rand_sweep, bisect_sweep):
    record, rand_runs, _ = rand_sweep["l1-ball"]
    _, bisect_runs, _ = bisect_sweep["l1-ball"]
    spec = record.spec

    # brute-force estimate of the optimal value over the feasible box
    rng = np.random.default_rng(88)
    best = math.inf
    for _ in range(200):
        pts = rng.uniform(-1.2, 1.2, size=(1000, spec.dim))
        feasible = pts[np.sum(pts * pts, axis=1) <= 1.0]
        if feasible.size:
            best = min(best, float(np.abs(feasible).sum(axis=1).min()))
    assert 0.0 <= best <= 0.05, best

    for cert, _ in rand_runs + bisect_runs:
        assert cert.f_anchor <= 0.15
        assert cert.f_anchor <= best + 0.15
    print("CRITERION 8 PASS: l1-ball finals at most 0.15, consistent with "
          "a brute-force optimum estimate of %.4f" % best)


def test_criterion_09_finite_difference_oracle_fidelity():
    for name, params in MEMBERS:
        if params:
            continue
        record = get_problem(name)
        spec = record.spec
        oracles = [spec.objective] + list(spec.constraints)

        rng = np.random.default_rng(7001)
        points = [record.domain_sampler(rng) for _ in range(1000)]
        h = 1e-6
        for x in points:
            for oracle in oracles:
                grad = np.asarray(oracle.grad(x), dtype=float)
                for j in range(spec.dim):
                    e = np.zeros(spec.dim)
                    e[j] = h
                    fd = (oracle.value(x + e) - oracle.value(x - e)) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-6, (name, "grad", j)

        # smaller step: one-sided quotients see the full curvature error
        rng = np.random.default_rng(7003)
        points = [record.domain_sampler(rng) for _ in range(1000)]
        h = 1e-8
        for x in points:
            v = rng.standard_normal(spec.dim)
            v /= float(np.linalg.norm(v))
            for oracle in oracles:
                vec = np.asarray(oracle.dir_grad(x, v), dtype=float)
                fd = (oracle.value(x + h * v) - oracle.value(x)) / h
                assert abs(float(vec @ v) - fd) <= 1e-6, (name, "dir")
    print("CRITERION 9 PASS: both oracle modes match finite differences "
          "at 1e-6 on 10^3 points per problem")


def test_criterion_10_injected_faults_all_rejected(rand_sweep):
    labels = list(rand_sweep)
    rejected = {"weights-sum": 0, "points-in-ball": 0, "vector-recompute": 0}
    for i in range(100):
        record, runs, _ = rand_sweep[labels[i % len(labels)]]
        cert = runs[i][0]
        dim = record.spec.dim
        rng = np.random.default_rng(9000 + i)

        bad = copy.deepcopy(cert)
        j = int(rng.integers(len(bad.combination)))
        bad.combination[j] = dataclasses.replace(
            bad.combination[j], weight=bad.combination[j].weight + 0.1)
        expect_reject(bad, record, "weights-sum", corrupt=False, tally=rejected)

        bad = copy.deepcopy(cert)
        u = rng.standard_normal(dim)
        u /= float(np.linalg.norm(u))
        bad.anchor = bad.anchor + 2.0 * cert.delta * u
        expect_reject(bad, record, "points-in-ball", corrupt=False,
                      tally=rejected)

        bad = copy.deepcopy(cert)
        j = int(rng.integers(len(bad.combination)))
        u = rng.standard_normal(dim)
        u /= float(np.linalg.norm(u))
        bad.combination[j] = dataclasses.replace(
            bad.combination[j], vector=bad.combination[j].vector + 1e-3 * u)
        expect_reject(bad, record, "vector-recompute", corrupt=True,
                      tally=rejected)

    assert sum(rejected.values()) == 300
    assert all(count == 100 for count in rejected.values())
    print("CRITERION 10 PASS: 300 injected faults rejected, 100 per class, "
          "each with its own failure reason")


def expect_reject(cert, record, reason, corrupt, tally):
    report = check_certificate(cert, record.spec, samples=50,
                               stop_at_first_failure=True)
    assert not report.passed
    assert report.reason == reason, (report.reason, reason)
    assert report.corrupt is corrupt
    tally[reason] += 1
