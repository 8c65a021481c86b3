"""Outer descent loop and certificates."""

from __future__ import annotations

import collections
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from goldsub import inner_rand, solver, verify
from goldsub.core import (Oracle, ProblemSpec, ReducedConstraint, Subproblem,
                          WeightedSubgradient)
from goldsub.errors import (
    BudgetExceededError,
    CertificationError,
    InfeasibleStartError,
    OracleError,
    UsageError,
)
from goldsub.inner_rand import rand_call_budget
from goldsub.problems import ball_linear_sigma, constant_constraint, get_problem
from goldsub.serialize import (certificate_data, certificate_from_data, dumps,
                               trace_data)
from goldsub.solver import (
    BISECT,
    RAND,
    SolverConfig,
    SolveTrace,
    certify,
    solve,
)

BALL = get_problem("ball-linear")


def unit_combo(vector, branch=0, point=None):
    point = np.zeros(2) if point is None else np.asarray(point, dtype=float)
    return [WeightedSubgradient(point=point, vector=np.asarray(vector, dtype=float),
                                branch=branch, weight=1.0)]


def certify_as_solve(anchor, combo, spec, config):
    """``certify`` with what ``solve`` passes: the combination's own sum as
    zeta, and f and g read at the anchor."""
    anchor = np.asarray(anchor, dtype=float)
    values = (spec.objective.value(anchor), ReducedConstraint(spec).value(anchor)[0])
    zeta = verify.recombine(combo, [w.vector for w in combo], spec.dim)
    return certify(anchor, combo, spec, config, zeta, values)


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
    assert config.eps_effective(1.0) == verify.eps_effective(0.1, 1.0, 0.5)
    # sigma without KKT mode is ignored
    plain = SolverConfig(delta=0.1, target_eps=0.1, gcq_sigma=0.5)
    assert plain.eps_effective(1.0) == verify.eps_effective(0.1, 1.0, None)


def test_eps_effective_that_underflows_is_usage_error():
    # sigma * eps / (eps + sigma + M) = 1e-600 rounds to 0
    config = SolverConfig(delta=0.05, target_eps=1e-300, kkt_mode=True,
                          gcq_sigma=1e-300)
    with pytest.raises(UsageError,
                       match=r"^eps_effective = 0 must be positive and finite$"):
        solve(BALL.spec, config, BALL.start)


# ----------------------------------------------------------------- certify


def test_certify_fritz_john_eta_bound():
    config = SolverConfig(delta=0.1, target_eps=1.5)
    cert = certify_as_solve(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec, config)
    assert verify.slack_bound(BALL.spec.lipschitz_m, cert.delta) \
        == 3.0 * 1.0 * 0.1 + verify.SLACK_TOL
    assert cert.gamma0 == 1.0
    assert cert.lam == 0.0
    assert cert.kkt_eps is None


def test_certify_kkt_fields():
    config = SolverConfig(delta=0.1, target_eps=0.1, kkt_mode=True,
                          gcq_sigma=0.5)
    eps_t = config.eps_effective(1.0)
    cert = certify_as_solve(np.zeros(2), unit_combo([0.02, 0.0]), BALL.spec,
                            config)
    # the numbers themselves are test_verify's kkt_claims tests
    assert (cert.kkt_eps, cert.kkt_eta, cert.kkt_lambda_bound, cert.warnings) \
        == verify.kkt_claims(eps_t, 0.5, 1.0, 0.1, 1.0)
    assert cert.kkt_eps == pytest.approx(0.1)
    assert cert.gcq_sigma == 0.5
    assert cert.eps_effective == eps_t


def test_certify_kkt_without_objective_mass_warns():
    config = SolverConfig(delta=0.05, target_eps=0.1, kkt_mode=True,
                          gcq_sigma=0.5)
    anchor = np.array([-1.0, 0.0])
    combo = [
        WeightedSubgradient(point=anchor, vector=np.array([1.0, 0.0]),
                            branch=1, weight=0.5),
        WeightedSubgradient(point=anchor, vector=np.array([-1.0, 0.0]),
                            branch=1, weight=0.5),
    ]
    with pytest.warns(UserWarning, match="Fritz-John"):
        cert = certify_as_solve(anchor, combo, BALL.spec, config)
    assert cert.lam is None
    assert cert.kkt_eps is None
    assert cert.warnings == [verify.NO_OBJECTIVE_MASS]


def test_certify_rejects_broken_combinations():
    config = SolverConfig(delta=0.1, target_eps=1.5)
    with pytest.raises(CertificationError, match="weights-nonnegative"):
        certify_as_solve(np.zeros(2), [], BALL.spec, config)
    bad_weight = unit_combo([1.0, 0.0])
    bad_weight[0] = WeightedSubgradient(np.zeros(2), np.array([1.0, 0.0]),
                                        0, -0.2)
    with pytest.raises(CertificationError, match="negative"):
        certify_as_solve(np.zeros(2), bad_weight, BALL.spec, config)
    off_simplex = unit_combo([1.0, 0.0])
    off_simplex[0] = WeightedSubgradient(np.zeros(2), np.array([1.0, 0.0]),
                                         0, 0.9)
    with pytest.raises(CertificationError, match="sum"):
        certify_as_solve(np.zeros(2), off_simplex, BALL.spec, config)
    with pytest.raises(CertificationError, match="zeta-recompute"):
        certify(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec, config,
                np.array([0.5, 0.0]), (0.0, -1.0))
    with pytest.raises(CertificationError, match="zeta-norm-bound"):
        certify_as_solve(np.zeros(2), unit_combo([1.0, 0.0]), BALL.spec,
                         SolverConfig(delta=0.1, target_eps=0.5))
    far = unit_combo([1.0, 0.0], point=[0.5, 0.0])
    with pytest.raises(CertificationError, match="distance"):
        certify_as_solve(np.zeros(2), far, BALL.spec, config)
    with pytest.raises(CertificationError, match="anchor-feasible"):
        certify_as_solve(np.array([1.5, 0.0]),
                         unit_combo([1.0, 0.0], point=[1.5, 0.0]), BALL.spec, config)


# ------------------------------------------------------------------- solve


def solve_ball(seed=0, inner=RAND, delta=0.05, eps=0.05, **kw):
    config = SolverConfig(delta=delta, target_eps=eps, inner=inner, seed=seed,
                          **kw)
    return solve(BALL.spec, config, BALL.start)


def spy_anchors(monkeypatch, search: str) -> list:
    """Copies of the anchors ``solve`` hands its inner search, in order: the
    iterates x_0, x_1, ..., which the trace does not store."""
    anchors = []
    original = getattr(solver, search)

    def spied(anchor, *args, **kwargs):
        anchors.append(np.array(anchor))
        return original(anchor, *args, **kwargs)

    monkeypatch.setattr(solver, search, spied)
    return anchors


def test_solve_descends_to_the_constrained_minimum(monkeypatch):
    anchors = spy_anchors(monkeypatch, "rand_search")
    cert, trace = solve_ball(seed=0)
    c = 0.25
    bar = c * 0.05 * 0.05
    records = trace.records
    assert len(anchors) == len(records)
    assert anchors[0].tolist() == [0.0, 0.0]
    assert np.array_equal(anchors[-1], cert.anchor)
    assert records[-1]["inner_outcome"] == "stationary"
    for before, after, x, x_next in zip(records, records[1:], anchors,
                                        anchors[1:]):
        assert before["inner_outcome"] == "descent"
        assert before["f"] - after["f"] >= bar - 1e-12
        assert after["g"] <= -bar + 1e-12
        assert float(np.linalg.norm(x_next - x)) == pytest.approx(0.05, abs=1e-12)
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


# what a trace record holds: scalars about x_k and its inner run, never
# x_k itself, so a trace grows with the steps and not with steps x n
RECORD_KEYS = {"k", "f", "g", "zeta_norm", "inner_outcome", "inner_oracle_calls",
               "inner_value_calls", "inner_iterations", "inner_probe_ties",
               "descent_amount"}


@pytest.mark.parametrize("inner", [RAND, BISECT])
def test_trace_records_hold_scalars_only(inner):
    for name, params in MEMBERS:
        record = get_problem(name, **params)
        config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner)
        _, trace = solve(record.spec, config, record.start)
        for rec in trace.records:
            assert set(rec) == RECORD_KEYS, name
            assert all(type(value) in (str, int, float, type(None))
                       for value in rec.values()), (name, rec)


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
@pytest.mark.parametrize("kkt", [False, True], ids=["fritz-john", "kkt"])
def test_certificate_branches_are_plain_indices(inner, kkt):
    # a branch is 0 for the objective and i for constraint i, in memory and
    # after a round trip through the certificate document
    seen = set()
    for name, params in MEMBERS:
        record = get_problem(name, **params)
        config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner,
                              kkt_mode=kkt,
                              gcq_sigma=ball_linear_sigma(0.05) if kkt else None)
        cert, _ = solve(record.spec, config, record.start)
        branches = [w.branch for w in cert.combination]
        assert all(type(b) is int and 0 <= b <= len(record.spec.constraints)
                   for b in branches), (name, branches)
        back, _ = certificate_from_data(certificate_data(cert))
        assert [w.branch for w in back.combination] == branches
        assert all(type(w.branch) is int for w in back.combination)
        seen.update(branches)
    assert seen == {0, 1, 2}  # footnote-2c's second constraint occurs


# numpy's Python-level wrappers around C functions: np.linalg.norm, the
# ndarray reductions (.max, .sum, .any, ...) and np.argmax and its kin
# (numpy 1.x keeps the last two under numpy/core/, numpy 2 under numpy/_core/)
NUMPY_WRAPPERS = re.compile(r"numpy/(linalg/|_?core/(_methods|fromnumeric)\.py)")


@pytest.mark.parametrize("inner", [RAND, BISECT])
def test_round_loop_enters_no_numpy_wrapper(inner):
    # an oracle call costs its arithmetic plus numpy's per-call overhead;
    # inside the round loop the corpus oracles reach numpy's C functions
    # directly, so no Python frame of a numpy wrapper is entered there
    search = inner_rand._search.__code__
    depth = searches = 0
    entered = collections.Counter()
    label = None

    def profile(frame, event, arg):
        nonlocal depth, searches
        code = frame.f_code
        if code is search:
            depth += {"call": 1, "return": -1}.get(event, 0)
            searches += event == "call"
        elif depth and event == "call":
            path = code.co_filename.replace("\\", "/")
            if NUMPY_WRAPPERS.search(path):
                entered[label, code.co_name, frame.f_back.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, params in MEMBERS:
            label = "%s %s" % (name, params)
            record = get_problem(name, **params)
            config = SolverConfig(delta=0.05, target_eps=0.05, inner=inner)
            solve(record.spec, config, record.start)
    finally:
        sys.setprofile(previous)
    assert depth == 0 and searches >= len(MEMBERS)
    assert not entered, sorted(entered)


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


def test_bisect_opens_every_anchor_along_the_first_basis_vector(monkeypatch):
    # the search opens where it stands, whatever the previous step's
    # direction was; the call budget does not depend on it
    queries = []
    dir_grad = Subproblem.dir_grad

    def spied(sub, z, v):
        queries.append((sub, np.array(z), np.array(v), z is sub.anchor))
        return dir_grad(sub, z, v)

    monkeypatch.setattr(Subproblem, "dir_grad", spied)
    anchors = spy_anchors(monkeypatch, "bisect_search")
    record = get_problem("pl-nonconvex")
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=BISECT)
    _, trace = solve(record.spec, config, record.start)
    assert trace.outer_steps > 1
    firsts = {}
    for sub, z, v, at_anchor in queries:
        firsts.setdefault(id(sub), (sub, z, v, at_anchor))
    assert len(firsts) == len(trace.records) == len(anchors)
    assert anchors[0].tolist() == record.start.tolist()
    for (sub, z, v, at_anchor), x in zip(firsts.values(), anchors):
        assert z.tolist() == x.tolist() == sub.anchor.tolist()
        assert v.tolist() == [1.0, 0.0]
        assert at_anchor  # the opening query is the anchor array itself


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
    # no step was taken, and the totals count the capped run's calls
    assert trace.outer_steps == 0
    assert trace.oracle_calls == 10
    assert trace.value_calls == 1 + err.value.partial["value_calls"]


@pytest.mark.parametrize("inner", [RAND, BISECT])
def test_outer_cap_stops_before_the_step_past_it(inner):
    with pytest.raises(BudgetExceededError, match="outer cap 2 exhausted") as err:
        solve_ball(inner=inner, outer_cap=2)
    trace = err.value.partial["trace"]
    assert trace.outer_steps == 2
    # the last record is the search whose descent was not taken
    assert [r["k"] for r in trace.records] == [0, 1, 2]
    assert trace.records[-1]["inner_outcome"] == inner_rand.DESCENT


def test_understated_p_star_exceeds_the_descent_lemma_bound():
    spec = dataclasses.replace(BALL.spec, p_star=-1e-6)
    config = SolverConfig(delta=0.05, target_eps=0.05)
    with pytest.raises(BudgetExceededError,
                       match="outer step 2 exceeds the descent-lemma bound 1"):
        solve(spec, config, BALL.start)


def test_tau_prime_splits_the_failure_budget():
    cert, trace = solve_ball(seed=0, tau=0.1)
    # f(x0) - p_star = 1: ceil(4 * 1 / (0.05 * 0.05)) = 1600 outer steps at
    # most, so 1601 inner searches
    assert trace.tau_prime == pytest.approx(0.1 / 1601)
    _, bise = solve_ball(seed=0, inner=BISECT)
    assert bise.tau_prime is None


@pytest.mark.parametrize("p_star", [None, -1e-6])
def test_the_failure_budget_covers_every_rand_invocation(p_star):
    # a solve that exhausts its step bound K, outer_cap without p_star and
    # the descent-lemma bound (1 here) with it, makes K + 1 inner searches,
    # the most it can: one per step taken, then the one whose step trips K
    spec = dataclasses.replace(BALL.spec, p_star=p_star)
    config = SolverConfig(delta=0.05, target_eps=0.05, tau=0.1, outer_cap=3)
    with pytest.raises(BudgetExceededError) as err:
        solve(spec, config, BALL.start)
    trace = err.value.partial["trace"]
    bound = config.outer_cap if p_star is None else trace.lemma_bound
    assert len(trace.records) == bound + 1
    assert len(trace.records) * trace.tau_prime <= config.tau


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


def test_a_bisect_solve_without_known_moduli_runs_uncapped_by_a_budget():
    # an unknown nonconvexity modulus leaves the bisection budget
    # uncheckable: no budget, and the cap falls back to the unbounded one
    spec = dataclasses.replace(BALL.spec, nonconvexity_f=None)
    config = SolverConfig(delta=0.05, target_eps=0.05, inner=BISECT)
    cert, trace = solve(spec, config, BALL.start)
    assert trace.inner_budget is None
    assert trace.call_cap == solver._UNBOUNDED_CAP
    assert verify.check_certificate(cert, spec).passed
    known, _ = solve(BALL.spec, config, BALL.start)
    assert dumps(certificate_data(cert)) == dumps(certificate_data(known))


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
    # solve reads f(x0) and g(x0) at the start; certify reads no oracle
    with pytest.raises(OracleError):
        solve(bad, config, np.zeros(2))
