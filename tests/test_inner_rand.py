"""Randomized minimal-norm search: hand-traced exits and exit invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest

import goldsub.inner_rand as inner_rand
from goldsub.core import WeightedSubgradient
from goldsub.errors import BudgetExceededError, UsageError
from goldsub.inner_bisect import bisect_search
from goldsub.inner_rand import (
    C_RAND,
    DESCENT,
    STATIONARY,
    rand_call_budget,
    rand_search,
)
from goldsub.problems import get_problem


def run(name, anchor, delta, eps, seed=0, cap=100_000, **kw):
    record = get_problem(name)
    rng = np.random.default_rng(seed)
    return rand_search(np.asarray(anchor, dtype=float), record.spec, delta,
                       eps, rng, cap, **kw)


def check_combination(result, anchor, delta, m):
    weights = [w.weight for w in result.combination]
    assert all(w > 0.0 for w in weights)
    assert abs(sum(weights) - 1.0) <= 1e-12
    recombined = sum(w.weight * w.vector for w in result.combination)
    assert float(np.linalg.norm(recombined - result.zeta)) <= 1e-9 * m
    for w in result.combination:
        assert float(np.linalg.norm(w.point - np.asarray(anchor))) <= delta * (1 + 1e-12)
        assert w.direction is None  # gradient-mode entries carry no direction


# ------------------------------------------------------------- hand traces


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_descent_in_one_call_far_from_stationarity(seed):
    # anchor (0,0): every gradient in the ball is the objective's (1, 0);
    # the trial step drops h by delta, well past the delta*||zeta||/4 bar
    result = run("ball-linear", [0.0, 0.0], 0.25, 0.5, seed=seed)
    assert result.outcome == DESCENT
    assert np.array_equal(result.zeta, [1.0, 0.0])
    assert result.oracle_calls == 1
    assert result.iterations == 0
    assert result.descent_amount == 0.25
    assert result.descent_amount > 0.25 * float(np.linalg.norm(result.zeta)) / 4.0
    assert np.allclose(result.descent_point, [-0.25, 0.0])
    assert result.descent_f == -0.25
    assert result.descent_g == -0.75
    check_combination(result, [0.0, 0.0], 0.25, 1.0)


def test_stationary_in_one_call_when_eps_dominates_lipschitz():
    # any first gradient already has norm <= M <= eps
    result = run("ball-linear", [0.0, 0.0], 0.25, 1.0, seed=3)
    assert result.outcome == STATIONARY
    assert result.oracle_calls == 1
    assert result.iterations == 0
    assert result.zeta_norm <= 1.0


def test_descent_amount_is_reused_from_the_paid_evaluation():
    result = run("ball-linear", [0.0, 0.0], 0.25, 0.5, seed=5)
    spec = get_problem("ball-linear").spec
    trial = result.descent_point
    f_trial = spec.objective.value(trial)
    g_trial = spec.constraints[0].value(trial)
    assert result.descent_f == f_trial
    assert result.descent_g == g_trial
    assert result.descent_amount == 0.0 - max(f_trial - 0.0, g_trial)


# --------------------------------------------------------- loop invariants


def test_zeta_norm_is_non_increasing_along_the_run(watch_rounds):
    # near the interior optimum no descent step exists, so the search has to
    # iterate the segment projection until ||zeta|| <= eps
    result = run("l1-ball", [0.02, -0.01], 0.05, 0.05, seed=11)
    [trajectory] = watch_rounds
    assert len(trajectory) == result.iterations + 1
    assert trajectory[-1]["zeta_norm"] == result.zeta_norm
    norms = [snap["zeta_norm"] for snap in trajectory]
    assert len(norms) >= 2
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12
    for snap in trajectory:
        assert snap["recombine_residual"] <= 1e-9 * 3.0
        assert abs(snap["weight_sum"] - 1.0) <= 1e-12
        assert snap["min_weight"] >= 0.0


@pytest.mark.parametrize("name,anchor", [
    ("ball-linear", [-0.9, 0.0]),
    ("l1-ball", [0.9, -0.3]),
    ("footnote-1d", [-0.95]),
    ("pl-nonconvex", [0.9, -0.7]),
])
def test_exit_invariants_across_problems(name, anchor):
    record = get_problem(name)
    m = record.spec.lipschitz_m
    for seed in range(5):
        result = run(name, anchor, 0.05, 0.05, seed=seed)
        check_combination(result, anchor, 0.05, m)
        if result.outcome == STATIONARY:
            assert result.zeta_norm <= 0.05
        else:
            assert result.outcome == DESCENT
            assert result.zeta_norm > 0.05
            assert result.descent_amount > 0.05 * result.zeta_norm / 4.0
            assert result.descent_amount > C_RAND * 0.05 * 0.05


def test_same_seed_replays_bitwise():
    a = run("l1-ball", [0.9, -0.3], 0.05, 0.05, seed=21)
    b = run("l1-ball", [0.9, -0.3], 0.05, 0.05, seed=21)
    assert np.array_equal(a.zeta, b.zeta)
    assert a.oracle_calls == b.oracle_calls
    assert a.value_calls == b.value_calls
    assert a.iterations == b.iterations
    assert a.outcome == b.outcome
    assert len(a.combination) == len(b.combination)
    for wa, wb in zip(a.combination, b.combination):
        assert np.array_equal(wa.point, wb.point)
        assert np.array_equal(wa.vector, wb.vector)
        assert wa.weight == wb.weight
        assert wa.branch == wb.branch


def test_anchor_values_skip_the_initial_value_call():
    cold = run("ball-linear", [0.0, 0.0], 0.25, 0.5, seed=2)
    warm = run("ball-linear", [0.0, 0.0], 0.25, 0.5, seed=2,
               anchor_values=(0.0, -1.0))
    assert cold.value_calls == warm.value_calls + 1
    assert np.array_equal(cold.zeta, warm.zeta)


# ------------------------------------------------------------------ errors


def test_infeasible_anchor_is_rejected():
    with pytest.raises(UsageError, match="infeasible"):
        run("ball-linear", [1.2, 0.0], 0.1, 0.1)


def test_nonpositive_delta_or_eps_rejected():
    with pytest.raises(UsageError):
        run("ball-linear", [0.0, 0.0], 0.0, 0.1)
    with pytest.raises(UsageError):
        run("ball-linear", [0.0, 0.0], 0.1, -1.0)


def test_call_cap_raises_with_partial_state():
    # at the optimum no descent exists and eps is unreachably tight, so the
    # projection loop must run into the cap
    with pytest.raises(BudgetExceededError) as err:
        run("ball-linear", [-1.0, 0.0], 0.05, 1e-9, seed=4, cap=3)
    partial = err.value.partial
    assert partial["oracle_calls"] == 3
    assert partial["iterations"] >= 1
    weights = [w.weight for w in partial["combination"]]
    assert abs(sum(weights) - 1.0) <= 1e-12
    assert float(np.linalg.norm(partial["zeta"])) > 0.005
    # the partial state is exported when the error is raised
    assert type(partial["combination"]) is list
    assert all(type(w) is WeightedSubgradient for w in partial["combination"])
    recombined = sum(w.weight * w.vector for w in partial["combination"])
    assert float(np.linalg.norm(recombined - partial["zeta"])) <= 1e-12


# ------------------------------------------------------------- combination


def unit_term(i):
    """A (point, vector, branch, direction) term told apart by its point."""
    return np.array([float(i)]), np.array([1.0]), 0, None


def test_combination_update_at_t_one_leaves_one_entry():
    combo = inner_rand._Combination(unit_term(0))
    combo.segment_update(0.5, unit_term(1))
    combo.segment_update(1.0, unit_term(2))
    exported = combo.export()
    assert len(exported) == 1
    assert exported[0].weight == 1.0
    assert exported[0].point[0] == 2.0


def test_combination_folds_its_shared_factor_before_underflow():
    # 0.01^n drops below 1e-250 after about 125 updates
    combo = inner_rand._Combination(unit_term(0))
    for i in range(1, 131):
        combo.segment_update(0.99, unit_term(i))
    assert combo.scale > 1e-250  # folded: unfolded it would be about 1e-260
    weights = [w.weight for w in combo.export()]
    assert min(weights) >= 0.0
    assert abs(math.fsum(weights) - 1.0) <= 1e-12


# ------------------------------------------------------------------ budget


def test_call_budget_formula():
    # M=1, eps=0.1, tau=0.1: ceil(6400) * ceil(2 ln 10) = 6400 * 5
    assert rand_call_budget(1.0, 0.1, 0.1) == 6400 * 5
    assert rand_call_budget(2.0, 0.5, 0.5) == math.ceil(64 * 4 / 0.25) * 2


def test_call_budget_rejects_degenerate_tau():
    with pytest.raises(UsageError):
        rand_call_budget(1.0, 0.1, 0.0)
    with pytest.raises(UsageError):
        rand_call_budget(1.0, 0.1, 1.0)


def test_invocations_stay_within_budget_empirically():
    # tau = 0.2: over 100 seeds the exceed fraction should be far below it
    budget = rand_call_budget(1.0, 0.05, 0.2)
    exceed = 0
    for seed in range(100):
        result = run("ball-linear", [-0.97, 0.0], 0.05, 0.05, seed=seed,
                     cap=10 * budget)
        assert result.outcome in (DESCENT, STATIONARY)
        if result.oracle_calls > budget:
            exceed += 1
    assert exceed / 100.0 <= 0.2


# -------------------------------------------- contract of both searches

SEARCHES = {
    "rand": lambda anchor, spec, delta, eps, **kw: rand_search(
        anchor, spec, delta, eps, np.random.default_rng(3), 100_000, **kw),
    "bisect": lambda anchor, spec, delta, eps, **kw: bisect_search(
        anchor, spec, delta, eps, 100_000, **kw),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("anchor, eps, outcome, entries", [
    ([0.05, 0.05], 0.01, DESCENT, 2),
    ([0.02, -0.01], 0.05, STATIONARY, 5),
])
def test_combination_equals_an_export_at_return(monkeypatch, search, anchor,
                                                eps, outcome, entries):
    # reference: the combination exported the moment the result is built
    eager = []
    build = inner_rand.InnerResult.__init__

    def exporting(self, *args, **kwargs):
        build(self, *args, **kwargs)
        eager.append(self.terms.export())

    monkeypatch.setattr(inner_rand.InnerResult, "__init__", exporting)
    spec = get_problem("pl-nonconvex").spec
    result = SEARCHES[search](np.array(anchor), spec, 0.05, eps)
    # later searches on the same problem leave the result as it was
    SEARCHES[search](np.array([0.3, 0.3]), spec, 0.05, 0.01)
    assert result.outcome == outcome
    combination = result.combination
    assert combination is result.combination  # exported once
    reference = eager[0]
    assert len(combination) == len(reference) == entries
    for got, want in zip(combination, reference):
        assert got.weight == want.weight
        assert np.array_equal(got.point, want.point)
        assert np.array_equal(got.vector, want.vector)
        assert got.branch == want.branch
        if search == "rand":
            assert got.direction is None and want.direction is None
        else:
            assert np.array_equal(got.direction, want.direction)


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("anchor", [
    pytest.param([math.nan, 0.0], id="nan"),
    pytest.param([0.0, 0.0, 0.0], id="wrong-dimension"),
    pytest.param([[0.0, 0.0]], id="2-d"),
])
def test_anchor_without_its_values_is_validated(search, anchor):
    spec = get_problem("ball-linear").spec
    with pytest.raises(UsageError):
        SEARCHES[search](np.array(anchor), spec, 0.05, 0.05)
