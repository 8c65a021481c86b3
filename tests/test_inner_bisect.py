"""Slope-guided bisection: probe traces, budgets, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from goldsub.core import Oracle, ProblemSpec, Subproblem
from goldsub.errors import BudgetExceededError, ModulusError, UsageError
from goldsub.inner_bisect import (
    C_BISECT,
    bisect_call_budget,
    bisect_negative_slope,
    bisect_search,
    default_max_steps,
)
from goldsub.inner_rand import DESCENT, STATIONARY
from goldsub.problems import get_problem


def max_affine_oracle(lines) -> Oracle:
    """f(p) = max_i (a_i * p + b_i) on one variable, with exact one-sided
    directional derivatives at the kinks."""
    lines = [(float(a), float(b)) for a, b in lines]

    def value(x):
        p = float(x[0])
        return max(a * p + b for a, b in lines)

    def grad(x):
        p = float(x[0])
        top = value(x)
        for a, b in lines:  # lowest index among attaining lines
            if a * p + b == top:
                return np.array([a])
        raise AssertionError

    def dir_grad(x, v):
        p = float(x[0])
        top = value(x)
        slopes = [a for a, b in lines if a * p + b == top]
        best = max(slopes, key=lambda a: a * float(v[0]))
        return np.array([best])

    return Oracle(value=value, grad=grad, dir_grad=dir_grad)


def piecewise_problem(objective: Oracle, m: float = 10.0) -> ProblemSpec:
    slack = Oracle(value=lambda x: -10.0, grad=lambda x: np.zeros(1),
                   dir_grad=lambda x, v: np.zeros(1))
    return ProblemSpec(dim=1, objective=objective, constraints=(slack,),
                       lipschitz_m=m, neighborhood_delta=100.0)


def two_slope_oracle(left: float, right: float, kink: float = 0.5) -> Oracle:
    """Slope ``left`` below the kink, ``right`` above, continuous."""
    return max_affine_oracle([(left, 0.0),
                              (right, (left - right) * kink)]) \
        if right >= left else _concave_two_slope(left, right, kink)


def _concave_two_slope(left: float, right: float, kink: float) -> Oracle:
    # concave kink: min of two lines, written out directly
    b_right = (left - right) * kink

    def value(x):
        p = float(x[0])
        return min(left * p, right * p + b_right)

    def grad(x):
        p = float(x[0])
        return np.array([left if p <= kink else right])

    def dir_grad(x, v):
        p = float(x[0])
        if p < kink:
            return np.array([left])
        if p > kink:
            return np.array([right])
        return np.array([right if float(v[0]) > 0 else left])

    return Oracle(value=value, grad=grad, dir_grad=dir_grad)


def test_default_max_steps_covers_float_resolution():
    # 64 extra steps on top of the bisection depth of the mantissa
    assert default_max_steps(1.0) == 64 + 52
    assert default_max_steps(0.25) == 64 + 52


# ------------------------------------------------------ negative-slope find

# the tests below bisect the ray r |-> 1 + (r - 1) * UNIT, r in [0, 1]:
# anchor 1, unit direction, delta = eps = 1
UNIT = np.array([1.0])


def test_concave_kink_found_in_one_probe():
    # slope +0.2 then -0.4 along the ray; the midpoint lands on the kink and
    # its right slope -0.4 already beats eps/2
    prob = piecewise_problem(_concave_two_slope(0.2, -0.4, 0.5))
    sub = Subproblem(prob, np.array([1.0]))
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, 1.0, 1.0, l_far=0.0, l_anchor=-0.6)
    assert r == 0.5
    assert np.array_equal(vec, [-0.4])
    assert branch == 0
    assert probes == 1
    assert ties == 0
    assert h_m == pytest.approx(0.2)  # f(0.5) - f(1.0)


def test_flat_restriction_returns_midpoint_immediately():
    prob = piecewise_problem(max_affine_oracle([(0.0, 0.0)]))
    sub = Subproblem(prob, np.array([1.0]))
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, 1.0, 1.0, l_far=0.0, l_anchor=-0.5)
    assert r == 0.5
    assert probes == 1
    assert np.array_equal(vec, [0.0])
    assert h_m == 0.0


def test_convex_restriction_recurses_into_steeper_half():
    # convex kink at 0.5 with slopes -1 / +0.6: the midpoint probe fails
    # (slope 0.6 - 0.5 >= 0), the left half has the smaller average slope,
    # and the second probe at 0.25 succeeds
    prob = piecewise_problem(max_affine_oracle([(-1.0, 0.0), (0.6, -0.8)]))
    sub = Subproblem(prob, np.array([1.0]))
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, 1.0, 1.0, l_far=0.2, l_anchor=-0.5)
    assert r == 0.25
    assert probes == 2
    assert np.array_equal(vec, [-1.0])


def test_concave_restriction_recurses_into_right_half():
    # slope 0.6 up to the kink at 0.75, -3 after: the midpoint probe fails
    # (0.6 - 0.5 >= 0), the right half has the smaller average slope, and
    # the second probe lands on the kink, whose right slope -3 passes
    prob = piecewise_problem(_concave_two_slope(0.6, -3.0, 0.75))
    sub = Subproblem(prob, np.array([1.0]))
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, 1.0, 1.0, l_far=0.3, l_anchor=-0.5)  # f(0) - f(1) = 0.3
    assert r == 0.75
    assert np.array_equal(vec, [-3.0])
    assert probes == 2
    assert ties == 0


def test_probe_slope_of_exactly_half_eps_counts_a_tie():
    # convex kink at 0.5 with slopes -1 / +0.5: the midpoint's slope along
    # the ray is exactly eps/2, a tie that fails the probe; the left half
    # then gives r = 0.25
    prob = piecewise_problem(two_slope_oracle(-1.0, 0.5, 0.5))
    sub = Subproblem(prob, np.array([1.0]))
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, 1.0, 1.0, l_far=0.25, l_anchor=-0.5)  # f(0) - f(1) = 0.25
    assert ties == 1
    assert r == 0.25
    assert probes == 2
    assert np.array_equal(vec, [-1.0])


@pytest.mark.parametrize("seed", range(20))
def test_convex_restrictions_return_probe_satisfying_points(seed):
    # random convex max-affine objectives, tilted so the restriction loses
    # height; whatever point comes back must itself pass the probe test
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    slopes = np.sort(rng.uniform(-3.0, 3.0, size=k))
    offsets = rng.uniform(-1.0, 1.0, size=k)
    raw = max_affine_oracle(list(zip(slopes, offsets)))
    tilt = raw.value(np.array([1.0])) - raw.value(np.array([0.0])) + 0.3
    oracle = max_affine_oracle([(a - tilt, b) for a, b in zip(slopes, offsets)])
    prob = piecewise_problem(oracle)
    anchor = np.array([1.0])
    sub = Subproblem(prob, anchor)
    delta, eps = 1.0, 1.0
    l_far = sub.value_full(anchor - delta * UNIT)[0]
    l_anchor = sub.h_anchor - eps * delta / 2.0
    assert l_far > l_anchor
    r, vec, branch, h_m, probes, ties = bisect_negative_slope(
        sub, UNIT, delta, eps, l_far, l_anchor)
    fresh = Subproblem(prob, anchor)
    _, _, _, dd = fresh.dir_grad(anchor + (r - delta) * UNIT, UNIT)
    assert dd - eps / 2.0 < 0.0
    assert probes <= 32


def test_negative_slope_requires_losing_height():
    prob = piecewise_problem(max_affine_oracle([(1.0, 0.0)]))
    sub = Subproblem(prob, np.array([1.0]))
    with pytest.raises(UsageError):
        bisect_negative_slope(sub, UNIT, 1.0, 1.0, l_far=-0.5, l_anchor=0.0)


def test_dishonest_oracle_exhausts_steps():
    # slope +1 everywhere: no point can pass the probe, so claiming the
    # endpoints lose height must end in ModulusError
    prob = piecewise_problem(max_affine_oracle([(1.0, 0.0)]))
    sub = Subproblem(prob, np.array([1.0]))
    with pytest.raises(ModulusError):
        bisect_negative_slope(sub, UNIT, 1.0, 1.0, l_far=1.0, l_anchor=0.0)
    assert 0 < sub.subgrad_calls <= default_max_steps(1.0)


# ------------------------------------------------------------------ budget


def test_call_budget_formula():
    assert bisect_call_budget(1.0, 0.1, 0.0) == 1600
    # powers of two keep 12 * total / eps exact in floating point
    assert bisect_call_budget(3.0, 0.0625, 0.25) == 36864 * (1 + 48)


# ------------------------------------------------------------------ search


def test_descent_in_one_call_far_from_stationarity():
    record = get_problem("ball-linear")
    result = bisect_search(np.zeros(2), record.spec, 0.25, 0.5, 100_000)
    assert result.outcome == DESCENT
    assert np.array_equal(result.zeta, [1.0, 0.0])
    assert result.oracle_calls == 1
    assert result.iterations == 0
    assert result.probe_ties == 0
    assert result.descent_amount == 0.25
    assert result.descent_amount >= C_BISECT * 0.25 * 0.5
    assert np.allclose(result.descent_point, [-0.25, 0.0])
    combo = result.combination
    assert len(combo) == 1
    assert combo[0].direction is not None  # directional query is recorded


def test_stationary_in_one_call_when_eps_dominates_lipschitz():
    record = get_problem("ball-linear")
    result = bisect_search(np.zeros(2), record.spec, 0.25, 1.0, 100_000)
    assert result.outcome == STATIONARY
    assert result.oracle_calls == 1
    assert result.zeta_norm <= 1.0


def test_infeasible_anchor_is_rejected():
    record = get_problem("ball-linear")
    with pytest.raises(UsageError, match="infeasible"):
        bisect_search(np.array([1.2, 0.0]), record.spec, 0.1, 0.1, 100_000)


def test_multi_round_run_is_deterministic_and_within_budget(watch_rounds):
    record = get_problem("pl-nonconvex")
    spec = record.spec
    anchor = np.array([0.02, -0.01])
    eps = 0.05
    budget = bisect_call_budget(spec.lipschitz_m, eps,
                                spec.nonconvexity_f + spec.nonconvexity_g)
    a = bisect_search(anchor, spec, 0.05, eps, budget)
    b = bisect_search(anchor, spec, 0.05, eps, budget)
    assert a.outcome == STATIONARY
    assert a.iterations >= 1
    assert a.oracle_calls <= budget
    assert np.array_equal(a.zeta, b.zeta)
    assert a.oracle_calls == b.oracle_calls
    assert a.value_calls == b.value_calls
    assert a.iterations == b.iterations
    trajectory, replay = watch_rounds
    assert trajectory == replay
    assert len(trajectory) == a.iterations + 1
    assert trajectory[-1]["zeta_norm"] == a.zeta_norm
    norms = [snap["zeta_norm"] for snap in trajectory]
    for x, y in zip(norms, norms[1:]):
        assert y <= x + 1e-12
    for snap in trajectory:
        assert snap["recombine_residual"] <= 1e-9 * 3.0
        assert abs(snap["weight_sum"] - 1.0) <= 1e-12
        assert snap["min_weight"] >= 0.0
    weights = [w.weight for w in a.combination]
    assert abs(sum(weights) - 1.0) <= 1e-12
    for w in a.combination:
        assert float(np.linalg.norm(w.point - anchor)) <= 0.05 * (1 + 1e-12)


def test_call_cap_raises_with_partial_state():
    # kinks of the 1-norm keep feeding fresh subgradients, so an unreachable
    # eps has to run into the cap
    record = get_problem("pl-nonconvex")
    with pytest.raises(BudgetExceededError) as err:
        bisect_search(np.array([0.02, -0.01]), record.spec, 0.05, 1e-9, 25)
    partial = err.value.partial
    # the cap is checked before each bisection round, so a round in flight
    # may overrun it by its own probes
    assert partial["oracle_calls"] >= 25
    assert partial["iterations"] >= 1


def test_axis_aligned_optimum_collapses_exactly():
    # at (-1, 0) the ray stays on the axis, the two branch subgradients are
    # exact opposites, and the segment projection lands on exactly zero
    record = get_problem("ball-linear")
    result = bisect_search(np.array([-1.0, 0.0]), record.spec, 0.05, 1e-9,
                           100_000)
    assert result.outcome == STATIONARY
    assert result.zeta_norm == 0.0
    assert result.oracle_calls == 2
