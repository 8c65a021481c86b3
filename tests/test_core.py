"""Subproblem construction, branch selection, and segment projection."""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsub.core import (
    MAX_SAMPLES,
    OBJECTIVE,
    Branch,
    Oracle,
    ProblemSpec,
    ReducedConstraint,
    Subproblem,
    sample_ball,
    sample_blocks,
    segment_projection_coefficient,
)
from goldsub.errors import OracleError, UsageError
from goldsub.problems import get_problem


def linear_1d(slope_f: float, slope_g: float) -> ProblemSpec:
    """f(x) = slope_f * x, one constraint g(x) = slope_g * x."""
    def oracle(s):
        vec = np.array([s])
        return Oracle(value=lambda x: s * float(x[0]),
                      grad=lambda x: vec.copy(),
                      dir_grad=lambda x, v: vec.copy())
    return ProblemSpec(dim=1, objective=oracle(slope_f),
                       constraints=(oracle(slope_g),),
                       lipschitz_m=max(abs(slope_f), abs(slope_g), 1.0),
                       neighborhood_delta=1.0)


# ---------------------------------------------------------------- segments


def min_norm_on_segment(a, b):
    """The segment point the inner searches move zeta to."""
    t = segment_projection_coefficient(a, b)
    return (1.0 - t) * a + t * b


def test_min_norm_on_segment_degenerate_endpoint():
    a = np.array([3.0, 4.0])
    out = min_norm_on_segment(a, a.copy())
    assert np.array_equal(out, a)
    assert segment_projection_coefficient(a, a.copy()) == 0.0


def test_min_norm_on_segment_crosses_origin():
    out = min_norm_on_segment(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0], atol=1e-15)


def test_min_norm_on_segment_interior_projection():
    a, b = np.array([2.0, 0.0]), np.array([0.0, 1.0])
    t = segment_projection_coefficient(a, b)
    assert abs(t - 0.8) < 1e-15
    out = min_norm_on_segment(a, b)
    assert np.allclose(out, [0.4, 0.8], atol=1e-15)
    assert abs(float(np.linalg.norm(out)) - 2.0 / math.sqrt(5.0)) < 1e-12
    # grid cross-check: no point of the segment does better
    grid = np.linspace(0.0, 1.0, 20001)
    seg = np.outer(1.0 - grid, a) + np.outer(grid, b)
    assert float(np.linalg.norm(out)) <= float(np.linalg.norm(seg, axis=1).min()) + 1e-12


def test_min_norm_on_segment_dimension_mismatch():
    # mismatched endpoints must not broadcast into a coefficient
    with pytest.raises(ValueError):
        segment_projection_coefficient(np.array([1.0]), np.array([1.0, 2.0]))


finite_vecs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


@settings(max_examples=300, derandomize=True)
@given(finite_vecs)
def test_min_norm_on_segment_properties(pair):
    a = np.asarray(pair[0])
    b = np.asarray(pair[1])
    out = min_norm_on_segment(a, b)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    assert float(np.linalg.norm(out)) <= min(
        float(np.linalg.norm(a)), float(np.linalg.norm(b))) + 1e-9 * scale
    # the result lies on the segment
    t = segment_projection_coefficient(a, b)
    assert 0.0 <= t <= 1.0
    assert np.allclose(out, (1.0 - t) * a + t * b, atol=1e-9 * scale)


# ------------------------------------------------------------ h evaluation


def test_eval_h_zero_at_feasible_anchor():
    prob = get_problem("ball-linear").spec
    anchor = np.array([0.3, -0.4])
    assert Subproblem(prob, anchor).value_full(anchor)[0] == 0.0


def test_eval_h_objective_side():
    prob = get_problem("ball-linear").spec
    val = Subproblem(prob, np.zeros(2)).value_full(np.array([0.5, -1.0]))[0]
    assert abs(val - 0.5) < 1e-15


def test_eval_h_constraint_side_negative():
    prob = get_problem("ball-linear").spec
    val = Subproblem(prob, np.zeros(2)).value_full(np.array([-0.1, 0.0]))[0]
    assert abs(val - (-0.1)) < 1e-15


def test_eval_h_matches_direct_max_on_random_points():
    record = get_problem("pl-nonconvex")
    prob = record.spec
    rng = np.random.default_rng(11)
    anchor = record.start
    f0 = prob.objective.value(anchor)
    sub = Subproblem(prob, anchor)
    for _ in range(1000):
        z = record.domain_sampler(rng)
        direct = max(prob.objective.value(z) - f0,
                     max(c.value(z) for c in prob.constraints))
        assert sub.value_full(z)[0] == direct


def test_subproblem_call_accounting():
    prob = get_problem("ball-linear").spec
    sub = Subproblem(prob, np.zeros(2))
    assert (sub.subgrad_calls, sub.value_calls) == (0, 1)
    sub.value_full(np.array([0.1, 0.0]))
    assert (sub.subgrad_calls, sub.value_calls) == (0, 2)
    sub.grad(np.array([0.1, 0.0]))
    assert (sub.subgrad_calls, sub.value_calls) == (1, 2)
    sub.dir_grad(np.array([0.1, 0.0]), np.array([1.0, 0.0]))
    assert (sub.subgrad_calls, sub.value_calls) == (2, 2)
    # caller-provided anchor values skip the initial evaluation
    warm = Subproblem(prob, np.zeros(2), anchor_values=(0.0, -1.0))
    assert warm.value_calls == 0
    assert warm.h_anchor == 0.0


# ------------------------------------------------------- branch selection


def test_h_subgradient_strict_objective():
    prob = get_problem("ball-linear").spec
    vec, branch = Subproblem(prob, np.zeros(2)).grad(np.array([0.5, -1.0]))
    assert branch.is_objective
    assert np.array_equal(vec, [1.0, 0.0])


def test_h_subgradient_strict_constraint():
    prob = get_problem("ball-linear").spec
    vec, branch = Subproblem(prob, np.zeros(2)).grad(np.array([0.0, 1.2]))
    assert branch == Branch.constraint(1)
    assert np.allclose(vec, [0.0, 1.0], atol=1e-15)


def test_h_subgradient_tie_gradient_mode_takes_objective():
    prob = linear_1d(0.2, -0.4)
    # at z = anchor = 0 both sides of the max are exactly 0
    vec, branch = Subproblem(prob, np.zeros(1)).grad(np.zeros(1))
    assert branch.is_objective
    assert np.array_equal(vec, [0.2])


def test_h_subgradient_tie_directional_mode_compares_slopes():
    v = np.array([1.0])

    def dir_grad(prob):
        vec, branch, _, _ = Subproblem(prob, np.zeros(1)).dir_grad(np.zeros(1), v)
        return vec, branch

    # objective slope 0.2 beats constraint slope -0.4
    vec, branch = dir_grad(linear_1d(0.2, -0.4))
    assert branch.is_objective
    assert np.array_equal(vec, [0.2])
    # constraint slope 0.2 beats objective slope -0.4
    vec, branch = dir_grad(linear_1d(-0.4, 0.2))
    assert branch == Branch.constraint(1)
    assert np.array_equal(vec, [0.2])
    # equal slopes stay with the objective
    vec, branch = dir_grad(linear_1d(0.3, 0.3))
    assert branch.is_objective


def test_h_subgradient_directional_requires_direction():
    # a directional query needs directional oracles on both branches
    plain = Oracle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    directional = linear_1d(0.2, -0.4).objective
    for objective, constraint in ((plain, directional), (directional, plain)):
        prob = ProblemSpec(dim=1, objective=objective, constraints=(constraint,),
                           lipschitz_m=1.0, neighborhood_delta=1.0)
        with pytest.raises(UsageError):
            Subproblem(prob, np.zeros(1)).dir_grad(np.zeros(1), np.ones(1))


def recording(oracle: Oracle, log: list, label: str) -> Oracle:
    def grad(x):
        out = oracle.grad(x)
        log.append((label, out))
        return out

    def dir_grad(x, v):
        out = oracle.dir_grad(x, v)
        log.append((label, out))
        return out

    return Oracle(value=oracle.value, grad=grad, dir_grad=dir_grad)


def test_h_subgradient_is_one_underlying_oracle_call():
    base = get_problem("pl-nonconvex")
    log: list = []
    prob = ProblemSpec(
        dim=base.spec.dim,
        objective=recording(base.spec.objective, log, "objective"),
        constraints=tuple(recording(c, log, "constraint")
                          for c in base.spec.constraints),
        lipschitz_m=base.spec.lipschitz_m,
        neighborhood_delta=base.spec.neighborhood_delta)
    rng = np.random.default_rng(5)
    anchor = base.start
    for _ in range(200):
        z = sample_ball(anchor, 0.3, rng)
        sub = Subproblem(prob, anchor)
        log.clear()
        vec, branch = sub.grad(z)
        assert len(log) == 1
        label, raw = log[0]
        assert label == ("objective" if branch.is_objective else "constraint")
        assert np.array_equal(vec, raw)


def counting(oracle: Oracle, counts: collections.Counter, label: str) -> Oracle:
    def value(x):
        counts[label] += 1
        return oracle.value(x)

    return dataclasses.replace(oracle, value=value)


def test_each_value_callable_runs_once_per_point():
    # footnote-2c has two constraints: g2 attains the max on (-1, 1), g1
    # outside it; from the anchor 0.5 the objective wins above about -0.25
    base = get_problem("footnote-2c").spec
    counts: collections.Counter = collections.Counter()
    prob = dataclasses.replace(
        base, objective=counting(base.objective, counts, "f"),
        constraints=tuple(counting(c, counts, "g%d" % i)
                          for i, c in enumerate(base.constraints, start=1)))
    reduced = ReducedConstraint(base)
    sub = Subproblem(prob, np.array([0.5]))
    once = {"f": 1, "g1": 1, "g2": 1}
    seen = set()
    for z in np.linspace(-1.35, 1.35, 55)[:, None]:
        g, g_idx = reduced.value(z)
        counts.clear()
        vec, branch = sub.grad(z)
        assert counts == once
        seen.add(branch_code(branch))
        if not branch.is_objective:
            _, g_vec, idx = reduced.grad(z)
            assert branch == Branch.constraint(idx)
            assert np.array_equal(vec, g_vec)

        counts.clear()
        h, fz, gz = sub.value_full(z)
        assert counts == once
        assert (gz, h) == (g, max(fz - 0.5, g))

        v = np.array([-1.0])
        counts.clear()
        vec, branch, h_z, dd = sub.dir_grad(z, v)
        assert counts == once
        if not branch.is_objective:
            own = base.constraints[branch.index - 1].dir_grad(z, v)
            assert (h_z, dd) == (g, float(own @ v))
            assert np.array_equal(vec, own)
    assert seen == {0, 1, 2}


def test_directional_call_runs_only_the_attaining_branches():
    # footnote-2c from the anchor 0.5: h(z) = max{z - 0.5, z^2 - 1, |z| - 1}
    base = get_problem("footnote-2c").spec
    ran: list = []

    def logged(oracle: Oracle, label: str) -> Oracle:
        def dir_grad(x, v):
            out = oracle.dir_grad(x, v)
            ran.append((label, out))
            return out

        return dataclasses.replace(oracle, dir_grad=dir_grad)

    prob = dataclasses.replace(
        base, objective=logged(base.objective, "f"),
        constraints=tuple(logged(c, "g%d" % i)
                          for i, c in enumerate(base.constraints, start=1)))
    sub = Subproblem(prob, np.array([0.5]))
    branches = {"f": OBJECTIVE, "g1": Branch.constraint(1),
                "g2": Branch.constraint(2)}
    for z, v, attaining, winner in [
        (0.9, -1.0, ["f"], "f"),
        (-1.2, -1.0, ["g1"], "g1"),
        (-0.75, -1.0, ["g2"], "g2"),
        # g1 = g2 = 0 at -1, with slopes 2 and 1 along -1
        (-1.0, -1.0, ["g1", "g2"], "g1"),
        (-1.0, 1.0, ["g1", "g2"], "g2"),
        # f - f(0.5) = g2 = -0.75 at -0.25, with slopes -1 and 1 along -1
        (-0.25, -1.0, ["f", "g2"], "g2"),
        (-0.25, 1.0, ["f", "g2"], "f"),
    ]:
        point, direction = np.array([z]), np.array([v])
        ran.clear()
        vec, branch, h, dd = sub.dir_grad(point, direction)
        assert [label for label, _ in ran] == attaining
        assert branch == branches[winner]
        assert np.array_equal(vec, dict(ran)[winner])
        assert dd == float(vec @ direction)
        assert h == max(z - 0.5, z * z - 1.0, abs(z) - 1.0)


def test_h_subgradient_norms_within_lipschitz_bound():
    # the bound is promised on the neighborhood_delta fattening of the
    # feasible region, so anchors must be feasible before stepping out
    for name in ("ball-linear", "l1-ball", "footnote-1d", "footnote-2c",
                 "pl-nonconvex"):
        record = get_problem(name)
        prob = record.spec
        reduced = ReducedConstraint(prob)
        rng = np.random.default_rng(7)
        done = 0
        while done < 300:
            anchor = record.domain_sampler(rng)
            if reduced.value(anchor)[0] > 0.0:
                continue
            z = sample_ball(anchor, prob.neighborhood_delta * 0.99, rng)
            vec, _ = Subproblem(prob, anchor).grad(z)
            assert float(np.linalg.norm(vec)) <= prob.lipschitz_m + 1e-9
            done += 1


# ------------------------------------------------------ constraint reduce


def test_reduce_single_constraint_is_identity():
    prob = get_problem("ball-linear").spec
    reduced = ReducedConstraint(prob)
    val, idx = reduced.value(np.zeros(2))
    assert (val, idx) == (-1.0, 1)
    val, vec, idx = reduced.grad(np.zeros(2))
    # norm subgradient at the origin falls back to the first basis vector
    assert np.array_equal(vec, [1.0, 0.0])
    assert idx == 1


def two_linear_constraints() -> ProblemSpec:
    g1 = Oracle(value=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]),
                dir_grad=lambda x, v: np.array([1.0, 0.0]))
    g2 = Oracle(value=lambda x: float(x[1]), grad=lambda x: np.array([0.0, 1.0]),
                dir_grad=lambda x, v: np.array([0.0, 1.0]))
    f = Oracle(value=lambda x: 0.0, grad=lambda x: np.zeros(2),
               dir_grad=lambda x, v: np.zeros(2))
    return ProblemSpec(dim=2, objective=f, constraints=(g1, g2),
                       lipschitz_m=1.0, neighborhood_delta=1.0)


def test_reduce_tie_breaks_to_lowest_index():
    reduced = ReducedConstraint(two_linear_constraints())
    val, vec, idx = reduced.grad(np.array([3.0, 3.0]))
    assert (val, idx) == (3.0, 1)
    assert np.array_equal(vec, [1.0, 0.0])


def test_reduce_picks_strict_maximizer():
    reduced = ReducedConstraint(two_linear_constraints())
    val, vec, idx = reduced.grad(np.array([1.0, 2.0]))
    assert (val, idx) == (2.0, 2)
    assert np.array_equal(vec, [0.0, 1.0])


def test_reduce_directional_tie_takes_largest_slope():
    sub = Subproblem(two_linear_constraints(), np.zeros(2))
    # at (3, 3) both constraints attain the max; along v the second grows
    vec, branch, h, dd = sub.dir_grad(np.array([3.0, 3.0]), np.array([0.0, 1.0]))
    assert (h, branch) == (3.0, Branch.constraint(2))
    assert dd == 1.0
    assert np.array_equal(vec, [0.0, 1.0])


def test_reduce_value_equals_max_on_random_points():
    prob = get_problem("footnote-2c").spec
    reduced = ReducedConstraint(prob)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        z = np.array([rng.uniform(-2.0, 2.0)])
        val, _ = reduced.value(z)
        assert val == max(c.value(z) for c in prob.constraints)


# ------------------------------------------------------------- validation


def test_problem_spec_rejects_bad_metadata():
    oracle = Oracle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
    with pytest.raises(UsageError):
        ProblemSpec(dim=0, objective=oracle, constraints=(oracle,),
                    lipschitz_m=1.0, neighborhood_delta=1.0)
    with pytest.raises(UsageError):
        ProblemSpec(dim=1, objective=oracle, constraints=(),
                    lipschitz_m=1.0, neighborhood_delta=1.0)
    with pytest.raises(UsageError):
        ProblemSpec(dim=1, objective=oracle, constraints=(oracle,),
                    lipschitz_m=0.0, neighborhood_delta=1.0)
    with pytest.raises(UsageError):
        ProblemSpec(dim=1, objective=oracle, constraints=(oracle,),
                    lipschitz_m=1.0, neighborhood_delta=-0.5)


def test_branch_constraint_indices_are_one_based():
    with pytest.raises(UsageError):
        Branch.constraint(0)
    assert Branch.constraint(2).index == 2
    assert not Branch.constraint(2).is_objective
    assert OBJECTIVE.is_objective


def test_non_finite_oracle_output_raises_oracle_error():
    bad = ProblemSpec(
        dim=1,
        objective=Oracle(value=lambda x: float("nan"), grad=lambda x: np.zeros(1)),
        constraints=(Oracle(value=lambda x: -1.0, grad=lambda x: np.zeros(1)),),
        lipschitz_m=1.0, neighborhood_delta=1.0)
    with pytest.raises(OracleError):
        Subproblem(bad, np.zeros(1))
    good = Subproblem(bad, np.zeros(1), anchor_values=(0.0, -1.0))
    with pytest.raises(OracleError):
        good.value_full(np.zeros(1))


# footnote-2c points from the anchor 0.5 and the oracle whose output the
# call there returns: the objective, constraint 2 and constraint 1
OBJECTIVE_POINT, G2_POINT, G1_POINT = 0.9, -0.75, -1.2


def replaced(spec: ProblemSpec, which: str, field: str, fn) -> ProblemSpec:
    if which == "objective":
        return dataclasses.replace(spec, objective=dataclasses.replace(
            spec.objective, **{field: fn}))
    i = int(which[-1]) - 1
    constraints = list(spec.constraints)
    constraints[i] = dataclasses.replace(constraints[i], **{field: fn})
    return dataclasses.replace(spec, constraints=tuple(constraints))


def h_call(spec: ProblemSpec, method: str, point: float):
    sub = Subproblem(spec, np.array([0.5]), anchor_values=(0.5, -0.75))
    z = np.array([point])
    if method == "grad":
        return sub.grad(z)[0]
    if method == "value_full":
        return sub.value_full(z)[0]
    return sub.dir_grad(z, np.array([-1.0]))[0]


@pytest.mark.parametrize("which, field, method, point", [
    ("objective", "grad", "grad", OBJECTIVE_POINT),
    ("g2", "grad", "grad", G2_POINT),
    ("g1", "dir_grad", "dir_grad", G1_POINT),
])
@pytest.mark.parametrize("out", [[0.25], np.array([0.25], dtype=np.float32),
                                 np.array([3]), np.array([[2.0]])[0], [1e200]],
                         ids=["list", "float32", "int", "view", "huge"])
def test_oracle_output_is_converted_as_before(which, field, method, point, out):
    spec = replaced(get_problem("footnote-2c").spec, which, field,
                    lambda *args: out)
    vec = h_call(spec, method, point)
    assert vec.dtype == np.float64
    assert np.array_equal(vec, np.asarray(out, dtype=float))


def test_finite_vector_whose_sum_overflows_is_accepted():
    out = np.array([1e308, 1e308])
    spec = replaced(get_problem("ball-linear").spec, "objective", "grad",
                    lambda x: out)
    vec, branch = Subproblem(spec, np.zeros(2)).grad(np.array([0.1, 0.0]))
    assert branch == OBJECTIVE and np.array_equal(vec, out)


@pytest.mark.parametrize("method", ["grad", "value_full", "dir_grad"])
@pytest.mark.parametrize("out", [np.float32(-0.5), np.int64(-2), -2, True])
def test_oracle_values_are_converted_as_before(method, out):
    spec = replaced(get_problem("footnote-2c").spec, "g2", "value",
                    lambda x: out)
    sub = Subproblem(spec, np.array([0.5]), anchor_values=(0.5, -0.75))
    _, _, g = sub.value_full(np.array([-0.9]))
    assert type(g) is float and g == max(float(out), 0.81 - 1.0)
    h_call(spec, method, -0.9)


@pytest.mark.parametrize("method", ["grad", "value_full", "dir_grad"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_names_the_oracle(method, bad):
    spec = replaced(get_problem("footnote-2c").spec, "g2", "value",
                    lambda x: np.float64(bad))
    with pytest.raises(OracleError) as err:
        h_call(spec, method, OBJECTIVE_POINT)
    assert str(err.value) == "non-finite value from constraint 2 value"


@pytest.mark.parametrize("which, field, method, point, name", [
    ("objective", "grad", "grad", OBJECTIVE_POINT, "objective grad"),
    ("g2", "grad", "grad", G2_POINT, "constraint 2 grad"),
    ("g1", "dir_grad", "dir_grad", G1_POINT, "constraint 1 dir_grad"),
])
@pytest.mark.parametrize("bad", [[0.0, 0.0], 0.0, [math.nan], [math.inf],
                                 [-math.inf]],
                         ids=["long", "scalar", "nan", "inf", "-inf"])
def test_malformed_oracle_output_names_the_oracle(which, field, method, point,
                                                  name, bad):
    out = np.array(bad)
    spec = replaced(get_problem("footnote-2c").spec, which, field,
                    lambda *args: out)
    with pytest.raises(OracleError) as err:
        h_call(spec, method, point)
    if out.shape == (1,):
        assert str(err.value) == "non-finite entries from %s" % name
    else:
        assert str(err.value) == "%s returned shape %r, expected (1,)" % (
            name, out.shape)


def test_eval_h_rejects_wrong_shape():
    prob = get_problem("ball-linear").spec
    with pytest.raises(UsageError):
        Subproblem(prob, np.zeros(3))
    with pytest.raises(UsageError):
        Subproblem(prob, np.array([[0.0, 0.0]]))


# -------------------------------------------------------------- sampling


def test_sample_ball_stays_inside_and_replays():
    rng = np.random.default_rng(42)
    center = np.array([1.0, -2.0, 0.5])
    pts = [sample_ball(center, 0.7, rng) for _ in range(1000)]
    dists = [float(np.linalg.norm(p - center)) for p in pts]
    assert max(dists) <= 0.7 + 1e-12
    # same seed, same stream
    rng2 = np.random.default_rng(42)
    pts2 = [sample_ball(center, 0.7, rng2) for _ in range(1000)]
    assert all(np.array_equal(p, q) for p, q in zip(pts, pts2))
    # the sample is not degenerate: radii spread over the ball
    assert min(dists) < 0.35 < max(dists)


def test_sample_ball_zero_radius_returns_center():
    rng = np.random.default_rng(0)
    center = np.array([2.0, 3.0])
    assert np.array_equal(sample_ball(center, 0.0, rng), center)


def test_sample_ball_batch_rows_are_uniform_in_the_ball():
    rng = np.random.default_rng(8)
    center = np.array([1.0, -2.0, 0.5])
    rows = sample_ball(center, 0.7, rng, size=20_000)
    assert rows.shape == (20_000, 3)
    radii = np.linalg.norm(rows - center, axis=1) / 0.7
    assert radii.max() <= 1.0 + 1e-12
    # uniform in the ball: (|z - c| / r)^n is uniform on [0, 1]
    scaled = radii ** 3
    assert abs(scaled.mean() - 0.5) < 0.01
    assert abs(float(np.mean(scaled < 0.25)) - 0.25) < 0.01


def test_sample_ball_batch_blocks_equal_one_draw():
    center = np.array([0.3, 0.4])
    one = sample_ball(center, 0.2, np.random.default_rng(5), size=30)
    rng = np.random.default_rng(5)
    blocks = [sample_ball(center, 0.2, rng, size=k) for k in (7, 0, 16, 7)]
    assert np.array_equal(np.concatenate(blocks), one)
    assert np.array_equal(sample_ball(center, 0.0, np.random.default_rng(5),
                                      size=4), np.tile(center, (4, 1)))


def test_sample_blocks_cover_the_total(monkeypatch):
    monkeypatch.setattr("goldsub.core.SAMPLE_BLOCK", 4)
    assert sample_blocks(0) == []
    assert sample_blocks(8) == [4, 4]
    assert sample_blocks(10) == [4, 4, 2]


@pytest.mark.parametrize("total", [-5, -1, MAX_SAMPLES + 1, 10**20])
def test_sample_blocks_reject_counts_out_of_range(total):
    with pytest.raises(UsageError, match="sample count"):
        sample_blocks(total)


# ------------------------------------------------------- batch oracles


# the acceptance members: registry defaults plus the ten-dimensional ones
MEMBERS = (
    ("ball-linear", {}),
    ("l1-ball", {}),
    ("footnote-1d", {}),
    ("footnote-2c", {}),
    ("pl-nonconvex", {}),
    ("ball-linear", {"dim": 10}),
    ("pl-nonconvex", {"dim": 10}),
)


def branch_code(branch: Branch) -> int:
    return 0 if branch.is_objective else branch.index


@pytest.mark.parametrize("name, params", MEMBERS)
def test_batch_oracles_agree_with_pointwise(name, params):
    record = get_problem(name, **params)
    prob = record.spec
    rng = np.random.default_rng(17)
    z = np.array([record.domain_sampler(rng) for _ in range(3000)])
    # kinks and exact ties: the origin, and -e1/2, +-e1 (an objective /
    # constraint tie on ball-linear, a constraint tie on footnote-2c)
    e1 = np.eye(prob.dim)[0]
    z = np.vstack([np.zeros(prob.dim), -0.5 * e1, e1, -e1, z])
    tol = 1e-12 * prob.lipschitz_m
    reduced = ReducedConstraint(prob)
    sub = Subproblem(prob, record.start)
    point_g = [reduced.grad(row) for row in z]
    point_h = [sub.grad(row) for row in z]

    g_vals, g_idx = reduced.values(z)
    g_vecs = reduced.grads_at(z, g_idx)
    assert np.max(np.abs(g_vals - [p[0] for p in point_g])) <= tol
    assert np.max(np.abs(g_vecs - [p[1] for p in point_g])) <= tol
    assert g_idx.tolist() == [p[2] for p in point_g]

    h_vecs, codes = sub.grads(z)
    assert np.max(np.abs(h_vecs - [p[0] for p in point_h])) <= tol
    assert codes.tolist() == [branch_code(p[1]) for p in point_h]
    assert (sub.subgrad_calls, sub.value_calls) == (2 * len(z), 1)


def pointwise_only(prob: ProblemSpec) -> ProblemSpec:
    def strip(oracle):
        return dataclasses.replace(oracle, values=None, grads=None)
    return dataclasses.replace(prob, objective=strip(prob.objective),
                               constraints=tuple(strip(c) for c in prob.constraints))


@pytest.mark.parametrize("name", ["footnote-2c", "pl-nonconvex"])
def test_batch_fallback_loops_over_pointwise_oracles(name):
    record = get_problem(name)
    prob = pointwise_only(record.spec)
    rng = np.random.default_rng(3)
    z = np.array([record.domain_sampler(rng) for _ in range(500)])
    reduced = ReducedConstraint(prob)
    vals, idx = reduced.values(z)
    vecs = reduced.grads_at(z, idx)
    loop = [reduced.grad(row) for row in z]
    assert np.array_equal(vals, [p[0] for p in loop])
    assert np.array_equal(vecs, [p[1] for p in loop])
    assert idx.tolist() == [p[2] for p in loop]
    sub = Subproblem(prob, record.start)
    h_vecs, codes = sub.grads(z)
    loop = [sub.grad(row) for row in z]
    assert np.array_equal(h_vecs, [p[0] for p in loop])
    assert codes.tolist() == [branch_code(p[1]) for p in loop]


def test_batch_on_empty_and_malformed_point_arrays():
    record = get_problem("ball-linear")
    sub = Subproblem(record.spec, record.start)
    vecs, codes = sub.grads(np.empty((0, 2)))
    assert vecs.shape == (0, 2) and codes.shape == (0,)
    for bad in (np.zeros(2), np.zeros((3, 3)), np.full((2, 2), np.nan)):
        with pytest.raises(UsageError):
            sub.grads(bad)


@pytest.mark.parametrize("field, broken", [
    ("values", lambda z: np.zeros((len(z), 1))),
    ("values", lambda z: np.full(len(z), np.nan)),
    ("grads", lambda z: np.zeros((len(z), 3))),
    ("grads", lambda z: np.full((len(z), 2), np.inf)),
])
@pytest.mark.parametrize("side", ["objective", "constraint"])
def test_malformed_batch_oracle_output_raises_oracle_error(field, broken, side):
    prob = get_problem("ball-linear").spec
    if side == "objective":
        prob = dataclasses.replace(prob, objective=dataclasses.replace(
            prob.objective, **{field: broken}))
    else:
        prob = dataclasses.replace(prob, constraints=(dataclasses.replace(
            prob.constraints[0], **{field: broken}),))
    # the first point takes the objective branch, the second the constraint
    sub = Subproblem(prob, np.array([0.9, 0.0]))
    z = np.array([[0.95, 0.0], [-0.9, 0.0]])
    with pytest.raises(OracleError):
        sub.grads(z)
