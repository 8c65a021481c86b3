"""Subproblem construction, branch selection, and segment projection."""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldsub.core import (
    DOT_TEST_MAX,
    Oracle,
    ProblemSpec,
    ReducedConstraint,
    Subproblem,
    _all_finite,
    _norm,
    sample_ball,
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


# ----------------------------------------------------------- dot product bits
# The formulas that ndarray.dot replaced, kept as the reference: the
# coefficient and the directional derivative must keep their bits.


def old_segment_projection_coefficient(a, b):
    d = a - b
    denom = float(d @ d)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, float(a @ d) / denom))


@st.composite
def strided_vectors(draw):
    """Three vectors of one dimension at one scale each, every one a
    contiguous array or a view of step 2 or -1."""
    dim = draw(st.sampled_from([1, 2, 3, 10, 200]))

    def vector():
        step = draw(st.sampled_from([1, 2, -1]))
        scale = 10.0 ** draw(st.integers(-150, 150))
        if dim < 200:
            entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                    max_size=dim))
        else:  # one drawn seed: shrinking 200-entry lists takes minutes
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            entries = rng.uniform(-1.0, 1.0, dim).tolist()
        buf = np.full(dim * abs(step), 7.0)  # the entries the view skips
        buf[::step] = np.array(entries) * scale
        return buf[::step]

    return vector(), vector(), vector()


def as_float_bits(x):
    assert type(x) is float
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(vectors=strided_vectors())
@example(vectors=(np.arange(1.0, 4.0)[::-1], np.array([0.5, 0.25, 3.0]),
                  np.arange(2.0, 8.0)[::2]))
@example(vectors=(np.linspace(-1e150, 1e150, 200)[::-1],
                  np.linspace(1e-150, 2e-150, 200), np.ones(400)[::2]))
def test_dot_products_keep_the_bits_of_matmul(vectors):
    a, b, c = vectors
    assert as_float_bits(segment_projection_coefficient(a, b)) \
        == as_float_bits(old_segment_projection_coefficient(a, b))
    # both branches attain h = 0 at z, so dir_grad computes both slopes
    # along v = a and returns the larger, the objective's on a tie
    objective = Oracle(value=lambda x: 0.0, grad=lambda x: b,
                       dir_grad=lambda x, v: b)
    constraint = Oracle(value=lambda x: 0.0, grad=lambda x: c,
                        dir_grad=lambda x, v: c)
    spec = ProblemSpec(dim=a.size, objective=objective,
                       constraints=(constraint,), lipschitz_m=1.0,
                       neighborhood_delta=1.0)
    sub = Subproblem(spec, np.zeros(a.size), anchor_values=(0.0, 0.0))
    vec, branch, h, dd = sub.dir_grad(np.zeros(a.size), a)
    slopes = [float(b @ a), float(c @ a)]
    assert branch == (1 if slopes[1] > slopes[0] else 0)
    assert vec is (b, c)[branch] and h == 0.0
    assert as_float_bits(dd) == as_float_bits(float(vec @ a))


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
    assert branch == 0
    assert np.array_equal(vec, [1.0, 0.0])


def test_h_subgradient_strict_constraint():
    prob = get_problem("ball-linear").spec
    vec, branch = Subproblem(prob, np.zeros(2)).grad(np.array([0.0, 1.2]))
    assert branch == 1
    assert np.allclose(vec, [0.0, 1.0], atol=1e-15)


def test_h_subgradient_tie_gradient_mode_takes_objective():
    prob = linear_1d(0.2, -0.4)
    # at z = anchor = 0 both sides of the max are exactly 0
    vec, branch = Subproblem(prob, np.zeros(1)).grad(np.zeros(1))
    assert branch == 0
    assert np.array_equal(vec, [0.2])


def test_h_subgradient_tie_directional_mode_compares_slopes():
    v = np.array([1.0])

    def dir_grad(prob):
        vec, branch, _, _ = Subproblem(prob, np.zeros(1)).dir_grad(np.zeros(1), v)
        return vec, branch

    # objective slope 0.2 beats constraint slope -0.4
    vec, branch = dir_grad(linear_1d(0.2, -0.4))
    assert branch == 0
    assert np.array_equal(vec, [0.2])
    # constraint slope 0.2 beats objective slope -0.4
    vec, branch = dir_grad(linear_1d(-0.4, 0.2))
    assert branch == 1
    assert np.array_equal(vec, [0.2])
    # equal slopes stay with the objective
    vec, branch = dir_grad(linear_1d(0.3, 0.3))
    assert branch == 0


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
        assert label == ("constraint" if branch else "objective")
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
        g, g_ties = reduced.value(z)
        counts.clear()
        vec, branch = sub.grad(z)
        assert counts == once
        seen.add(branch)
        if branch:
            assert branch == g_ties[0]
            assert np.array_equal(vec, base.constraints[branch - 1].grad(z))

        counts.clear()
        h, fz, gz = sub.value_full(z)
        assert counts == once
        assert (gz, h) == (g, max(fz - 0.5, g))

        v = np.array([-1.0])
        counts.clear()
        vec, branch, h_z, dd = sub.dir_grad(z, v)
        assert counts == once
        if branch:
            own = base.constraints[branch - 1].dir_grad(z, v)
            assert (h_z, dd) == (g, float(own @ v))
            assert np.array_equal(vec, own)
    assert seen == {0, 1, 2}


def counting_values(base: ProblemSpec, counts: collections.Counter) -> ProblemSpec:
    return dataclasses.replace(
        base, objective=counting(base.objective, counts, "f"),
        constraints=tuple(counting(c, counts, "g%d" % i)
                          for i, c in enumerate(base.constraints, start=1)))


@pytest.mark.parametrize("name", ["ball-linear", "footnote-2c", "pl-nonconvex"])
@pytest.mark.parametrize("given", [False, True])
def test_directional_query_at_a_strictly_feasible_anchor_reads_no_value(name, given):
    # h(anchor) = max{0, g(anchor)} = 0 is attained by the objective alone
    record = get_problem(name)
    counts: collections.Counter = collections.Counter()
    prob = counting_values(record.spec, counts)
    values = (record.spec.objective.value(record.start),
              ReducedConstraint(record.spec).value(record.start)[0])
    sub = Subproblem(prob, record.start, values if given else None)
    assert sub.g_anchor < 0.0
    v = np.zeros(record.spec.dim)
    v[0] = 1.0
    counts.clear()
    calls = (sub.subgrad_calls, sub.value_calls)
    vec, branch, h, dd = sub.dir_grad(sub.anchor, v)
    assert not counts
    assert (sub.subgrad_calls, sub.value_calls) == (calls[0] + 1, calls[1])
    # the full path, at a copy of the anchor, gives the same answer
    full = sub.dir_grad(sub.anchor.copy(), v)
    assert counts == {"f": 1, **{"g%d" % i: 1
                                 for i in range(1, len(prob.constraints) + 1)}}
    assert sub.subgrad_calls == calls[0] + 2
    assert np.array_equal(vec, full[0])
    assert (branch, h, dd) == full[1:] == (0, 0.0, float(vec @ v))


def test_directional_query_at_an_active_anchor_takes_the_full_path():
    # footnote-1d at x = -1: g = x^2 - 1 = 0 ties with the objective, and
    # along -1 the constraint's slope 2 beats the objective's -1
    counts: collections.Counter = collections.Counter()
    prob = counting_values(get_problem("footnote-1d").spec, counts)
    sub = Subproblem(prob, np.array([-1.0]))
    assert sub.g_anchor == 0.0
    for v, want in ((-1.0, ([-2.0], 1, 0.0, 2.0)),
                    (1.0, ([1.0], 0, 0.0, 1.0))):
        counts.clear()
        vec, branch, h, dd = sub.dir_grad(sub.anchor, np.array([v]))
        assert counts == {"f": 1, "g1": 1}
        assert (vec.tolist(), branch, h, dd) == want
    assert (sub.subgrad_calls, sub.value_calls) == (2, 1)


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
    branches = {"f": 0, "g1": 1, "g2": 2}
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


def affine_oracle(c, d: int, counts: collections.Counter, branch: int,
                  batch: bool) -> Oracle:
    """x -> c.x + d, counting under ``branch`` the points its value
    callables read."""
    c = np.array(c, dtype=float)

    def value(x):
        counts[branch] += 1
        return float(c @ x) + d

    def values(z):
        counts[branch] += len(z)
        return z @ c + d

    return Oracle(value=value, grad=lambda x: c.copy(),
                  dir_grad=lambda x, v: c.copy(),
                  values=values if batch else None,
                  grads=(lambda z: np.tile(c, (len(z), 1))) if batch else None)


@st.composite
def affine_pieces(draw):
    """f = a.x and g_j = c_j.x + d_j with integer data in [-2, 2], an integer
    anchor, and integer points and directions: values are exact and ties
    between any of the m + 1 branches are common."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    k = draw(st.integers(1, 8))
    return (draw(vec), draw(st.lists(vec, min_size=m, max_size=m)),
            draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)),
            draw(vec), draw(st.lists(vec, min_size=k, max_size=k)),
            draw(st.lists(vec, min_size=k, max_size=k)), draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(affine_pieces())
def test_branch_rule_on_tied_affine_pieces(pieces):
    a, cs, ds, x, zs, vs, batch = pieces
    counts: collections.Counter = collections.Counter()
    prob = ProblemSpec(
        dim=len(a), objective=affine_oracle(a, 0, counts, 0, batch),
        constraints=tuple(affine_oracle(c, d, counts, j, batch)
                          for j, (c, d) in enumerate(zip(cs, ds), start=1)),
        lipschitz_m=10.0, neighborhood_delta=1.0)
    slopes = [a, *cs]
    sub = Subproblem(prob, np.array(x, dtype=float))
    once = {b: 1 for b in range(len(slopes))}
    expected = []
    for z, v in zip(zs, vs):
        # h's sides in exact integers, branch 0 first
        sides = [np.dot(a, z) - np.dot(a, x),
                 *(np.dot(c, z) + d for c, d in zip(cs, ds))]
        h = max(sides)
        attaining = [b for b, side in enumerate(sides) if side == h]
        expected.append(attaining[0])
        point, direction = np.array(z, dtype=float), np.array(v, dtype=float)

        counts.clear()
        vec, branch = sub.grad(point)
        assert counts == once
        assert branch == attaining[0]
        assert vec.tolist() == slopes[branch]

        # the largest slope along v, the lowest index on equal slopes
        slope = {b: int(np.dot(slopes[b], v)) for b in attaining}
        winner = max(attaining, key=lambda b: (slope[b], -b))
        counts.clear()
        vec, branch, h_z, dd = sub.dir_grad(point, direction)
        assert counts == once
        assert (branch, h_z, dd) == (winner, h, slope[winner])
        assert vec.tolist() == slopes[winner]

        counts.clear()
        assert sub.value_full(point)[0] == h
        assert counts == once

        # g and every constraint attaining it, in index order
        g = max(sides[1:])
        assert ReducedConstraint(prob).value(point) == (
            g, tuple(b for b, side in enumerate(sides) if b and side == g))

    counts.clear()
    vecs, codes = sub.grads(np.array(zs, dtype=float))
    assert counts == {b: len(zs) for b in once}
    assert codes.tolist() == expected
    assert vecs.tolist() == [slopes[b] for b in expected]


# ------------------------------------------------------ constraint reduce


def constraint_side(prob: ProblemSpec) -> Subproblem:
    """A Subproblem at the origin whose objective attains h nowhere: its
    given f(anchor) lies far above f, so every point takes the branch of
    the constraint that attains g."""
    return Subproblem(prob, np.zeros(prob.dim), anchor_values=(1e300, -1.0))


def value_and_grad(prob: ProblemSpec, z):
    """(g(z), gradient of the attaining constraint, its index) at one point."""
    val, ties = ReducedConstraint(prob).value(z)
    vec, branch = constraint_side(prob).grad(z)
    assert branch == ties[0]
    return val, vec, ties[0]


def test_reduce_single_constraint_is_identity():
    prob = get_problem("ball-linear").spec
    val, vec, idx = value_and_grad(prob, np.zeros(2))
    assert (val, idx) == (-1.0, 1)
    # norm subgradient at the origin falls back to the first basis vector
    assert np.array_equal(vec, [1.0, 0.0])


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
    val, vec, idx = value_and_grad(two_linear_constraints(), np.array([3.0, 3.0]))
    assert (val, idx) == (3.0, 1)
    assert np.array_equal(vec, [1.0, 0.0])


def test_reduce_picks_strict_maximizer():
    val, vec, idx = value_and_grad(two_linear_constraints(), np.array([1.0, 2.0]))
    assert (val, idx) == (2.0, 2)
    assert np.array_equal(vec, [0.0, 1.0])


def test_reduce_directional_tie_takes_largest_slope():
    sub = Subproblem(two_linear_constraints(), np.zeros(2))
    # at (3, 3) both constraints attain the max; along v the second grows
    vec, branch, h, dd = sub.dir_grad(np.array([3.0, 3.0]), np.array([0.0, 1.0]))
    assert (h, branch) == (3.0, 2)
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
    assert branch == 0 and np.array_equal(vec, out)


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
    rows = sample_ball(center, 0.7, rng, out=np.empty((20_000, 3)))
    radii = np.linalg.norm(rows - center, axis=1) / 0.7
    assert radii.max() <= 1.0 + 1e-12
    # uniform in the ball: (|z - c| / r)^n is uniform on [0, 1]
    scaled = radii ** 3
    assert abs(scaled.mean() - 0.5) < 0.01
    assert abs(float(np.mean(scaled < 0.25)) - 0.25) < 0.01


def test_sample_ball_batch_blocks_equal_one_draw():
    center = np.array([0.3, 0.4])
    one = sample_ball(center, 0.2, np.random.default_rng(5), out=np.empty((30, 2)))
    rng = np.random.default_rng(5)
    blocks = [sample_ball(center, 0.2, rng, out=np.empty((k, 2)))
              for k in (7, 0, 16, 7)]
    assert np.array_equal(np.concatenate(blocks), one)
    assert np.array_equal(sample_ball(center, 0.0, np.random.default_rng(5),
                                      out=np.empty((4, 2))),
                          np.tile(center, (4, 1)))


def broadcast_ball_rows(center, radius, rng, size):
    """The batch rows by the broadcasting formula: a new (size, n) array for
    the products and another for the sum."""
    n = center.size
    normals = rng.standard_normal((size, n + 2))
    norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    scale = np.divide(radius, norms, out=np.zeros(size), where=norms > 0.0)
    return center + scale[:, None] * normals[:, :n]


@pytest.mark.parametrize("radius", [0.3, 1e-320, 0.0])
def test_sample_ball_batch_rows_are_the_broadcast_bits(radius):
    # a -0.0 center coordinate keeps its sign only where the product is
    # -0.0 too (at zero radius, half the rows), as under broadcasting
    center = np.array([-0.0, 0.0, 2.5, -1e300])
    expected = broadcast_ball_rows(center, radius, np.random.default_rng(4), 300)
    buf = np.full((300, 4), np.nan)
    assert sample_ball(center, radius, np.random.default_rng(4), out=buf) is buf
    assert buf.tobytes() == expected.tobytes()


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
    sub = Subproblem(prob, record.start)
    point_g = [value_and_grad(prob, row) for row in z]
    point_h = [sub.grad(row) for row in z]

    g_vals, g_idx = ReducedConstraint(prob).values(z)
    g_vecs, g_codes = constraint_side(prob).grads(z)
    assert g_codes.tolist() == g_idx.tolist()
    assert np.max(np.abs(g_vals - [p[0] for p in point_g])) <= tol
    assert np.max(np.abs(g_vecs - [p[1] for p in point_g])) <= tol
    assert g_idx.tolist() == [p[2] for p in point_g]

    h_vecs, codes = sub.grads(z)
    assert np.max(np.abs(h_vecs - [p[0] for p in point_h])) <= tol
    assert codes.tolist() == [p[1] for p in point_h]
    assert (sub.subgrad_calls, sub.value_calls) == (2 * len(z), 1)


@pytest.mark.parametrize("name, params", MEMBERS)
def test_pointwise_branches_are_the_batch_indices(name, params):
    # grad and dir_grad name a branch as grads does, 0 for the objective and
    # i for constraint i; off ties, where only one branch attains h, the
    # directional query takes that branch too
    record = get_problem(name, **params)
    rng = np.random.default_rng(23)
    z = np.array([record.domain_sampler(rng) for _ in range(500)])
    v = rng.standard_normal(z.shape)
    sub = Subproblem(record.spec, record.start)
    _, codes = sub.grads(z)
    for row, direction, code in zip(z, v, codes.tolist()):
        _, branch = sub.grad(row)
        _, dir_branch, _, _ = sub.dir_grad(row, direction)
        assert type(branch) is int and type(dir_branch) is int
        assert branch == dir_branch == code


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
    vals, idx = ReducedConstraint(prob).values(z)
    vecs, codes = constraint_side(prob).grads(z)
    assert codes.tolist() == idx.tolist()
    loop = [value_and_grad(prob, row) for row in z]
    assert np.array_equal(vals, [p[0] for p in loop])
    assert np.array_equal(vecs, [p[1] for p in loop])
    assert idx.tolist() == [p[2] for p in loop]
    sub = Subproblem(prob, record.start)
    h_vecs, codes = sub.grads(z)
    loop = [sub.grad(row) for row in z]
    assert np.array_equal(h_vecs, [p[0] for p in loop])
    assert codes.tolist() == [p[1] for p in loop]


def two_linear_batch_constraints() -> ProblemSpec:
    """two_linear_constraints with batch callables: g_i(x) = x_i exactly."""
    prob = two_linear_constraints()
    g1, g2 = (dataclasses.replace(
        c, values=lambda z, i=i: z[:, i].copy(),
        grads=lambda z, i=i: np.tile(np.eye(2)[i], (len(z), 1)))
        for i, c in enumerate(prob.constraints))
    return dataclasses.replace(prob, constraints=(g1, g2))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("batch", [False, True])
def test_batch_constraint_values_equal_pointwise(m, batch):
    prob = two_linear_batch_constraints() if batch else two_linear_constraints()
    reduced = ReducedConstraint(dataclasses.replace(
        prob, constraints=prob.constraints[:m]))
    rng = np.random.default_rng(6)
    # ties on the diagonal, a -0.0 / 0.0 tie, and strict maximizers
    z = np.vstack([[[3.0, 3.0], [-0.0, 0.0], [0.0, -0.0], [1.0, 2.0]],
                   np.repeat(rng.integers(-3, 4, size=(200, 1)), 2, axis=1),
                   rng.integers(-3, 4, size=(200, 2))]).astype(float)
    vals, idx = reduced.values(z)
    point = [reduced.value(row) for row in z]
    assert vals.tobytes() == np.array([p[0] for p in point]).tobytes()
    assert idx.tolist() == [p[1][0] for p in point]
    assert idx[:4].tolist() == [1, 1, 1, m]  # ties go to the lowest index


def test_batch_constraint_calls_on_no_rows():
    prob = two_linear_batch_constraints()
    vals, idx = ReducedConstraint(prob).values(np.empty((0, 2)))
    assert vals.shape == idx.shape == (0,)
    vecs, codes = constraint_side(prob).grads(np.empty((0, 2)))
    assert vecs.shape == (0, 2) and codes.shape == (0,)


def test_objective_batch_gradients_are_the_oracle_array():
    # every row takes one branch, the objective's or a constraint's: that
    # oracle's array comes back as it is, one subgradient call per row, and
    # its output is still checked
    grads = np.tile([0.5, -0.5], (3, 1))
    oracle = Oracle(value=lambda x: 0.0, grad=lambda x: grads[0].copy(),
                    values=lambda z: np.zeros(len(z)), grads=lambda z: grads)
    base = two_linear_batch_constraints()
    g1_grads = np.tile([1.0, 0.0], (3, 1))
    g1 = dataclasses.replace(base.constraints[0], grads=lambda z: g1_grads)
    prob = dataclasses.replace(base, objective=oracle,
                               constraints=(g1, base.constraints[1]))
    sub = Subproblem(prob, np.array([-1.0, -1.0]))
    # all rows on the objective; then all on constraint 1 (g1 = 1 > g2 = 0)
    for z, array, branch, name in (
            (-np.ones((3, 2)), grads, 0, "objective grad"),
            (np.tile([1.0, 0.0], (3, 1)), g1_grads, 1, "constraint 1 grad")):
        calls = sub.subgrad_calls
        vecs, codes = sub.grads(z)
        assert vecs is array
        assert codes.tolist() == [branch] * 3
        assert sub.subgrad_calls == calls + 3
        array[1, 0] = np.inf
        with pytest.raises(OracleError, match=name):
            sub.grads(z)
        assert sub.subgrad_calls == calls + 3


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


# --------------------------------------------------------- finiteness test

NON_FINITE = (math.inf, -math.inf, math.nan)


def test_all_finite_is_false_exactly_at_a_non_finite_entry():
    # every index of every size whose dot product runs BLAS's unrolled tail
    # loops, and both sides of the longest array tested by the dot product
    sizes = [*range(1, 34), *range(DOT_TEST_MAX - 2, DOT_TEST_MAX + 2)]
    for size in sizes:
        a = np.random.default_rng(size).standard_normal(size)
        assert _all_finite(a)
        for i in range(size):
            for bad in NON_FINITE:
                a[i] = bad
                assert not _all_finite(a), (size, i, bad)
            a[i] = 0.5
        assert _all_finite(a)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, DOT_TEST_MAX + 1), at=st.floats(0.0, 1.0),
       bad=st.sampled_from(NON_FINITE), scale=st.sampled_from([1.0, 5e-324, 1e300]),
       seed=st.integers(0, 2**32 - 1))
def test_all_finite_at_any_size_and_index(size, at, bad, scale, seed):
    with np.errstate(under="ignore"):
        a = np.random.default_rng(seed).standard_normal(size) * scale
    assert _all_finite(a)
    a[int(at * (size - 1))] = bad
    assert not _all_finite(a)


@pytest.mark.parametrize("size", [1, 2, 17, DOT_TEST_MAX, DOT_TEST_MAX + 1])
def test_all_finite_where_the_squares_overflow(size):
    # a.a overflows to inf (without an overflow warning); the entries are
    # finite all the same
    a = np.full(size, 1e308)
    a[::2] = -1e308
    assert _all_finite(a)
    assert _all_finite(a.reshape(-1, 1)[::-1])


def test_all_finite_reads_every_entry_of_any_layout():
    a = np.arange(24.0).reshape(4, 6)
    for view in (a, a.T, a[:, ::2], a[::-1, 1:]):
        assert _all_finite(view)
    a[3, 3] = math.nan
    assert _all_finite(a[:, ::2])  # columns 0, 2 and 4 only
    assert not _all_finite(a) and not _all_finite(a.T)
    assert not _all_finite(a[::-1, 1:])
    assert _all_finite(np.empty((0, 3)))


# ---------------------------------------------------------------- the norm


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 4097), step=st.sampled_from([1, 2, 3, -1]),
       scale=st.sampled_from([1.0, 1e-310, 5e-324, 1e150, 1e200, 1e308]),
       nan_at=st.none() | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(size=4097, step=2, scale=1.0, nan_at=None, seed=0)
@example(size=33, step=1, scale=1e200, nan_at=None, seed=0)
def test_norm_is_the_bits_of_numpys_norm(size, step, scale, nan_at, seed):
    # a strided array is tested because BLAS may sum it in another order
    with np.errstate(over="ignore", under="ignore"):
        v = (np.random.default_rng(seed).standard_normal(size * abs(step))
             * scale)[::step]
        if nan_at is not None:
            v[int(nan_at * (size - 1))] = math.nan
        expected = np.float64(np.linalg.norm(v))
        got = _norm(v)
    assert type(got) is float
    assert np.float64(got).tobytes() == expected.tobytes()
