"""Corpus metadata, kink conventions, and oracle self-consistency."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldsub.core import ReducedConstraint
from goldsub.errors import OracleError, UsageError
from goldsub.problems import (
    _validate_record,
    ball_linear_sigma,
    constant_constraint,
    get_problem,
    list_problems,
)
from goldsub.verify import min_norm_over_hull

CORPUS = ("ball-linear", "footnote-1d", "footnote-2c", "l1-ball", "pl-nonconvex")


def test_registry_lists_corpus():
    assert list_problems() == sorted(CORPUS)


def test_get_problem_unknown_name():
    with pytest.raises(UsageError):
        get_problem("no-such-problem")


def test_get_problem_bad_parameters():
    with pytest.raises(UsageError):
        get_problem("ball-linear", radius=2.0)
    with pytest.raises(UsageError):
        get_problem("ball-linear", dim=0)
    with pytest.raises(UsageError):
        get_problem("pl-nonconvex", alpha=-0.1)


@pytest.mark.parametrize("name", CORPUS)
def test_metadata_consistency(name):
    record = get_problem(name)
    spec = record.spec
    reduced = ReducedConstraint(spec)
    assert record.name == name
    assert spec.p_star is not None and spec.known_optimum is not None
    opt = np.asarray(spec.known_optimum, dtype=float)
    assert abs(spec.objective.value(opt) - spec.p_star) <= 1e-9
    assert reduced.value(opt)[0] <= 1e-9
    assert reduced.value(np.asarray(record.start, dtype=float))[0] <= 0.0
    assert spec.nonconvexity_f is not None and spec.nonconvexity_g is not None


def test_nan_objective_at_the_known_optimum_is_rejected():
    # |nan - p_star| > 1e-9 is False: a bare read of f(x*) would let it pass
    record = get_problem("ball-linear")
    f = record.spec.objective
    nan_at_opt = dataclasses.replace(
        f, value=lambda x: math.nan if x[0] == -1.0 else f.value(x))
    spec = dataclasses.replace(record.spec, objective=nan_at_opt)
    with pytest.raises(OracleError, match="non-finite value from objective"):
        _validate_record(dataclasses.replace(record, spec=spec))


BALL = get_problem("ball-linear")


def _ball_spec(**changes):
    return dataclasses.replace(BALL, spec=dataclasses.replace(BALL.spec,
                                                             **changes))


@pytest.mark.parametrize("record,message", [
    (_ball_spec(p_star=-0.5), "corpus metadata inconsistent for ball-linear: "
     "f(optimum) = -1 but p_star = -0.5"),
    # f(x*) is still p_star, but g(x*) = sqrt(2) - 1 > 0
    (_ball_spec(known_optimum=np.array([-1.0, 1.0])),
     "corpus metadata inconsistent for ball-linear: optimum infeasible, "
     "g = 0.414213562373"),
    (dataclasses.replace(BALL, start=np.array([2.0, 0.0])),
     "corpus start for ball-linear is infeasible"),
], ids=["wrong-p-star", "infeasible-optimum", "infeasible-start"])
def test_inconsistent_corpus_record_is_rejected(record, message):
    with pytest.raises(UsageError) as err:
        _validate_record(record)
    assert str(err.value) == message


def test_problem_dimension_parameters():
    rec = get_problem("ball-linear", dim=7)
    assert rec.spec.dim == 7
    assert rec.spec.known_optimum[0] == -1.0
    rec = get_problem("pl-nonconvex", dim=5)
    # alpha * dim > 1 moves the optimum to the constraint boundary
    assert rec.spec.p_star == 1.0 - 0.25 * 5
    assert np.array_equal(rec.spec.known_optimum, -np.ones(5))
    assert abs(rec.spec.nonconvexity_f - 0.25 * math.sqrt(5)) < 1e-15


@pytest.mark.parametrize("name", CORPUS)
def test_empirical_lipschitz_bound(name):
    record = get_problem(name)
    spec = record.spec
    rng = np.random.default_rng(19)
    fns = [spec.objective.value] + [c.value for c in spec.constraints]
    for _ in range(10_000):
        x = record.domain_sampler(rng)
        y = record.domain_sampler(rng)
        d = float(np.linalg.norm(x - y))
        for fn in fns:
            assert abs(fn(x) - fn(y)) <= spec.lipschitz_m * d * (1 + 1e-9) + 1e-12


# ------------------------------------------------------- kink conventions


def test_l1_gradient_at_zero_uses_plus_sign():
    spec = get_problem("l1-ball").spec
    assert np.array_equal(spec.objective.grad(np.zeros(2)), [1.0, 1.0])


def test_norm_gradient_at_zero_uses_first_basis_vector():
    spec = get_problem("ball-linear").spec
    assert np.array_equal(spec.constraints[0].grad(np.zeros(2)), [1.0, 0.0])


def tiled_quotient(z, e1):
    """The ball-linear batch gradient as one tile, a copy and a quotient."""
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    out = np.tile(e1, (len(z), 1))
    inside = norms > 0.0
    out[inside] = z[inside] / norms[inside, None]
    return out


@pytest.mark.parametrize("dim", [1, 2, 10, 200])
def test_ball_linear_batch_gradients_keep_their_bits(dim):
    grads = get_problem("ball-linear", dim=dim).spec.constraints[0].grads
    z = np.random.default_rng(dim).standard_normal((64, dim))
    z[3] = 0.0
    z[5] = -0.0
    z[7] = 5e-324  # squares underflow: a zero norm
    z[11] *= 1e200  # squares overflow: an infinite norm
    e1 = np.zeros(dim)
    e1[0] = 1.0
    with np.errstate(under="ignore"):
        got = grads(z)
    assert got.tobytes() == tiled_quotient(z, e1).tobytes()
    assert np.array_equal(got[[3, 5, 7]], np.tile(e1, (3, 1)))


def test_ball_linear_batch_gradients_work_in_one_block():
    rows, dim = 4096, 200
    grads = get_problem("ball-linear", dim=dim).spec.constraints[0].grads
    z = np.random.default_rng(0).standard_normal((rows, dim))
    z[0] = 0.0
    tracemalloc.start()
    try:
        out = grads(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, dim)
    assert peak <= 1.25 * rows * dim * 8


def test_max_norm_argmax_tie_takes_lowest_index():
    spec = get_problem("pl-nonconvex").spec
    vec = spec.objective.grad(np.array([0.5, -0.5]))
    # max-norm part picks coordinate 0; the 1-norm part subtracts alpha*sign
    assert np.array_equal(vec, [1.0 - 0.25, 0.25])


def test_directional_oracle_at_l1_kink():
    spec = get_problem("l1-ball").spec
    v = np.array([-1.0, 0.0]) / 1.0
    vec = spec.objective.dir_grad(np.array([0.0, 0.5]), v)
    # moving negative in coordinate 0 grows |x_0| at unit rate
    assert float(vec @ v) == 1.0


def test_footnote_2c_second_constraint_shape():
    spec = get_problem("footnote-2c").spec
    g2 = spec.constraints[1]
    assert g2.value(np.array([1.2])) == pytest.approx(0.2)
    assert g2.value(np.array([-1.6])) == 0.5
    assert g2.value(np.array([1.5])) == 0.5
    assert np.array_equal(g2.grad(np.array([1.7])), [0.0])
    assert np.array_equal(g2.grad(np.array([-0.7])), [-1.0])
    # at the outer kink the one-sided slopes differ by direction
    out = g2.dir_grad(np.array([1.5]), np.array([1.0]))
    assert float(out[0]) * 1.0 == 0.0
    inward = g2.dir_grad(np.array([1.5]), np.array([-1.0]))
    assert float(inward[0]) * -1.0 == -1.0
    # beyond the outer kinks g2 is flat in every direction
    for x, v in ((1.7, -1.0), (-1.7, 1.0), (-2.0, -1.0)):
        assert np.array_equal(g2.dir_grad(np.array([x]), np.array([v])), [0.0])


# ------------------------------------------------------ pointwise oracle bits
# The formulas the pointwise oracles replaced, kept as the reference: each
# rewritten oracle must return their bytes.


def old_norm(x):
    return float(np.linalg.norm(x))


def old_linf_grad(x):
    j = int(np.argmax(np.abs(x)))
    e = np.zeros(x.size)
    e[j] = 1.0 if x[j] >= 0.0 else -1.0
    return e


def old_l1_dir_vector(x, v):
    s = np.sign(x)
    tie = s == 0.0
    s[tie] = np.sign(v[tie])
    s[s == 0.0] = 1.0
    return s


def old_linf_dir_vector(x, v):
    a = np.abs(x)
    top = float(a.max())
    best_j, best_d = -1, -np.inf
    for j in range(x.size):
        if a[j] != top:
            continue
        if x[j] > 0.0:
            d = v[j]
        elif x[j] < 0.0:
            d = -v[j]
        else:
            d = abs(v[j])
        if d > best_d:
            best_j, best_d = j, d
    e = np.zeros(x.size)
    if x[best_j] > 0.0:
        e[best_j] = 1.0
    elif x[best_j] < 0.0:
        e[best_j] = -1.0
    else:
        e[best_j] = 1.0 if v[best_j] >= 0.0 else -1.0
    return e


def rewritten_oracles(dim, alpha=0.25):
    """(label, oracle, reference), each a callable of (x, v)."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    ball = get_problem("ball-linear", dim=dim).spec.constraints[0]
    l1 = get_problem("l1-ball", dim=dim).spec.objective
    pl = get_problem("pl-nonconvex", dim=dim, alpha=alpha).spec
    f, g = pl.objective, pl.constraints[0]

    def ball_grad(x, v):
        n = old_norm(x)
        return x / n if n > 0.0 else e1.copy()

    def ball_dir(x, v):
        if old_norm(x) > 0.0:
            return ball_grad(x, v)
        nv = old_norm(v)
        return v / nv if nv > 0.0 else e1.copy()

    def sign_plus(x):
        return np.where(x >= 0.0, 1.0, -1.0)

    return [
        ("ball-linear g value", lambda x, v: ball.value(x),
         lambda x, v: old_norm(x) - 1.0),
        ("ball-linear g grad", lambda x, v: ball.grad(x), ball_grad),
        ("ball-linear g dir_grad", ball.dir_grad, ball_dir),
        ("l1-ball f value", lambda x, v: l1.value(x),
         lambda x, v: float(np.abs(x).sum())),
        ("l1-ball f dir_grad", l1.dir_grad, old_l1_dir_vector),
        ("pl-nonconvex f value", lambda x, v: f.value(x),
         lambda x, v: (float(np.abs(x).max())
                       - alpha * float(np.abs(x).sum()))),
        ("pl-nonconvex f grad", lambda x, v: f.grad(x),
         lambda x, v: old_linf_grad(x) - alpha * sign_plus(x)),
        ("pl-nonconvex f dir_grad", f.dir_grad,
         lambda x, v: (old_linf_dir_vector(x, v)
                       - alpha * old_l1_dir_vector(x, v))),
        ("pl-nonconvex g value", lambda x, v: g.value(x),
         lambda x, v: float(np.abs(x).max()) - 1.0),
        ("pl-nonconvex g grad", lambda x, v: g.grad(x),
         lambda x, v: old_linf_grad(x)),
        ("pl-nonconvex g dir_grad", g.dir_grad, old_linf_dir_vector),
    ]


# a few magnitudes, so that |x_j| ties and zero coordinates are common
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 1e-310, 1e300]),
    st.floats(-2.0, 2.0))


@st.composite
def oracle_points(draw):
    """(x, v): two points of one dimension, both views with one stride."""
    dim = draw(st.sampled_from([1, 2, 3, 10, 200]))
    step = draw(st.sampled_from([1, 2, -1]))

    def point():
        pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=4))
        if dim < 200:
            picks = draw(st.lists(st.integers(0, len(pool) - 1),
                                  min_size=dim, max_size=dim))
            signs = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        else:  # one drawn seed: shrinking 200-entry lists takes minutes
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            picks = rng.integers(0, len(pool), dim).tolist()
            signs = rng.integers(0, 2, dim).astype(bool).tolist()
        buf = np.full(dim * abs(step), 7.0)  # the entries the view skips
        buf[::step] = [-pool[k] if s else pool[k] for k, s in zip(picks, signs)]
        return buf[::step]

    return point(), point()


def as_bytes(out):
    if isinstance(out, float):
        return b"float" + np.float64(out).tobytes()
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    return repr(out.shape).encode() + out.tobytes()


@settings(max_examples=200, deadline=None)
@given(points=oracle_points())
@example(points=(np.zeros(3), np.zeros(3)))
@example(points=(np.array([0.0, -0.0, 0.5]), np.array([0.0, -1.0, -0.0])))
@example(points=(np.array([0.5, -0.5, 0.5]), np.array([1.0, 2.0, 2.0])))
@example(points=(np.array([1e300, -1e300]), np.array([5e-324, 0.0])))
@example(points=(np.array([5e-324, -5e-324]), np.array([1e-310, 0.0])))
def test_pointwise_oracles_keep_the_bits_of_their_old_formulas(points):
    x, v = points
    dim = x.size
    # squares of 1e300 overflow and of 5e-324 underflow, in both formulas
    with np.errstate(over="ignore", under="ignore"):
        for label, oracle, reference in rewritten_oracles(dim):
            assert as_bytes(oracle(x, v)) == as_bytes(reference(x, v)), label
        if math.isinf(old_norm(x)):  # a norm past the float range
            spec = get_problem("ball-linear", dim=dim).spec
            with pytest.raises(OracleError, match="non-finite value"):
                ReducedConstraint(spec).value(x)


DIRECTIONAL = ("l1-ball f dir_grad", "pl-nonconvex f dir_grad",
               "pl-nonconvex g dir_grad")


def assert_same_bits(out, ref, label):
    """Byte for byte, except that any NaN matches any NaN."""
    nan = np.isnan(ref)
    assert out.dtype == np.float64 and out.shape == ref.shape, label
    assert np.array_equal(np.isnan(out), nan), label
    assert out[~nan].tobytes() == ref[~nan].tobytes(), label


def check_directional(points):
    oracles = [(label, oracle, reference) for label, oracle, reference
               in rewritten_oracles(points[0][0].size) if label in DIRECTIONAL]
    assert len(oracles) == len(DIRECTIONAL)
    for x, v in points:
        for label, oracle, reference in oracles:
            assert_same_bits(oracle(x, v), reference(x, v),
                             "%s at x = %r, v = %r" % (label, x, v))


def test_directional_oracles_keep_their_old_output_at_nan_and_inf():
    # a NaN max picks the last coordinate, and so does a tie whose every
    # slope is NaN or -inf
    values = [math.inf, -math.inf, math.nan, 1.0, -1.0, 0.0, -0.0]
    pairs = [np.array(p) for p in itertools.product(values, repeat=2)]
    check_directional([(x, v) for x in pairs for v in pairs])
    check_directional([
        (np.array([1.0, math.nan, -1.0]), np.array([1.0, 2.0, 3.0])),
        (np.array([math.nan, 2.0, 0.5]), np.array([0.0, 1.0, -1.0])),
        (np.array([2.0, -2.0, 0.5]), np.array([-math.inf, -math.inf, 1.0])),
        (np.array([2.0, -2.0, 0.5]), np.array([math.nan, math.inf, 1.0])),
        (np.array([0.5, math.inf, -math.inf]), np.array([1.0, -math.inf, 0.0])),
    ])


@pytest.mark.parametrize("x", [[0.5, math.nan, -2.0], [math.nan, math.nan],
                               [-math.inf, 1.0, math.inf], [math.inf, math.nan]])
def test_max_norm_values_keep_their_old_bits_at_nan_and_inf(x):
    # a.item(a.argmax()) is the max of np.maximum.reduce, a NaN included
    x = np.array(x)
    for label, oracle, reference in rewritten_oracles(x.size):
        if label in ("pl-nonconvex f value", "pl-nonconvex g value"):
            assert as_bytes(oracle(x, x)) == as_bytes(reference(x, x)), label


def test_directional_oracles_keep_their_old_output_with_every_coordinate_tied():
    n = 1000
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], n)
    slopes = rng.standard_normal(n)
    same = np.full(n, 0.25)
    check_directional([
        (0.5 * signs, slopes),             # one largest slope
        (0.5 * signs, same * signs),       # every slope equal: lowest index
        (0.5 * signs, -math.inf * signs),  # every slope -inf: last index
        (np.zeros(n), slopes),             # every |x_j| = 0
        (np.zeros(n), np.zeros(n)),
    ])


# ---------------------------------------------------------- batch oracle bits
# The batch formulas before the max-norms ran along the sample axis, kept as
# the reference: every corpus batch oracle must return their bits.


def old_sign_plus(z):
    return np.where(z >= 0.0, 1.0, -1.0)


def old_linf_grads(z):
    rows = np.arange(len(z))
    j = np.argmax(np.abs(z), axis=1)
    e = np.zeros(z.shape)
    e[rows, j] = np.where(z[rows, j] >= 0.0, 1.0, -1.0)
    return e


def batch_oracles(dim, alpha=0.25):
    """(label, oracle, reference) for every corpus batch callable of a block
    of ``dim`` columns; the 1-D members only at dim = 1."""
    e1 = np.zeros(dim)
    e1[0] = 1.0

    def first(z):
        return z[:, 0].copy()

    specs = {"ball-linear": get_problem("ball-linear", dim=dim).spec,
             "l1-ball": get_problem("l1-ball", dim=dim).spec,
             "pl-nonconvex": get_problem("pl-nonconvex", dim=dim,
                                         alpha=alpha).spec}
    old = {
        "ball-linear": [
            (first, lambda z: np.tile(e1, (len(z), 1))),
            (lambda z: np.sqrt(np.einsum("ij,ij->i", z, z)) - 1.0,
             lambda z: tiled_quotient(z, e1))],
        "l1-ball": [
            (lambda z: np.abs(z).sum(axis=1), old_sign_plus),
            (lambda z: np.einsum("ij,ij->i", z, z) - 1.0, lambda z: 2.0 * z)],
        "pl-nonconvex": [
            (lambda z: (np.abs(z).max(axis=1)
                        - alpha * np.abs(z).sum(axis=1)),
             lambda z: old_linf_grads(z) - alpha * old_sign_plus(z)),
            (lambda z: np.abs(z).max(axis=1) - 1.0, old_linf_grads)],
    }
    if dim == 1:
        line = (first, lambda z: np.ones((len(z), 1)))
        square = (lambda z: z[:, 0] ** 2 - 1.0, lambda z: 2.0 * z)
        kink = (lambda z: np.where(np.abs(z[:, 0]) <= 1.5,
                                   np.abs(z[:, 0]) - 1.0, 0.5),
                lambda z: np.where(np.abs(z) > 1.5, 0.0, old_sign_plus(z)))
        specs["footnote-1d"] = get_problem("footnote-1d").spec
        specs["footnote-2c"] = get_problem("footnote-2c").spec
        old["footnote-1d"] = [line, square]
        old["footnote-2c"] = [line, square, kink]
    for name, spec in specs.items():
        for i, oracle in enumerate((spec.objective, *spec.constraints)):
            values, grads = old[name][i]
            yield "%s branch %d values" % (name, i), oracle.values, values
            yield "%s branch %d grads" % (name, i), oracle.grads, grads


# ties, signed zeros, NaN, infinities, subnormals and huge entries
BATCH_ENTRIES = (0.0, -0.0, 0.5, -0.5, 1.5, math.nan, math.inf, -math.inf,
                 5e-324, -5e-324, 1e300, -1e300)


@st.composite
def batch_blocks(draw):
    """An (N, n) block in C order, Fortran order, or as a z[::2, ::2] view."""
    rows = draw(st.sampled_from([0, 1, 64, 4097]))
    dim = draw(st.sampled_from([1, 2, 3, 10, 50]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    pool = np.array(draw(st.lists(st.sampled_from(BATCH_ENTRIES) | st.floats(
        -2.0, 2.0), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = pool[rng.integers(0, pool.size, (2 * rows, 2 * dim))]
    # a share of plain normal rows, so that not every row ties
    plain = rng.random(2 * rows) < draw(st.sampled_from([0.0, 0.5]))
    big[plain] = rng.standard_normal((int(plain.sum()), 2 * dim))
    if layout == "strided":
        return big[::2, ::2]
    block = big[:rows, :dim]
    return np.asfortranarray(block) if layout == "F" else block.copy()


@settings(max_examples=60, deadline=None)
@given(z=batch_blocks())
@example(z=np.array([[math.nan, 1.0], [1.0, math.nan], [-0.0, 0.0]]))
@example(z=np.asfortranarray(np.tile([0.5, -0.5, math.nan, -math.inf, 5e-324],
                                     (64, 10))))
@example(z=np.resize([1e300, -0.0, math.nan, math.inf, -1e300, 5e-324, 0.5],
                     (8194, 6))[::2, ::2])
def test_batch_oracles_keep_the_bits_of_their_old_formulas(z):
    with np.errstate(all="ignore"):  # inf - inf, squares of 1e300, 0 / 0
        for label, oracle, reference in batch_oracles(z.shape[1]):
            assert_same_bits(oracle(z), reference(z),
                             "%s on a %s block" % (label, z.shape))


# -------------------------------------------------- finite-difference checks


def fd_points(record, count, seed):
    rng = np.random.default_rng(seed)
    return [record.domain_sampler(rng) for _ in range(count)], rng


@pytest.mark.parametrize("name", CORPUS)
def test_gradient_oracles_match_central_differences(name):
    record = get_problem(name)
    spec = record.spec
    oracles = [spec.objective] + list(spec.constraints)
    points, _ = fd_points(record, 200, seed=101)
    h = 1e-6
    for x in points:
        for oracle in oracles:
            grad = np.asarray(oracle.grad(x), dtype=float)
            for j in range(spec.dim):
                e = np.zeros(spec.dim)
                e[j] = h
                fd = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
                assert abs(grad[j] - fd) <= 1e-6


@pytest.mark.parametrize("name", CORPUS)
def test_directional_oracles_match_one_sided_differences(name):
    record = get_problem(name)
    spec = record.spec
    oracles = [spec.objective] + list(spec.constraints)
    points, rng = fd_points(record, 200, seed=211)
    h = 1e-7
    for x in points:
        v = rng.standard_normal(spec.dim)
        v /= float(np.linalg.norm(v))
        for oracle in oracles:
            vec = np.asarray(oracle.dir_grad(x, v), dtype=float)
            fd = (oracle.value(x + h * v) - oracle.value(x)) / h
            assert abs(float(vec @ v) - fd) <= 1e-6


# ------------------------------------------------------------- helpers


def test_constant_constraint_never_binds():
    oracle = constant_constraint(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert oracle.value(x) == -1.0
        assert np.array_equal(oracle.grad(x), np.zeros(3))
        assert np.array_equal(oracle.dir_grad(x, x), np.zeros(3))
    assert constant_constraint(1, level=-0.25).value(np.zeros(1)) == -0.25


def test_ball_linear_sigma_cone_geometry():
    # unit normals over B(x, delta) stay within angle asin(delta/||x||) of
    # x/||x||; the hull of such a cone keeps norm >= the cosine
    sigma = ball_linear_sigma(0.1)
    assert sigma == pytest.approx(math.sqrt(1.0 - (0.1 / 0.8) ** 2), abs=1e-15)
    assert ball_linear_sigma(0.01) == pytest.approx(
        math.sqrt(1.0 - (0.01 / 0.98) ** 2), abs=1e-15)
    with pytest.raises(UsageError):
        ball_linear_sigma(0.4)  # edge 1 - 2*M*delta collapses
    with pytest.raises(UsageError):
        ball_linear_sigma(0.0)


def test_ball_linear_sigma_empirically_bounds_hull_norm():
    # sampled subgradient hulls near the boundary should keep at least sigma
    delta = 0.1
    sigma = ball_linear_sigma(delta)
    spec = get_problem("ball-linear").spec
    rng = np.random.default_rng(23)
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(1.0 - 2.0 * delta, 1.0)
        x = radius * np.array([math.cos(theta), math.sin(theta)])
        grads = []
        for _ in range(200):
            u = rng.standard_normal(2)
            u *= delta * rng.random() ** 0.5 / float(np.linalg.norm(u))
            z = x + u
            if float(np.linalg.norm(z)) == 0.0:
                continue
            grads.append(np.asarray(spec.constraints[0].grad(z)))
        assert min_norm_over_hull(np.array(grads)).min_norm >= sigma - 1e-9
