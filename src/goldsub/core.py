"""Problem model and first-order primitives.

A problem is ``min f(x)  s.t.  g_i(x) <= 0, i = 1..m`` with f and every g_i
Lipschitz on a neighborhood of the feasible region.  The constraints are
reduced to the single function ``g(x) = max_i g_i(x)``, and descent steps are
driven by the anchored max-form subproblem

    h_x(z) = max { f(z) - f(x), g(z) },

which is 0 at a feasible anchor x and whose Goldstein stationary points yield
Fritz-John certificates for the original problem.

Oracles come in two flavours.  An almost-everywhere gradient oracle returns
the gradient wherever the function is differentiable and some fixed
deterministic subgradient on the measure-zero kink set.  A directional
subgradient oracle F(x, v) additionally satisfies <F(x, v), v> equal to the
one-sided directional derivative of f at x along v.

Both flavours may also come batch-first: ``values`` / ``grads`` take an
(N, n) array of points and return one row per point.  Oracles without them
are evaluated row by row through the pointwise callables, so the batch
methods of ReducedConstraint and Subproblem accept every oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import OracleError, UsageError

Vector = np.ndarray


@dataclass(frozen=True)
class Oracle:
    """Value plus subgradient access for one function.

    value     : x -> float
    grad      : x -> vector; gradient a.e., a fixed deterministic subgradient
                at kinks
    dir_grad  : (x, v) -> vector F with <F, v> equal to the one-sided
                directional derivative at x along v; None when the problem is
                only used with the randomized inner search
    values    : Z -> (N,) array, ``value`` of every row of an (N, n) array;
                None to evaluate row by row
    grads     : Z -> (N, n) array, ``grad`` of every row; None to evaluate
                row by row
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    dir_grad: Callable[[Vector, Vector], Vector] | None = None
    values: Callable[[np.ndarray], np.ndarray] | None = None
    grads: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ProblemSpec:
    """Instance data plus the metadata the budgets and certificates need.

    lipschitz_m bounds both f and every g_i on the neighborhood_delta
    fattening of the feasible region.  nonconvexity_f / nonconvexity_g are
    upper bounds on the nonconvexity modulus of f and of the reduced
    constraint (0 for convex functions, None when unknown); the deterministic
    inner search's call budget is only checkable when they are known.
    p_star / known_optimum are None when unknown.
    """

    dim: int
    objective: Oracle
    constraints: tuple[Oracle, ...]
    lipschitz_m: float
    neighborhood_delta: float
    nonconvexity_f: float | None = None
    nonconvexity_g: float | None = None
    p_star: float | None = None
    known_optimum: Vector | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise UsageError("dim must be >= 1")
        if len(self.constraints) < 1:
            raise UsageError(
                "at least one constraint is required; model an unconstrained "
                "problem with the constant constraint g(x) = -1"
            )
        if not (self.lipschitz_m > 0 and np.isfinite(self.lipschitz_m)):
            raise UsageError("lipschitz_m must be positive and finite")
        if not (self.neighborhood_delta > 0 and np.isfinite(self.neighborhood_delta)):
            raise UsageError("neighborhood_delta must be positive and finite")

    @cached_property
    def _reduced(self) -> ReducedConstraint:
        """The reduced constraint, built on first use and kept: the
        Subproblem of every inner search shares it."""
        return ReducedConstraint(self)


@dataclass
class WeightedSubgradient:
    """One term of a convex combination ``zeta = sum_i w_i * vector_i``.

    ``point`` is where the oracle was queried, ``vector`` what it returned,
    ``branch`` the index of the side of the max that produced it: 0 for the
    objective, i for constraint i.  ``direction`` records the query
    direction for directional-mode entries (None in gradient mode) so a
    verifier can re-run the same oracle call.

    A plain record, not a frozen one, because a frozen dataclass pays for
    each field it stores and a certificate decodes one entry per term: a
    field can be rebound (goldsub never rebinds one), and an entry is not
    hashable.
    """

    point: Vector
    vector: Vector
    branch: int
    weight: float
    direction: Vector | None = None


def _as_vector(x, dim: int, finite: bool = True) -> Vector:
    """x as a 1-D array of length dim; finite=False admits NaN/inf entries,
    as in stored vectors that the verifier compares rather than evaluates."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise UsageError("expected a 1-D point, got shape %r" % (v.shape,))
    if v.size != dim:
        raise UsageError("expected dimension %d, got %d" % (dim, v.size))
    if finite and not _all_finite(v):
        raise UsageError("non-finite entries in input point")
    return v


def _as_points(z, dim: int) -> np.ndarray:
    pts = np.asarray(z, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise UsageError("expected an (N, %d) array of points, got shape %r"
                         % (dim, pts.shape))
    if not _all_finite(pts):
        raise UsageError("non-finite entries in input points")
    return pts


# most entries whose finiteness one dot product tests; BLAS may split a
# longer dot product over threads, which costs more than the test saves
DOT_TEST_MAX = 4096


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a float array is finite.

    a.a is finite only when every entry of a is, so the entrywise test runs
    only when it is not (an entry is inf or NaN, or a square overflows) or
    when the array is long; the answer is exact either way.  ``vdot``
    flattens a, and unlike ``dot`` it warns on no overflow.
    """
    return ((a.size <= DOT_TEST_MAX and math.isfinite(np.vdot(a, a)))
            or bool(np.isfinite(a).all()))


def _norm(v: Vector) -> float:
    """||v|| by np.linalg.norm's own formula for a 1-D array, without its
    wrapper: the same bits."""
    r = v.ravel(order="K")
    return math.sqrt(r.dot(r))


# The output checks below run once per oracle call on the hot paths.  They
# name the oracle by its branch b of h_x, 0 for the objective and i for
# constraint i, and format that name only when a check fails.

def _oracle_name(b: int, kind: str) -> str:
    return "objective " + kind if b == 0 else "constraint %d %s" % (b, kind)


def _finite_value(val, b: int) -> float:
    val = float(val)
    if not math.isfinite(val):
        raise OracleError("non-finite value from %s" % _oracle_name(b, "value"))
    return val


def _finite_array(arr, shape: tuple, b: int, kind: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise OracleError("%s returned shape %r, expected %r"
                          % (_oracle_name(b, kind), arr.shape, shape))
    if not _all_finite(arr):
        raise OracleError("non-finite entries from %s" % _oracle_name(b, kind))
    return arr


def _finite_values(oracle: Oracle, z: np.ndarray, b: int) -> np.ndarray:
    """Checked ``value`` of every row of z, batched when the oracle allows."""
    if oracle.values is None:
        return np.array([_finite_value(oracle.value(row), b) for row in z],
                        dtype=float)
    return _finite_array(oracle.values(z), (len(z),), b, "value")


def _finite_grads(oracle: Oracle, z: np.ndarray, dim: int, b: int) -> np.ndarray:
    """Checked ``grad`` of every row of z, batched when the oracle allows."""
    if oracle.grads is None:
        return np.array([_finite_array(oracle.grad(row), (dim,), b, "grad")
                         for row in z], dtype=float).reshape(len(z), dim)
    return _finite_array(oracle.grads(z), (len(z), dim), b, "grad")


class ReducedConstraint:
    """View of ``g(x) = max_i g_i(x)`` over the original constraint list.

    The one reader of the constraint oracles' values: every Subproblem
    event takes g and the constraints attaining it from here, and a single
    attaining index is the lowest.  The problem keeps one, whose branch
    table (each branch's oracle) and gradient shape its Subproblems read.
    """

    def __init__(self, problem: ProblemSpec):
        # no reference back to the problem, which keeps this object: the
        # pair is then freed by reference counting, not by the cycle collector
        self._oracles = problem.constraints
        # a one-constraint problem reads its oracle without the loop
        self._only = (problem.constraints[0].value
                      if len(problem.constraints) == 1 else None)
        self._branches = (problem.objective, *problem.constraints)
        self._shape = (problem.dim,)

    def value(self, z: Vector) -> tuple[float, tuple[int, ...]]:
        """Return (g(z), the 1-based indices of the constraints attaining
        it, lowest first); each constraint's ``value`` runs once."""
        if self._only is not None:
            return _finite_value(self._only(z), 1), (1,)
        best, ties = -math.inf, ()
        for i, oracle in enumerate(self._oracles, start=1):
            vi = _finite_value(oracle.value(z), i)
            if vi > best:
                best, ties = vi, (i,)
            elif vi == best:
                ties += (i,)
        return best, ties

    def values(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``value``: (g of every row of z, attaining 1-based indices)
        for rows that ``Subproblem.grads`` has checked; no check here."""
        best = _finite_values(self._oracles[0], z, 1)
        best_i = np.ones(len(z), dtype=int)
        for i, oracle in enumerate(self._oracles[1:], start=2):
            vi = _finite_values(oracle, z, i)
            wins = vi > best
            best = np.where(wins, vi, best)
            best_i[wins] = i
        return best, best_i


class Subproblem:
    """Anchored subproblem h_x with joint-evaluation call accounting.

    The sides of the max in h_x are its branches, each named by an index:
    0 for the objective, i for constraint i; branch b's oracle is entry b
    of ``(objective, *constraints)``.  A subgradient comes from the lowest
    index that attains h(z); in directional mode, from the attaining branch
    of largest slope along the query direction, the lowest index on equal
    slopes.

    One *subgradient call* evaluates f and g at a point together with the
    subgradient of the winning branch; one *value call* evaluates only the
    values.  These are the units the oracle-call budgets are stated in:
    ``subgrad_calls`` counts subgradient-oracle evaluations of h, matching
    the per-invocation budget formulas, while ``value_calls`` counts the
    value-only evaluations spent on descent tests.

    h(anchor) is recomputed from the anchor values rather than assumed 0,
    and anchors with g(anchor) > 0 are rejected where the caller requires
    feasibility (the inner searches do; the plain estimate in verify does
    not).  ``anchor_values = (f(anchor), g(anchor))`` says the caller has
    evaluated the anchor, and so validated it: it is then taken as given,
    a finite float array of length ``problem.dim``.  ``_checked`` (private
    use) says only the validation is done: the anchor is taken as given and
    its values are still read here.
    """

    def __init__(self, problem: ProblemSpec, anchor: Vector,
                 anchor_values: tuple[float, float] | None = None, *,
                 _checked: bool = False):
        self.problem = problem
        self._g = g = problem._reduced
        self._oracles, self._shape = g._branches, g._shape
        self._f = problem.objective.value
        self.subgrad_calls = 0
        self.value_calls = 0
        if anchor_values is None:
            if not _checked:
                anchor = _as_vector(anchor, problem.dim)
            self.anchor = anchor
            f0 = _finite_value(self._f(anchor), 0)
            g0, _ = self._g.value(anchor)
            self.value_calls += 1
        else:
            self.anchor = anchor
            f0, g0 = float(anchor_values[0]), float(anchor_values[1])
        self.f_anchor = f0
        self.g_anchor = g0
        # literal recomputation: equals 0 only because g(anchor) <= 0
        self.h_anchor = max(0.0, g0)

    # -- value-only event ---------------------------------------------------

    def value_full(self, z: Vector) -> tuple[float, float, float]:
        """Return (h(z), f(z), g(z)); one value call."""
        fz = _finite_value(self._f(z), 0)
        gz, _ = self._g.value(z)
        self.value_calls += 1
        fdiff = fz - self.f_anchor
        return (gz if gz > fdiff else fdiff), fz, gz

    # -- subgradient events --------------------------------------------------

    def grad(self, z: Vector) -> tuple[Vector, int]:
        """(a.e.-gradient of h at z, its branch index)."""
        fz = _finite_value(self._f(z), 0)
        gz, ties = self._g.value(z)
        b = 0 if fz - self.f_anchor >= gz else ties[0]
        vec = _finite_array(self._oracles[b].grad(z), self._shape, b, "grad")
        self.subgrad_calls += 1
        return vec, b

    def grads(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``grad``: (N, n) a.e.-gradients of h at the rows of z and
        their branch indices; one subgradient call per row."""
        dim = self.problem.dim
        z = _as_points(z, dim)
        fz = _finite_values(self.problem.objective, z, 0)
        gz, idx = self._g.values(z)
        idx[fz - self.f_anchor >= gz] = 0
        b = int(idx[0]) if len(idx) else 0
        if (idx == b).all():  # one branch: its oracle's checked array as it is
            vecs = _finite_grads(self._oracles[b], z, dim, b)
        else:
            vecs = np.empty((len(z), dim))
            for b, oracle in enumerate(self._oracles):
                rows = idx == b
                if rows.any():
                    vecs[rows] = _finite_grads(oracle, z[rows], dim, b)
        self.subgrad_calls += len(z)
        return vecs, idx

    def dir_grad(self, z: Vector, v: Vector) -> tuple[Vector, int, float, float]:
        """Directional subgradient of h at z along v.

        Returns (vector, branch index, h(z), directional derivative).  Only
        the branches that attain h(z) run ``dir_grad``: the objective first,
        then the constraints that ``ReducedConstraint.value`` names as
        attaining g(z), by index.  The largest <vector, v> wins and
        equalities stay with the earlier branch, so <vector, v> is the
        directional derivative of the max.  At the anchor array itself with
        g(anchor) < 0, the objective alone attains h = 0: no value is read.
        """
        oracles, shape = self._oracles, self._shape
        if oracles[0].dir_grad is None:
            raise UsageError("objective has no directional oracle")
        if z is self.anchor and self.g_anchor < 0.0:
            fdiff, gz, ties = 0.0, self.g_anchor, ()
        else:
            fdiff = _finite_value(self._f(z), 0) - self.f_anchor
            gz, ties = self._g.value(z)
        self.subgrad_calls += 1
        best = None
        if fdiff >= gz:
            vec = _finite_array(oracles[0].dir_grad(z, v), shape, 0, "dir_grad")
            best = vec, 0, fdiff, _dot(vec, v)
        if fdiff <= gz:
            for i in ties:
                oracle = oracles[i]
                if oracle.dir_grad is None:
                    raise UsageError("constraint %d has no directional oracle" % i)
                vec = _finite_array(oracle.dir_grad(z, v), shape, i, "dir_grad")
                dd = _dot(vec, v)
                if best is None or dd > best[3]:
                    best = vec, i, gz, dd
        return best


def _dot(a: Vector, b: Vector) -> float:
    """``float(a @ b)`` for 1-D float arrays.  When both strides are
    positive, @ adds the BLAS ``ddot`` of the two to 0.0, and
    ``ndarray.dot`` returns that ``ddot`` in fewer steps; adding 0.0 makes a
    -0.0 +0.0, as @ does.  @ sums a view of any other stride in a plain
    loop, where ``.dot`` would copy it and call ``ddot``: other bits."""
    if a.strides[0] > 0 and b.strides[0] > 0:
        return float(a.dot(b)) + 0.0
    return float(a @ b)


def segment_projection_coefficient(a: Vector, b: Vector) -> float:
    """t* in [0, 1] minimizing ||(1 - t) a + t b|| (projection of 0 on [a, b])."""
    d = a - b
    denom = _dot(d, d)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, _dot(a, d) / denom))


# most samples one sampled check may draw: 100x the verifier's default
MAX_SAMPLES = 10**6


def _check_samples(total: int, what: str) -> None:
    if not 1 <= total <= MAX_SAMPLES:
        raise UsageError("%s must be positive and at most %d, got %d"
                         % (what, MAX_SAMPLES, total))


def sample_ball(center: Vector, radius: float, rng: np.random.Generator,
                out: np.ndarray | None = None) -> Vector:
    """Uniform sample from the closed Euclidean ball B(center, radius).

    Draw order is fixed so runs replay bit-for-bit.  A single point
    (``out=None``) takes n standard normals for the direction, then one
    uniform whose (1/n)-th power scales the radius.  With ``out``, a (k, n)
    float array, the k rows of ``out`` are overwritten and ``out`` is
    returned; row i is the first n coordinates of a uniform point on the
    unit sphere of R^(n+2), which is uniform in the unit ball.  Each row
    uses only its own n+2 normals, so a draw into a rows followed by one
    into b rows gives the same rows as one draw into a + b.
    """
    n = center.size
    if out is not None:
        size = len(out)
        normals = rng.standard_normal((size, n + 2))
        norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
        # a zero row has probability zero; map it to the center
        scale = np.divide(radius, norms, out=np.zeros(size), where=norms > 0.0)
        # normal_ij * scale_i + center_j with no (k, n) temporary;
        # einsum would be faster but turns a -0.0 product into +0.0
        np.multiply(normals[:, :n], scale[:, None], out=out)
        out += center
        return out
    u = rng.standard_normal(n)
    norm = math.sqrt(u.dot(u))
    while norm == 0.0:  # probability zero, but keep the draw order clean
        u = rng.standard_normal(n)
        norm = math.sqrt(u.dot(u))
    r = radius * rng.random() ** (1.0 / n)
    return center + (r / norm) * u
