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
from typing import Callable

import numpy as np

from .errors import OracleError, UsageError

Vector = np.ndarray


@dataclass(frozen=True)
class Branch:
    """Which side of the max produced a value or subgradient.

    ``kind`` is "objective" or "constraint"; ``index`` is the 1-based
    constraint index for constraint branches and None for the objective.
    """

    kind: str
    index: int | None = None

    @property
    def is_objective(self) -> bool:
        return self.kind == "objective"

    @staticmethod
    def constraint(index: int) -> "Branch":
        if index < 1:
            raise UsageError("constraint branch indices are 1-based")
        return Branch("constraint", index)


OBJECTIVE = Branch("objective")


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


@dataclass(frozen=True)
class WeightedSubgradient:
    """One term of a convex combination ``zeta = sum_i w_i * vector_i``.

    ``point`` is where the oracle was queried, ``vector`` what it returned,
    ``branch`` which side of the max produced it.  ``direction`` records the
    query direction for directional-mode entries (None in gradient mode) so a
    verifier can re-run the same oracle call.
    """

    point: Vector
    vector: Vector
    branch: Branch
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
    if finite and not np.isfinite(v).all():
        raise UsageError("non-finite entries in input point")
    return v


def _as_points(z, dim: int) -> np.ndarray:
    pts = np.asarray(z, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise UsageError("expected an (N, %d) array of points, got shape %r"
                         % (dim, pts.shape))
    if not np.isfinite(pts).all():
        raise UsageError("non-finite entries in input points")
    return pts


# The output checks below run once per oracle call on the hot paths.  The
# oracle they name is ``what % args``, formatted only when a check fails.

def _finite_value(val, what: str, *args) -> float:
    val = float(val)
    if not math.isfinite(val):
        raise OracleError("non-finite value from %s" % (what % args))
    return val


def _finite_array(arr, shape: tuple, what: str, *args) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise OracleError("%s returned shape %r, expected %r"
                          % (what % args, arr.shape, shape))
    if not np.isfinite(arr).all():
        raise OracleError("non-finite entries from %s" % (what % args))
    return arr


def _finite_values(oracle: Oracle, z: np.ndarray, what: str, *args) -> np.ndarray:
    """Checked ``value`` of every row of z, batched when the oracle allows."""
    if oracle.values is None:
        return np.array([_finite_value(oracle.value(row), what, *args)
                         for row in z], dtype=float)
    return _finite_array(oracle.values(z), (len(z),), what, *args)


def _finite_grads(oracle: Oracle, z: np.ndarray, dim: int, what: str,
                  *args) -> np.ndarray:
    """Checked ``grad`` of every row of z, batched when the oracle allows."""
    if oracle.grads is None:
        return np.array([_finite_array(oracle.grad(row), (dim,), what, *args)
                         for row in z], dtype=float).reshape(len(z), dim)
    return _finite_array(oracle.grads(z), (len(z), dim), what, *args)


class ReducedConstraint:
    """View of ``g(x) = max_i g_i(x)`` over the original constraint list.

    Value ties between constraints are broken toward the lowest index.
    """

    def __init__(self, problem: ProblemSpec):
        self._problem = problem
        self._oracles = problem.constraints

    def value(self, z: Vector) -> tuple[float, int]:
        """Return (g(z), attaining 1-based index)."""
        best, best_i = -math.inf, 0
        for i, oracle in enumerate(self._oracles, start=1):
            vi = _finite_value(oracle.value(z), "constraint %d value", i)
            if vi > best:
                best, best_i = vi, i
        return best, best_i

    def grad(self, z: Vector) -> tuple[float, Vector, int]:
        """Return (g(z), a.e. gradient of the attaining constraint, index)."""
        val, idx = self.value(z)
        return val, self.grad_at(z, idx), idx

    def grad_at(self, z: Vector, idx: int) -> Vector:
        """Gradient of constraint idx at z."""
        return _finite_array(self._oracles[idx - 1].grad(z), (self._problem.dim,),
                             "constraint %d grad", idx)

    def values(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``value``: (g of every row of z, attaining 1-based indices)."""
        z = _as_points(z, self._problem.dim)
        best = np.full(len(z), -np.inf)
        best_i = np.zeros(len(z), dtype=int)
        for i, oracle in enumerate(self._oracles, start=1):
            vi = _finite_values(oracle, z, "constraint %d value", i)
            wins = vi > best
            best[wins] = vi[wins]
            best_i[wins] = i
        return best, best_i

    def grads_at(self, z: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gradient of constraint idx[k] at row k of z; rows with idx[k] == 0
        are left unset for the caller to fill."""
        vecs = np.empty((len(z), self._problem.dim))
        for i, oracle in enumerate(self._oracles, start=1):
            rows = idx == i
            if rows.any():
                vecs[rows] = _finite_grads(oracle, z[rows], self._problem.dim,
                                           "constraint %d grad", i)
        return vecs


class Subproblem:
    """Anchored subproblem h_x with joint-evaluation call accounting.

    One *subgradient call* evaluates f and g at a point together with the
    subgradient of the winning branch; one *value call* evaluates only the
    values.  These are the units the oracle-call budgets are stated in:
    ``subgrad_calls`` counts subgradient-oracle evaluations of h, matching
    the per-invocation budget formulas, while ``value_calls`` counts the
    value-only evaluations spent on descent tests.

    h(anchor) is recomputed from the anchor values rather than assumed 0,
    and anchors with g(anchor) > 0 are rejected where the caller requires
    feasibility (the inner searches do; the plain estimate in verify does
    not).
    """

    def __init__(self, problem: ProblemSpec, anchor: Vector,
                 anchor_values: tuple[float, float] | None = None):
        self.problem = problem
        self.anchor = _as_vector(anchor, problem.dim)
        self._g = ReducedConstraint(problem)
        self.subgrad_calls = 0
        self.value_calls = 0
        if anchor_values is None:
            f0 = _finite_value(problem.objective.value(self.anchor), "objective value")
            g0, _ = self._g.value(self.anchor)
            self.value_calls += 1
        else:
            f0, g0 = float(anchor_values[0]), float(anchor_values[1])
        self.f_anchor = f0
        self.g_anchor = g0
        # literal recomputation: equals 0 only because g(anchor) <= 0
        self.h_anchor = max(0.0, g0)

    # -- value-only event ---------------------------------------------------

    def value_full(self, z: Vector) -> tuple[float, float, float]:
        """Return (h(z), f(z), g(z)); one value call."""
        fz = _finite_value(self.problem.objective.value(z), "objective value")
        gz, _ = self._g.value(z)
        self.value_calls += 1
        return max(fz - self.f_anchor, gz), fz, gz

    # -- subgradient events --------------------------------------------------

    def grad(self, z: Vector) -> tuple[Vector, Branch]:
        """A.e.-gradient of h at z; ties go to the objective branch."""
        fz = _finite_value(self.problem.objective.value(z), "objective value")
        gz, idx = self._g.value(z)
        if fz - self.f_anchor >= gz:
            vec = _finite_array(self.problem.objective.grad(z), (self.problem.dim,),
                                "objective grad")
            branch = OBJECTIVE
        else:
            vec = self._g.grad_at(z, idx)
            branch = Branch.constraint(idx)
        self.subgrad_calls += 1
        return vec, branch

    def grads(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``grad``: (N, n) a.e.-gradients of h at the rows of z and
        their branches as indices, 0 for the objective and i for constraint i.

        Same rules as ``grad``: ties go to the objective, constraint ties to
        the lowest index; one subgradient call per row.
        """
        z = _as_points(z, self.problem.dim)
        fz = _finite_values(self.problem.objective, z, "objective value")
        gz, idx = self._g.values(z)
        obj = fz - self.f_anchor >= gz
        idx[obj] = 0
        vecs = self._g.grads_at(z, idx)
        if obj.any():
            vecs[obj] = _finite_grads(self.problem.objective, z[obj],
                                      self.problem.dim, "objective grad")
        self.subgrad_calls += len(z)
        return vecs, idx

    def dir_grad(self, z: Vector, v: Vector) -> tuple[Vector, Branch, float, float]:
        """Directional subgradient of h at z along v.

        Returns (vector, branch, h(z), directional derivative).  Only the
        branches that attain h(z) run ``dir_grad``: the objective first,
        then the constraints by index.  The largest <vector, v> wins and
        equalities stay with the earlier branch, so <vector, v> is the
        directional derivative of the max.
        """
        problem = self.problem
        if problem.objective.dir_grad is None:
            raise UsageError("objective has no directional oracle")
        fz = _finite_value(problem.objective.value(z), "objective value")
        fdiff = fz - self.f_anchor
        g = [_finite_value(o.value(z), "constraint %d value", i)
             for i, o in enumerate(problem.constraints, start=1)]
        gz = max(g)
        self.subgrad_calls += 1
        best = None
        if fdiff >= gz:
            vec = _finite_array(problem.objective.dir_grad(z, v), (problem.dim,),
                                "objective dir_grad")
            best = vec, OBJECTIVE, fdiff, float(vec @ v)
        if fdiff <= gz:
            for i, (gi, oracle) in enumerate(zip(g, problem.constraints), start=1):
                if gi != gz:
                    continue
                if oracle.dir_grad is None:
                    raise UsageError("constraint %d has no directional oracle" % i)
                vec = _finite_array(oracle.dir_grad(z, v), (problem.dim,),
                                    "constraint %d dir_grad", i)
                dd = float(vec @ v)
                if best is None or dd > best[3]:
                    best = vec, Branch.constraint(i), gz, dd
        return best


def segment_projection_coefficient(a: Vector, b: Vector) -> float:
    """t* in [0, 1] minimizing ||(1 - t) a + t b|| (projection of 0 on [a, b])."""
    d = a - b
    denom = float(d @ d)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, float(a @ d) / denom))


# rows per batch draw in the sampling loops; bounds their working memory
SAMPLE_BLOCK = 4096
# most samples one sampled check may draw: 100x the verifier's default
MAX_SAMPLES = 10**6


def _check_samples(total: int, what: str, least: int = 0) -> None:
    if not least <= total <= MAX_SAMPLES:
        raise UsageError("%s must be %s and at most %d, got %d"
                         % (what, "positive" if least else "nonnegative",
                            MAX_SAMPLES, total))


def sample_blocks(total: int) -> list[int]:
    """Row counts of the blocks that draw ``total`` samples, in order."""
    _check_samples(total, "sample count")
    full, rest = divmod(total, SAMPLE_BLOCK)
    return [SAMPLE_BLOCK] * full + ([rest] if rest else [])


def sample_ball(center: Vector, radius: float, rng: np.random.Generator,
                size: int | None = None) -> Vector:
    """Uniform sample from the closed Euclidean ball B(center, radius).

    Draw order is fixed so runs replay bit-for-bit.  A single point
    (``size=None``) takes n standard normals for the direction, then one
    uniform whose (1/n)-th power scales the radius.  With ``size`` the result
    is a (size, n) array whose row i is the first n coordinates of a uniform
    point on the unit sphere of R^(n+2), which is uniform in the unit ball:
    it uses only its own n+2 normals, so a draw of size a followed by one of
    size b gives the same rows as one draw of size a + b.
    """
    n = center.size
    if size is not None:
        normals = rng.standard_normal((size, n + 2))
        norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
        # a zero row has probability zero; map it to the center
        scale = np.divide(radius, norms, out=np.zeros(size), where=norms > 0.0)
        return center + scale[:, None] * normals[:, :n]
    u = rng.standard_normal(n)
    norm = math.sqrt(u.dot(u))
    while norm == 0.0:  # probability zero, but keep the draw order clean
        u = rng.standard_normal(n)
        norm = math.sqrt(u.dot(u))
    r = radius * rng.random() ** (1.0 / n)
    return center + (r / norm) * u
