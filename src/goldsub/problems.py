"""Built-in test problems with exact metadata.

Every instance carries the Lipschitz bound M, the neighborhood radius the
bound is valid on, nonconvexity moduli for both oracles, and (where known)
the optimal value and a minimizer, so descent lemmas, call budgets, and
certificates are all checkable against ground truth.  Kink conventions are
fixed so almost-everywhere gradient oracles are deterministic: sign(0) is
taken as +1, the subgradient of the Euclidean norm at 0 is the first basis
vector, and argmax ties resolve to the lowest index.  Every oracle also has
batch callables that apply the same rules to each row of an (N, n) array.

A pointwise oracle runs on every joint call, and at small n its cost is
numpy's per-call overhead, so the pointwise callables sum with
``np.add.reduce``, take a max as ``a.item(a.argmax())`` and norms with
``core._norm``, not ``ndarray.sum``/``.max`` and ``np.linalg.norm``, whose
Python wrappers cost more: the bits are the same (a NaN max included).  A
batch reduction over the coordinate axis of an (N, n) block runs one numpy
loop per row, so batch maxes run along the sample axis; sums and ``einsum``
norms stay per row, for their bits.  The kinked directional oracles read the
coordinates once as Python floats and find the max with C-level list calls,
return ``np.sign(x)`` when no coordinate is 0, and build one output array.
A gradient that is a sum of parts is built the same way, as one array: the
pl-nonconvex objective's is ``np.where(x >= 0, -alpha, alpha)`` plus the
sign at the max-norm index, the bits of ``e - alpha * s``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Oracle, ProblemSpec, Subproblem, Vector, _norm, sample_ball
from .errors import UsageError


@dataclass(frozen=True)
class ProblemRecord:
    """A corpus entry: the instance plus everything tests need around it."""

    name: str
    spec: ProblemSpec
    start: Vector
    params: dict
    domain_sampler: Callable[[np.random.Generator], Vector]


def _validate_record(record: ProblemRecord) -> ProblemRecord:
    spec = record.spec
    if spec.p_star is not None and spec.known_optimum is not None:
        opt = Subproblem(spec, spec.known_optimum)
        if abs(opt.f_anchor - spec.p_star) > 1e-9:
            raise UsageError(
                "corpus metadata inconsistent for %s: f(optimum) = %.12g "
                "but p_star = %.12g" % (record.name, opt.f_anchor, spec.p_star))
        if opt.g_anchor > 1e-9:
            raise UsageError(
                "corpus metadata inconsistent for %s: optimum infeasible, "
                "g = %.12g" % (record.name, opt.g_anchor))
    if Subproblem(spec, record.start).g_anchor > 0.0:
        raise UsageError("corpus start for %s is infeasible" % record.name)
    return record


def _positive_int(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise UsageError("%s must be a positive integer, got %r" % (name, value))
    if value > np.iinfo(np.intp).max:  # no array of that length can exist
        raise UsageError("%s must be at most %d, got %r"
                         % (name, np.iinfo(np.intp).max, value))


def _positive_real(value, name: str) -> None:
    # an int beyond the float range compares exactly, where isfinite overflows
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not 0 < value <= sys.float_info.max:
        raise UsageError("%s must be a positive finite real, got %r"
                         % (name, value))


def _sign_plus(x: Vector) -> Vector:
    return np.where(x >= 0.0, 1.0, -1.0)


def _l1_dir_vector(x: Vector, v: Vector) -> Vector:
    """Subgradient s of the 1-norm at x with <s, v> = its directional derivative."""
    s = np.sign(x)
    if np.logical_and.reduce(s):  # no zero coordinate: no tie to break
        return s
    tie = s == 0.0
    s[tie] = np.sign(v[tie])
    s[s == 0.0] = 1.0
    return s


def _linf_grad(x: Vector) -> Vector:
    j = int(np.abs(x).argmax())
    e = np.zeros(x.size)
    e[j] = 1.0 if x[j] >= 0.0 else -1.0
    return e


def _linf_grads(z: np.ndarray) -> np.ndarray:
    """``_linf_grad`` of every row; argmax takes the lowest index on ties."""
    rows = np.arange(len(z))
    j = np.argmax(np.abs(z), axis=1)
    e = np.zeros(z.shape)
    e[rows, j] = np.where(z[rows, j] >= 0.0, 1.0, -1.0)
    return e


def _abs_row_max(z: np.ndarray) -> np.ndarray:
    """max_j |z_ij| of every row, taken along the sample axis of |z|^T: a max
    has the same bits in any order, a NaN included."""
    return np.maximum.reduce(np.abs(z.T, order="C"), axis=0)


def _linf_dir_index(x: Vector, v: Vector) -> tuple[int, float]:
    """(j, s) with s*e_j a subgradient of the max-norm at x matching its
    directional derivative along v: the largest slope among the coordinates
    tied at the max, the lowest index on equal slopes.  When the max is NaN,
    or no tied slope exceeds -inf, it is the last coordinate."""
    xs = x.tolist()
    a = list(map(abs, xs))
    top = max(a)
    j = len(a) - 1
    total = sum(a)
    if total == total:  # no NaN coordinate, so max found the max
        best, k = -math.inf, 0
        for _ in range(a.count(top)):
            k = a.index(top, k)
            xk, vk = xs[k], v.item(k)
            d = vk if xk > 0.0 else -vk if xk < 0.0 else abs(vk)
            if d > best:
                j, best = k, d
            k += 1
    xj = xs[j]
    if xj > 0.0:
        return j, 1.0
    if xj < 0.0:
        return j, -1.0
    return j, 1.0 if v.item(j) >= 0.0 else -1.0


def _linf_dir_vector(x: Vector, v: Vector) -> Vector:
    """Subgradient of the max-norm at x matching its directional derivative."""
    j, sign = _linf_dir_index(x, v)
    e = np.zeros(x.size)
    e[j] = sign
    return e


def _ball_sampler(dim: int, radius: float):
    """Uniform draws from the ball of ``radius`` centred at the origin."""
    return lambda rng: sample_ball(np.zeros(dim), radius, rng)


def _box_sampler(dim: int, half: float):
    """Uniform draws from the box [-half, half]^dim."""
    return lambda rng: rng.uniform(-half, half, size=dim)


def _first_coordinate(dim: int) -> Oracle:
    """f(x) = x_1, the objective of ball-linear and the footnote problems."""
    e1 = np.eye(1, dim)[0]
    return Oracle(value=lambda x: float(x[0]),
                  grad=lambda x: e1.copy(),
                  dir_grad=lambda x, v: e1.copy(),
                  values=lambda z: z[:, 0].copy(),
                  grads=lambda z: np.tile(e1, (len(z), 1)))


def constant_constraint(dim: int, level: float = -1.0) -> Oracle:
    """g(x) = level everywhere; with level < 0 it never binds, which embeds
    unconstrained minimization in the solver unchanged."""
    zero = np.zeros(dim)
    return Oracle(value=lambda x: level,
                  grad=lambda x: zero.copy(),
                  dir_grad=lambda x, v: zero.copy(),
                  values=lambda z: np.full(len(z), float(level)),
                  grads=lambda z: np.zeros((len(z), dim)))


def ball_linear_sigma(delta: float) -> float:
    """Constraint-qualification level for ball-linear at radius delta.

    Constraint mass only ever appears at anchors with g(x) >= -2*M*delta,
    i.e. ||x|| >= 1 - 2*M*delta, where M = 1.  Every constraint subgradient
    over B(x, delta) is a unit normal y/||y|| within angle arcsin(delta/||x||)
    of x/||x||, and a hull of unit vectors inside that cone keeps norm at
    least the cosine, so sigma = sqrt(1 - (delta/(1 - 2*delta))^2).
    """
    if not delta > 0:
        raise UsageError("delta must be positive")
    edge = 1.0 - 2.0 * delta
    if delta >= edge:
        raise UsageError("delta = %g too large for the cone argument" % delta)
    return math.sqrt(1.0 - (delta / edge) ** 2)


def _ball_linear(dim: int = 2) -> ProblemRecord:
    _positive_int(dim, "dim")
    e1 = np.eye(1, dim)[0]

    def g_value(x):
        return _norm(x) - 1.0

    def g_grad(x):
        n = _norm(x)
        return x / n if n > 0.0 else e1.copy()

    def g_dir(x, v):
        n = _norm(x)
        if n > 0.0:
            return x / n
        nv = _norm(v)
        return v / nv if nv > 0.0 else e1.copy()

    def g_values(z):
        return np.sqrt(np.einsum("ij,ij->i", z, z)) - 1.0

    def g_grads(z):
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        inside = norms > 0.0
        # the quotient straight into the one output array, then e1 at 0
        out = np.divide(z, norms[:, None], out=np.empty(z.shape),
                        where=inside[:, None])
        out[~inside] = e1
        return out

    constraint = Oracle(value=g_value, grad=g_grad, dir_grad=g_dir,
                        values=g_values, grads=g_grads)
    pad = 0.5
    opt = np.zeros(dim)
    opt[0] = -1.0
    spec = ProblemSpec(dim=dim, objective=_first_coordinate(dim),
                       constraints=(constraint,),
                       lipschitz_m=1.0, neighborhood_delta=pad,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=opt)

    return _validate_record(ProblemRecord(
        name="ball-linear", spec=spec, start=np.zeros(dim),
        params={"dim": dim}, domain_sampler=_ball_sampler(dim, 1.0 + 0.9 * pad)))


def _l1_ball(dim: int = 2) -> ProblemRecord:
    _positive_int(dim, "dim")
    pad = 0.5

    # the batch sum stays per row: along the samples its bits change from n = 8
    objective = Oracle(value=lambda x: float(np.add.reduce(np.abs(x))),
                       grad=lambda x: _sign_plus(x),
                       dir_grad=lambda x, v: _l1_dir_vector(x, v),
                       values=lambda z: np.abs(z).sum(axis=1),
                       grads=_sign_plus)
    constraint = Oracle(value=lambda x: float(x @ x) - 1.0,
                        grad=lambda x: 2.0 * x,
                        dir_grad=lambda x, v: 2.0 * x,
                        values=lambda z: np.einsum("ij,ij->i", z, z) - 1.0,
                        grads=lambda z: 2.0 * z)
    spec = ProblemSpec(dim=dim, objective=objective, constraints=(constraint,),
                       lipschitz_m=max(math.sqrt(dim), 2.0 * (1.0 + pad)),
                       neighborhood_delta=pad,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=0.0, known_optimum=np.zeros(dim))
    start = np.zeros(dim)
    start[0] = 0.9
    if dim > 1:
        start[1] = -0.3

    return _validate_record(ProblemRecord(
        name="l1-ball", spec=spec, start=start,
        params={"dim": dim}, domain_sampler=_ball_sampler(dim, 1.0 + 0.9 * pad)))


def _square_constraint() -> Oracle:
    return Oracle(value=lambda x: float(x[0]) ** 2 - 1.0,
                  grad=lambda x: 2.0 * x,
                  dir_grad=lambda x, v: 2.0 * x,
                  values=lambda z: z[:, 0] ** 2 - 1.0,
                  grads=lambda z: 2.0 * z)


def _footnote_1d() -> ProblemRecord:
    spec = ProblemSpec(dim=1, objective=_first_coordinate(1),
                       constraints=(_square_constraint(),),
                       lipschitz_m=3.0, neighborhood_delta=0.5,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=np.array([-1.0]))

    return _validate_record(ProblemRecord(
        name="footnote-1d", spec=spec, start=np.array([0.5]),
        params={}, domain_sampler=_box_sampler(1, 1.45)))


def _footnote_2c() -> ProblemRecord:
    # second constraint: |x| - 1 on [-1.5, 1.5], constant 0.5 outside
    # (continuous, 1-Lipschitz; the reduced max with x^2 - 1 is convex on
    # the working region, so the combined nonconvexity modulus stays 0)
    def g2_value(x):
        a = abs(float(x[0]))
        return a - 1.0 if a <= 1.5 else 0.5

    def g2_grad(x):
        a = abs(float(x[0]))
        if a > 1.5:
            return np.zeros(1)
        return np.array([1.0 if x[0] >= 0.0 else -1.0])

    def g2_dir(x, v):
        a = abs(float(x[0]))
        if a > 1.5:
            return np.zeros(1)
        if a == 1.5:
            outward = (x[0] > 0.0 and v[0] > 0.0) or (x[0] < 0.0 and v[0] < 0.0)
            if outward:
                return np.zeros(1)
        return _l1_dir_vector(x, v)

    def g2_values(z):
        a = np.abs(z[:, 0])
        return np.where(a <= 1.5, a - 1.0, 0.5)

    def g2_grads(z):
        return np.where(np.abs(z) > 1.5, 0.0, _sign_plus(z))

    g2 = Oracle(value=g2_value, grad=g2_grad, dir_grad=g2_dir,
                values=g2_values, grads=g2_grads)
    spec = ProblemSpec(dim=1, objective=_first_coordinate(1),
                       constraints=(_square_constraint(), g2),
                       lipschitz_m=3.0, neighborhood_delta=0.4,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=np.array([-1.0]))

    return _validate_record(ProblemRecord(
        name="footnote-2c", spec=spec, start=np.array([0.5]),
        params={}, domain_sampler=_box_sampler(1, 1.35)))


def _pl_nonconvex(dim: int = 2, alpha: float = 0.25) -> ProblemRecord:
    """max-norm minus alpha times the 1-norm, inside the max-norm unit ball.

    The objective is a difference of polyhedral norms: along any unit-speed
    segment the concave part -alpha*||.||_1 can change slope by at most
    2*alpha*||u||_1 <= 2*alpha*sqrt(dim), and a crossing of all coordinate
    hyperplanes at once realizes it, so its nonconvexity modulus is exactly
    alpha*sqrt(dim) for every radius.
    """
    _positive_int(dim, "dim")
    _positive_real(alpha, "alpha")
    alpha_f = float(alpha)  # so an integer alpha gives a float gradient

    def f_value(x):
        a = np.abs(x)
        return a.item(a.argmax()) - alpha * float(np.add.reduce(a))

    def f_grad(x):
        # the bits of e - alpha * s in one array, as f_dir builds them
        out = np.where(x >= 0.0, -alpha_f, alpha_f)
        j = np.abs(x).argmax()
        out[j] += 1.0 if x.item(j) >= 0.0 else -1.0
        return out

    def f_dir(x, v):
        # the bits of e - alpha * s: alpha * s_j is never 0
        out = _l1_dir_vector(x, v) * -alpha
        j, sign = _linf_dir_index(x, v)
        out[j] += sign
        return out

    def f_values(z):
        # the sum stays per row: along the samples its bits change from n = 8
        return _abs_row_max(z) - alpha * np.abs(z).sum(axis=1)

    def f_grads(z):
        return _linf_grads(z) - alpha * _sign_plus(z)

    def g_value(x):
        a = np.abs(x)
        return a.item(a.argmax()) - 1.0

    objective = Oracle(value=f_value, grad=f_grad, dir_grad=f_dir,
                       values=f_values, grads=f_grads)
    constraint = Oracle(value=g_value,
                        grad=_linf_grad,
                        dir_grad=_linf_dir_vector,
                        values=lambda z: _abs_row_max(z) - 1.0,
                        grads=_linf_grads)
    interior = alpha * dim <= 1.0
    opt = np.zeros(dim) if interior else -np.ones(dim)
    spec = ProblemSpec(dim=dim, objective=objective, constraints=(constraint,),
                       lipschitz_m=1.0 + alpha * math.sqrt(dim),
                       neighborhood_delta=0.5,
                       nonconvexity_f=alpha * math.sqrt(dim), nonconvexity_g=0.0,
                       p_star=min(0.0, 1.0 - alpha * dim), known_optimum=opt)
    start = np.zeros(dim)
    start[0] = 0.9
    if dim > 1:
        start[1] = -0.7

    return _validate_record(ProblemRecord(
        name="pl-nonconvex", spec=spec, start=start,
        params={"dim": dim, "alpha": alpha},
        domain_sampler=_box_sampler(dim, 1.35)))


_REGISTRY: dict[str, Callable[..., ProblemRecord]] = {
    "ball-linear": _ball_linear,
    "l1-ball": _l1_ball,
    "footnote-1d": _footnote_1d,
    "footnote-2c": _footnote_2c,
    "pl-nonconvex": _pl_nonconvex,
}


def list_problems() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str, **params) -> ProblemRecord:
    """Build a registered problem; unknown names or bad parameters raise."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UsageError("unknown problem %r; registered: %s"
                         % (name, ", ".join(list_problems()))) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise UsageError("bad parameters for %r: %s" % (name, exc)) from None
