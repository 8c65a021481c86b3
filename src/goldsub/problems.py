"""Built-in test problems with exact metadata.

Every instance carries the Lipschitz bound M, the neighborhood radius the
bound is valid on, nonconvexity moduli for both oracles, and (where known)
the optimal value and a minimizer, so descent lemmas, call budgets, and
certificates are all checkable against ground truth.  Kink conventions are
fixed so almost-everywhere gradient oracles are deterministic: sign(0) is
taken as +1, the subgradient of the Euclidean norm at 0 is the first basis
vector, and argmax ties resolve to the lowest index.  Every oracle also has
batch callables that apply the same rules to each row of an (N, n) array.

``gcq_params`` on each record is an (a, b, c) triple for the empirical
constraint-qualification check: constraints with g_i(x) >= -c are near-active,
their subgradients are sampled over B(x, a), and the hull of the union is
expected to keep norm at least b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Oracle, ProblemSpec, ReducedConstraint, Vector
from .errors import UsageError


@dataclass(frozen=True)
class ProblemRecord:
    """A corpus entry: the instance plus everything tests need around it."""

    name: str
    spec: ProblemSpec
    gcq_params: tuple[float, float, float] | None
    start: Vector
    params: dict
    domain_sampler: Callable[[np.random.Generator], Vector]


def _validate_record(record: ProblemRecord) -> ProblemRecord:
    spec = record.spec
    if spec.p_star is not None and spec.known_optimum is not None:
        opt = np.asarray(spec.known_optimum, dtype=float)
        f_opt = float(spec.objective.value(opt))
        if abs(f_opt - spec.p_star) > 1e-9:
            raise UsageError(
                "corpus metadata inconsistent for %s: f(optimum) = %.12g "
                "but p_star = %.12g" % (record.name, f_opt, spec.p_star))
        g_opt, _ = ReducedConstraint(spec).value(opt)
        if g_opt > 1e-9:
            raise UsageError(
                "corpus metadata inconsistent for %s: optimum infeasible, "
                "g = %.12g" % (record.name, g_opt))
    g_start, _ = ReducedConstraint(spec).value(np.asarray(record.start, dtype=float))
    if g_start > 0.0:
        raise UsageError("corpus start for %s is infeasible" % record.name)
    return record


def _unit_first(dim: int) -> Vector:
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def _sign_plus(x: Vector) -> Vector:
    return np.where(x >= 0.0, 1.0, -1.0)


def _l1_dir_vector(x: Vector, v: Vector) -> Vector:
    """Subgradient s of the 1-norm at x with <s, v> = its directional derivative."""
    s = np.sign(x)
    tie = s == 0.0
    s[tie] = np.sign(v[tie])
    s[s == 0.0] = 1.0
    return s


def _linf_grad(x: Vector) -> Vector:
    j = int(np.argmax(np.abs(x)))
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


def _linf_dir_vector(x: Vector, v: Vector) -> Vector:
    """Subgradient of the max-norm at x matching its directional derivative."""
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
        else:  # only when x = 0
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


def _ball_sampler(dim: int, radius: float):
    """Uniform draws from the ball of ``radius`` centred at the origin."""
    def sampler(rng):
        u = rng.standard_normal(dim)
        u /= float(np.linalg.norm(u))
        return radius * rng.random() ** (1.0 / dim) * u
    return sampler


def constant_constraint(dim: int, level: float = -1.0) -> Oracle:
    """g(x) = level everywhere; with level < 0 it never binds, which embeds
    unconstrained minimization in the solver unchanged."""
    zero = np.zeros(dim)
    return Oracle(value=lambda x: level,
                  grad=lambda x: zero.copy(),
                  dir_grad=lambda x, v: zero.copy(),
                  values=lambda z: np.full(len(z), float(level)),
                  grads=lambda z: np.zeros((len(z), dim)))


def ball_linear_sigma(delta: float, m: float = 1.0) -> float:
    """Constraint-qualification level for ball-linear at radius delta.

    Constraint mass only ever appears at anchors with g(x) >= -2*M*delta,
    i.e. ||x|| >= 1 - 2*M*delta.  Every constraint subgradient over B(x,
    delta) is a unit normal y/||y|| within angle arcsin(delta/||x||) of
    x/||x||, and a hull of unit vectors inside that cone keeps norm at least
    the cosine, so sigma = sqrt(1 - (delta/(1 - 2*M*delta))^2).
    """
    if not delta > 0:
        raise UsageError("delta must be positive")
    edge = 1.0 - 2.0 * m * delta
    if delta >= edge:
        raise UsageError("delta = %g too large for the cone argument" % delta)
    return math.sqrt(1.0 - (delta / edge) ** 2)


def _ball_linear(dim: int = 2) -> ProblemRecord:
    if dim < 1:
        raise UsageError("dim must be >= 1")
    e1 = _unit_first(dim)

    def g_value(x):
        return float(np.linalg.norm(x)) - 1.0

    def g_grad(x):
        n = float(np.linalg.norm(x))
        return x / n if n > 0.0 else e1.copy()

    def g_dir(x, v):
        n = float(np.linalg.norm(x))
        if n > 0.0:
            return x / n
        nv = float(np.linalg.norm(v))
        return v / nv if nv > 0.0 else e1.copy()

    def g_values(z):
        return np.sqrt(np.einsum("ij,ij->i", z, z)) - 1.0

    def g_grads(z):
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        out = np.tile(e1, (len(z), 1))
        inside = norms > 0.0
        out[inside] = z[inside] / norms[inside, None]
        return out

    objective = Oracle(value=lambda x: float(x[0]),
                       grad=lambda x: e1.copy(),
                       dir_grad=lambda x, v: e1.copy(),
                       values=lambda z: z[:, 0].copy(),
                       grads=lambda z: np.tile(e1, (len(z), 1)))
    constraint = Oracle(value=g_value, grad=g_grad, dir_grad=g_dir,
                        values=g_values, grads=g_grads)
    pad = 0.5
    opt = np.zeros(dim)
    opt[0] = -1.0
    spec = ProblemSpec(dim=dim, objective=objective, constraints=(constraint,),
                       lipschitz_m=1.0, neighborhood_delta=pad,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=opt)

    return _validate_record(ProblemRecord(
        name="ball-linear", spec=spec,
        gcq_params=(0.1, 0.9, 0.2), start=np.zeros(dim),
        params={"dim": dim}, domain_sampler=_ball_sampler(dim, 1.0 + 0.9 * pad)))


def _l1_ball(dim: int = 2) -> ProblemRecord:
    if dim < 1:
        raise UsageError("dim must be >= 1")
    pad = 0.5

    objective = Oracle(value=lambda x: float(np.abs(x).sum()),
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
        name="l1-ball", spec=spec,
        gcq_params=(0.1, 1.5, 0.19), start=start,
        params={"dim": dim}, domain_sampler=_ball_sampler(dim, 1.0 + 0.9 * pad)))


def _poly_1d_objective() -> Oracle:
    one = np.ones(1)
    return Oracle(value=lambda x: float(x[0]),
                  grad=lambda x: one.copy(),
                  dir_grad=lambda x, v: one.copy(),
                  values=lambda z: z[:, 0].copy(),
                  grads=lambda z: np.ones((len(z), 1)))


def _square_constraint() -> Oracle:
    return Oracle(value=lambda x: float(x[0]) ** 2 - 1.0,
                  grad=lambda x: 2.0 * x,
                  dir_grad=lambda x, v: 2.0 * x,
                  values=lambda z: z[:, 0] ** 2 - 1.0,
                  grads=lambda z: 2.0 * z)


def _footnote_1d() -> ProblemRecord:
    spec = ProblemSpec(dim=1, objective=_poly_1d_objective(),
                       constraints=(_square_constraint(),),
                       lipschitz_m=3.0, neighborhood_delta=0.5,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=np.array([-1.0]))

    def sampler(rng):
        return np.array([rng.uniform(-1.45, 1.45)])

    return _validate_record(ProblemRecord(
        name="footnote-1d", spec=spec,
        gcq_params=(0.25, 0.5, 0.75), start=np.array([0.5]),
        params={}, domain_sampler=sampler))


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
        return _l1_dir_vector(np.asarray(x, dtype=float), np.asarray(v, dtype=float))

    def g2_values(z):
        a = np.abs(z[:, 0])
        return np.where(a <= 1.5, a - 1.0, 0.5)

    def g2_grads(z):
        return np.where(np.abs(z) > 1.5, 0.0, _sign_plus(z))

    g2 = Oracle(value=g2_value, grad=g2_grad, dir_grad=g2_dir,
                values=g2_values, grads=g2_grads)
    spec = ProblemSpec(dim=1, objective=_poly_1d_objective(),
                       constraints=(_square_constraint(), g2),
                       lipschitz_m=3.0, neighborhood_delta=0.4,
                       nonconvexity_f=0.0, nonconvexity_g=0.0,
                       p_star=-1.0, known_optimum=np.array([-1.0]))

    def sampler(rng):
        return np.array([rng.uniform(-1.35, 1.35)])

    return _validate_record(ProblemRecord(
        name="footnote-2c", spec=spec,
        gcq_params=(0.125, 0.75, 0.75), start=np.array([0.5]),
        params={}, domain_sampler=sampler))


def _pl_nonconvex(dim: int = 2, alpha: float = 0.25) -> ProblemRecord:
    """max-norm minus alpha times the 1-norm, inside the max-norm unit ball.

    The objective is a difference of polyhedral norms: along any unit-speed
    segment the concave part -alpha*||.||_1 can change slope by at most
    2*alpha*||u||_1 <= 2*alpha*sqrt(dim), and a crossing of all coordinate
    hyperplanes at once realizes it, so its nonconvexity modulus is exactly
    alpha*sqrt(dim) for every radius.
    """
    if dim < 1:
        raise UsageError("dim must be >= 1")
    if not 0.0 < alpha:
        raise UsageError("alpha must be positive")

    def f_value(x):
        return float(np.abs(x).max()) - alpha * float(np.abs(x).sum())

    def f_grad(x):
        return _linf_grad(x) - alpha * _sign_plus(x)

    def f_dir(x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return _linf_dir_vector(x, v) - alpha * _l1_dir_vector(x, v)

    def f_values(z):
        a = np.abs(z)
        return a.max(axis=1) - alpha * a.sum(axis=1)

    def f_grads(z):
        return _linf_grads(z) - alpha * _sign_plus(z)

    objective = Oracle(value=f_value, grad=f_grad, dir_grad=f_dir,
                       values=f_values, grads=f_grads)
    constraint = Oracle(value=lambda x: float(np.abs(x).max()) - 1.0,
                        grad=_linf_grad,
                        dir_grad=lambda x, v: _linf_dir_vector(
                            np.asarray(x, dtype=float), np.asarray(v, dtype=float)),
                        values=lambda z: np.abs(z).max(axis=1) - 1.0,
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

    def sampler(rng):
        return rng.uniform(-1.35, 1.35, size=dim)

    return _validate_record(ProblemRecord(
        name="pl-nonconvex", spec=spec,
        gcq_params=(0.05, 0.85 / math.sqrt(dim), 0.1), start=start,
        params={"dim": dim, "alpha": alpha}, domain_sampler=sampler))


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
