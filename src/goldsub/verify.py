"""Brute-force checks that do not trust the solver.

Three layers: an exact-ish minimal-norm-point routine over a finite hull, a
sampled Goldstein subdifferential estimate built on it, and certificate /
constraint-qualification checkers that re-run every oracle themselves.  The
sampled hull is always a subset of the true Goldstein subdifferential, so
the estimate is a valid upper bound on dist(0, set): a small value proves
approximate stationarity, a large one only fails to prove it.

The certificate type, its checks, the multiplier split and the ball-sampling
loop live here; ``solver.certify`` calls them too, so their arithmetic and
tolerances are defined once.  Nothing here imports the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ProblemSpec, ReducedConstraint, Subproblem, Vector,
                   WeightedSubgradient, _as_vector, _check_samples,
                   _finite_grads, _finite_value, sample_ball, sample_blocks)
from .errors import UsageError

HULL_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-12
VECTOR_MATCH_REL = 1e-9  # times the problem Lipschitz bound
SLACK_TOL = 1e-9
ESTIMATE_FACTOR = 1.1

HOLDS = "holds-empirically"
VIOLATED = "violated"

# frozen check names, in evaluation order; the first failure is the report's
# headline reason, and recompute mismatches are the "corrupt" class
CHECK_ORDER = (
    "weights-nonnegative",
    "weights-sum",
    "points-in-ball",
    "vector-recompute",
    "zeta-recompute",
    "zeta-norm-bound",
    "multiplier-split",
    "anchor-feasible",
    "complementary-slackness",
    "stationarity-estimate",
)
CORRUPT_CHECKS = frozenset({"vector-recompute", "zeta-recompute"})


@dataclass
class GoldsteinCertificate:
    """Checkable witness that the anchor is approximately stationary.

    ``combination`` reproduces zeta as sum(w_i * vector_i); every point lies
    in the closed delta-ball around the anchor, and objective/constraint
    branch tags split the unit weight mass into gamma0 and gamma.  ``lam``
    is gamma/gamma0, or None when gamma0 = 0 (Fritz-John only).  The kkt_*
    fields are present exactly when the solve ran in KKT mode with
    gamma0 > 0.  slack_max is the sampled maximum of |gamma * g(z)| over the
    ball, which the analytic bound slack_bound = 3*M*delta (+ tolerance)
    must dominate.
    """

    anchor: Vector
    zeta: Vector
    zeta_norm: float
    combination: list[WeightedSubgradient]
    gamma0: float
    gamma: float
    lam: float | None
    eps_effective: float
    fj_eta_bound: float
    delta: float
    lipschitz_m: float
    f_anchor: float
    g_anchor: float
    per_constraint_g: list[float]
    kkt_eps: float | None = None
    kkt_eta: float | None = None
    kkt_lambda_bound: float | None = None
    gcq_sigma: float | None = None
    slack_samples: int = 0
    slack_max: float = 0.0
    slack_bound: float = 0.0
    warnings: list[str] = field(default_factory=list)


@dataclass
class HullEstimate:
    """Minimal-norm point of conv(points) with a recoverable combination."""

    points: np.ndarray
    min_norm_point: Vector
    min_norm: float
    sample_count: int
    support_indices: list[int]
    support_weights: list[float]


def min_norm_over_hull(points, tol: float = HULL_TOL) -> HullEstimate:
    """Minimal-norm point of the convex hull of a finite point list.

    Wolfe-style vertex selection: keep a simplex of input points, project
    onto its affine hull, drop vertices that lose weight, and add the vertex
    minimizing <x, p> until the duality gap ||x||^2 - min_p <x, p> is at
    most tol.  The iterate norm is non-increasing; a failure to decrease is
    a numerical stall and stops with the current (still valid) point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise UsageError("empty point list")
    if not np.isfinite(pts).all():
        raise UsageError("non-finite points")
    k, n = pts.shape

    start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    support = [start]
    weights = np.array([1.0])
    x = pts[start].copy()

    max_major = 64 * (n + 2) + 2 * k
    for _ in range(max_major):
        norm_sq = float(x @ x)
        if norm_sq == 0.0:
            break
        dots = pts @ x
        best = int(np.argmin(dots))
        if float(dots[best]) > norm_sq - tol:
            break
        if best in support:
            break  # stall: the best vertex is already represented
        support.append(best)
        weights = np.append(weights, 0.0)

        for _minor in range(2 * (n + 2)):
            sub = pts[support]
            s = len(support)
            # affine minimal-norm point: bordered normal equations
            border = np.zeros((s + 1, s + 1))
            border[:s, :s] = sub @ sub.T
            border[:s, s] = 1.0
            border[s, :s] = 1.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            sol = np.linalg.lstsq(border, rhs, rcond=None)[0]
            lam = sol[:s]
            if np.all(lam > 1e-14):
                weights = lam
                break
            # step toward lam until the first coordinate hits zero
            diff = weights - lam
            mask = diff > 1e-14
            theta = float(np.min(weights[mask] / diff[mask])) if np.any(mask) else 1.0
            theta = min(1.0, max(0.0, theta))
            weights = (1.0 - theta) * weights + theta * lam
            weights[weights < 1e-14] = 0.0
            keep = weights > 0.0
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
                weights[keep] = 1.0
            support = [i for i, k_ in zip(support, keep) if k_]
            weights = weights[keep]
        total = float(weights.sum())
        if total <= 0.0:
            raise UsageError("degenerate weights in hull projection")
        weights = weights / total
        new_x = weights @ pts[support]
        if float(new_x @ new_x) > norm_sq:
            break  # numerical stall; keep the previous, valid point
        x = new_x

    return HullEstimate(points=pts, min_norm_point=x,
                        min_norm=float(np.linalg.norm(x)), sample_count=k,
                        support_indices=list(support),
                        support_weights=[float(w) for w in weights])


def _ball_draws(center: Vector, radius: float, rng: np.random.Generator,
                total: int):
    """``total`` uniform points of B(center, radius), drawn block by block."""
    for rows in sample_blocks(total):
        yield sample_ball(center, radius, rng, size=rows)


def goldstein_estimate(anchor, problem: ProblemSpec, delta: float,
                       n_samples: int, seed: int) -> HullEstimate:
    """Sampled upper bound on dist(0, Goldstein subdifferential of h_anchor).

    Its points come from ``_ball_draws``, so they are a prefix of any larger
    run's and the estimate can only shrink as n_samples grows.
    """
    _check_samples(n_samples, "n_samples", least=1)
    anchor = _as_vector(anchor, problem.dim)
    rng = np.random.default_rng(seed)
    sub = Subproblem(problem, anchor)
    grads = np.empty((n_samples, problem.dim))
    start = 0
    for points in _ball_draws(anchor, delta, rng, n_samples):
        grads[start:start + len(points)], _ = sub.grads(points)
        start += len(points)
    return min_norm_over_hull(grads)


@dataclass
class GcqReport:
    """Outcome of the empirical constraint-qualification probe."""

    outcome: str
    near_active: list[int]
    bound: float
    estimate: HullEstimate | None


def check_gcq(anchor, problem: ProblemSpec, a: float, b: float, c: float,
              n_samples: int = 1000, seed: int = 0) -> GcqReport:
    """Probe the (a, b, c) constraint qualification at a feasible anchor.

    Constraints with g_i(anchor) >= -c are near-active; their subgradients
    are sampled over B(anchor, a) and the hull of the union must keep norm
    at least b.  A hull norm below b is a genuine violation witness; at or
    above b (or with no near-active constraint) the result is only
    "holds-empirically", since sampling can never prove the qualification.
    """
    if not (a > 0 and b > 0 and c > 0):
        raise UsageError("a, b, c must be positive")
    _check_samples(n_samples, "n_samples", least=1)
    anchor = _as_vector(anchor, problem.dim)
    near_active = [
        i for i, oracle in enumerate(problem.constraints, start=1)
        if _finite_value(oracle.value(anchor), "constraint %d value", i) >= -c
    ]
    if not near_active:
        return GcqReport(outcome=HOLDS, near_active=[], bound=b, estimate=None)
    rng = np.random.default_rng(seed)
    grads = np.empty((n_samples * len(near_active), problem.dim))
    row = 0
    for i in near_active:
        oracle = problem.constraints[i - 1]
        for points in _ball_draws(anchor, a, rng, n_samples):
            grads[row:row + len(points)] = _finite_grads(
                oracle, points, problem.dim, "constraint %d grad", i)
            row += len(points)
    estimate = min_norm_over_hull(grads)
    outcome = VIOLATED if estimate.min_norm < b else HOLDS
    return GcqReport(outcome=outcome, near_active=near_active, bound=b,
                     estimate=estimate)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CertificateReport:
    """Per-check outcomes; ``reason`` is the first failed check's name."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def reason(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return c.name
        return None

    @property
    def corrupt(self) -> bool:
        return self.reason in CORRUPT_CHECKS


def check_weights_nonnegative(weights: np.ndarray) -> CheckResult:
    min_w = float(weights.min()) if weights.size else 0.0
    return CheckResult("weights-nonnegative", weights.size > 0 and min_w >= -1e-12,
                       "min weight %.3g" % min_w)


def check_weights_sum(weights: np.ndarray) -> CheckResult:
    total = float(weights.sum())
    return CheckResult("weights-sum", abs(total - 1.0) <= WEIGHT_SUM_TOL,
                       "sum %.17g" % total)


def check_points_in_ball(combination: list[WeightedSubgradient], anchor: Vector,
                         delta: float, dim: int) -> CheckResult:
    far = max((float(np.linalg.norm(_as_vector(w.point, dim) - anchor))
               for w in combination), default=0.0)
    return CheckResult("points-in-ball", far <= delta + 1e-12,
                       "max distance %.17g vs delta %.17g" % (far, delta))


def recombine(combination: list[WeightedSubgradient], dim: int) -> Vector:
    """sum(w_i * vector_i) over a combination."""
    out = np.zeros(dim)
    for w in combination:
        out += w.weight * _as_vector(w.vector, dim, finite=False)
    return out


def check_zeta_recompute(combination: list[WeightedSubgradient], zeta: Vector,
                         m: float) -> CheckResult:
    resid = float(np.linalg.norm(recombine(combination, zeta.size) - zeta))
    return CheckResult("zeta-recompute", resid <= VECTOR_MATCH_REL * m,
                       "residual %.3g (allowed %.3g)" % (resid, VECTOR_MATCH_REL * m))


def check_zeta_norm(zeta_norm: float, eps: float) -> CheckResult:
    return CheckResult("zeta-norm-bound", zeta_norm <= eps * (1.0 + 1e-12),
                       "||zeta|| = %.17g vs eps = %.17g" % (zeta_norm, eps))


def check_anchor_feasible(g_anchor: float) -> CheckResult:
    return CheckResult("anchor-feasible", g_anchor <= 1e-12,
                       "g(anchor) = %.17g" % g_anchor)


def slack_bound(m: float, delta: float) -> float:
    """Analytic bound 3*M*delta on |gamma * g| over the ball, plus tolerance."""
    return 3.0 * m * delta + SLACK_TOL


def multiplier_split(combination: list[WeightedSubgradient]):
    """(gamma0, gamma, lam): objective weight mass, 1 - gamma0, gamma/gamma0.

    lam is None unless gamma0 > 0.  One-branch combinations split exactly,
    (1, 0, 0) or (0, 1, None), whatever their weights sum to; an empty one
    counts as constraint-only.
    """
    objective = [w.weight for w in combination if w.branch.is_objective]
    if not objective:
        return 0.0, 1.0, None
    if len(objective) == len(combination):
        return 1.0, 0.0, 0.0
    gamma0 = float(sum(objective))
    gamma = 1.0 - gamma0
    return gamma0, gamma, gamma / gamma0 if gamma0 > 0.0 else None


def sampled_slack(reduced: ReducedConstraint, anchor: Vector, delta: float,
                  gamma: float, n: int, rng: np.random.Generator) -> float:
    """Largest |gamma * g(z)| over n uniform draws z from B(anchor, delta)."""
    if not gamma > 0.0:  # no constraint mass: nothing is drawn, no oracle runs
        return 0.0
    return max((float(np.max(np.abs(gamma * reduced.values(points)[0])))
                for points in _ball_draws(anchor, delta, rng, n)), default=0.0)


def check_slackness(slack_max: float, m: float, delta: float) -> CheckResult:
    bound = slack_bound(m, delta)
    return CheckResult("complementary-slackness", slack_max <= bound,
                       "max |gamma*g| = %.17g vs bound %.17g" % (slack_max, bound))


def check_certificate(cert: GoldsteinCertificate, problem: ProblemSpec,
                      slackness_samples: int = 10_000,
                      estimate_samples: int = 10_000, seed: int = 0,
                      stop_at_first_failure: bool = False) -> CertificateReport:
    """Re-verify a certificate against the problem oracles from scratch.

    Nothing inside the certificate is trusted: weights, ball membership,
    every stored subgradient, the recombined zeta, the multiplier split, and
    the sampled complementary-slackness and independent stationarity bounds
    are all recomputed.  Checks run in CHECK_ORDER; with
    stop_at_first_failure the remaining (possibly expensive) checks are
    never computed once the headline reason is known.
    """
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    _check_samples(slackness_samples, "slackness_samples")
    _check_samples(estimate_samples, "estimate_samples", least=1)
    report = CertificateReport()
    for check in _checks(cert, problem, slackness_samples, estimate_samples, seed):
        check.passed = bool(check.passed)  # numpy comparisons give np.bool_
        report.checks.append(check)
        if stop_at_first_failure and not check.passed:
            break
    return report


def _checks(cert, problem, slackness_samples, estimate_samples, seed):
    """check_certificate's checks in CHECK_ORDER, each computed on demand."""
    m = problem.lipschitz_m
    delta = cert.delta
    dim = problem.dim
    anchor = _as_vector(cert.anchor, dim)
    combo = cert.combination
    weights = np.array([w.weight for w in combo], dtype=float)
    yield check_weights_nonnegative(weights)
    yield check_weights_sum(weights)
    yield check_points_in_ball(combo, anchor, delta, dim)

    sub = Subproblem(problem, anchor)
    mismatches = []
    for w in combo:
        point = _as_vector(w.point, dim)
        if w.direction is None:
            expected, branch = sub.grad(point)
        else:
            expected, branch, _, _ = sub.dir_grad(point, _as_vector(w.direction, dim))
        stored = _as_vector(w.vector, dim, finite=False)
        # a relabelled branch is as wrong as a wrong vector
        mismatches.append(float(np.linalg.norm(expected - stored))
                          if branch == w.branch else math.inf)
    # max() skips a NaN mismatch; a NaN must fail the check instead
    worst = max(mismatches, default=0.0)
    if any(math.isnan(d) for d in mismatches):
        worst = math.nan
    yield CheckResult("vector-recompute", worst <= VECTOR_MATCH_REL * m,
                      "worst oracle mismatch %.3g (allowed %.3g)"
                      % (worst, VECTOR_MATCH_REL * m))

    zeta = _as_vector(cert.zeta, dim)
    yield check_zeta_recompute(combo, zeta, m)
    yield check_zeta_norm(float(np.linalg.norm(zeta)), cert.eps_effective)

    gamma0, gamma, lam = multiplier_split(combo)
    split_ok = (abs(gamma0 - cert.gamma0) <= 1e-12
                and abs(gamma - cert.gamma) <= 1e-12
                and (lam is None) == (cert.lam is None)
                and (lam is None or abs(cert.lam - lam) <= 1e-9 * max(1.0, abs(lam))))
    yield CheckResult("multiplier-split", split_ok,
                      "gamma0 %.17g vs stored %.17g" % (gamma0, cert.gamma0))
    yield check_anchor_feasible(sub.g_anchor)

    slack_max = sampled_slack(ReducedConstraint(problem), anchor, delta, cert.gamma,
                              slackness_samples, np.random.default_rng(seed))
    yield check_slackness(slack_max, m, delta)

    estimate = goldstein_estimate(anchor, problem, delta, estimate_samples,
                                  seed=seed + 1)
    limit = ESTIMATE_FACTOR * cert.eps_effective
    yield CheckResult("stationarity-estimate", estimate.min_norm <= limit,
                      "sampled estimate %.17g vs limit %.17g"
                      % (estimate.min_norm, limit))
