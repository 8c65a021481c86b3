"""Brute-force checks that do not trust the solver.

Three layers: an exact-ish minimal-norm-point routine over a finite hull, a
sampled Goldstein subdifferential estimate built on it, and a certificate
checker that re-runs every oracle itself.  The sampled hull is always a
subset of the true Goldstein subdifferential, so the estimate is a valid
upper bound on dist(0, set): a small value proves approximate
stationarity, a large one only fails to prove it.

The certificate type, its checks, the multiplier split and the formulas of
every derived claim (eps_effective, the KKT residuals and the warnings)
live here; ``solver.certify`` runs the checks that call no oracle and
builds its claims with the same functions, so their arithmetic and
tolerances are defined once.  Nothing here imports the solver.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (ProblemSpec, Subproblem, Vector, WeightedSubgradient,
                   _as_vector, _check_samples, _norm, sample_ball)
from .errors import UsageError

HULL_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-12
VECTOR_MATCH_REL = 1e-9  # times the problem Lipschitz bound
SLACK_TOL = 1e-9
ESTIMATE_FACTOR = 1.1

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
    "claims-recompute",
)
CORRUPT_CHECKS = frozenset({"vector-recompute", "zeta-recompute",
                            "claims-recompute"})


@dataclass
class GoldsteinCertificate:
    """Checkable witness that the anchor is approximately stationary.

    ``combination`` reproduces zeta as sum(w_i * vector_i); every point lies
    in the closed delta-ball around the anchor, and the branch indices split
    the unit weight mass into gamma0, on branch 0 (the objective), and gamma.
    ``lam`` is gamma/gamma0, or None when gamma0 = 0 (Fritz-John only).
    The kkt_* fields and ``warnings`` are ``kkt_claims`` of the other
    fields, and ``gcq_sigma`` is set exactly in KKT mode.  By construction
    |gamma * g(z)| <= gamma * (|g_anchor| + M*delta) <= 3*M*delta over the
    ball, which the verifier's complementary-slackness check bounds exactly.
    """

    anchor: Vector
    zeta: Vector
    zeta_norm: float
    combination: list[WeightedSubgradient]
    gamma0: float
    gamma: float
    lam: float | None
    eps_effective: float
    delta: float
    f_anchor: float
    g_anchor: float
    kkt_eps: float | None = None
    kkt_eta: float | None = None
    kkt_lambda_bound: float | None = None
    gcq_sigma: float | None = None
    warnings: list[str] = field(default_factory=list)


@dataclass
class HullEstimate:
    """Minimal-norm point of conv(points) with a recoverable combination."""

    min_norm_point: Vector
    min_norm: float
    support_indices: list[int]
    support_weights: list[float]


def min_norm_over_hull(points, start: HullEstimate | None = None) -> HullEstimate:
    """Minimal-norm point of the convex hull of a finite point list.

    Wolfe-style vertex selection: keep a simplex of input points, project
    onto its affine hull, drop vertices that lose weight, and add the vertex
    minimizing <x, p> until the duality gap ||x||^2 - min_p <x, p> is at
    most HULL_TOL.  The iterate norm is non-increasing; a failure to
    decrease is a numerical stall and stops with the current (still valid)
    point, support and weights.

    Each projection solves the bordered normal equations [[G, 1], [1^T, 0]]
    by LU (``np.linalg.solve``), and by ``np.linalg.lstsq``'s SVD only when
    LU finds that system exactly singular, as with a repeated support row.
    Above 2^16 the Gram block G is scaled by a power of two near its
    largest entry, for that fallback: lstsq's rcond would cut a Gram block
    far above the all-ones border.  A power of two rounds nothing, so the
    scaling keeps the weights.  The result is always weights @
    points[support] with weights on the simplex, so a poor solve can only
    loosen the point, never leave the hull.

    The loop begins at the shortest point.  ``start`` (private use) is an
    estimate over a prefix of ``points``; the loop then begins at its point,
    support and weights instead, so the result is no longer than it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise UsageError("empty point list")
    with np.errstate(over="ignore"):
        norms_sq = np.einsum("ij,ij->i", pts, pts)
    # finite squared norms bound every Gram entry, so none overflows
    if not np.isfinite(norms_sq).all():
        raise UsageError("points with non-finite squared norms")
    k, n = pts.shape
    top = float(norms_sq.max())
    shift = -math.frexp(top)[1] if top > 2.0 ** 16 else 0

    if start is None:
        first = int(norms_sq.argmin())
        support, weights = [first], [1.0]
        x = pts[first].copy()
    else:
        support = list(start.support_indices)
        weights = list(start.support_weights)
        x = start.min_norm_point

    max_major = 64 * (n + 2) + 2 * k
    for _ in range(max_major):
        norm_sq = float(x @ x)
        if norm_sq == 0.0:
            break
        dots = pts @ x
        best = int(dots.argmin())
        if float(dots[best]) > norm_sq - HULL_TOL:
            break
        if best in support:
            break  # stall: the best vertex is already represented
        active = support + [best]
        w = np.array(weights + [0.0])

        for _minor in range(2 * (n + 2)):
            sub = pts[active]
            s = len(active)
            # affine minimal-norm point: bordered normal equations
            border = np.ones((s + 1, s + 1))
            gram = sub @ sub.T
            border[:s, :s] = np.ldexp(gram, shift) if shift else gram
            border[s, s] = 0.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            try:
                lam = np.linalg.solve(border, rhs)[:s]
            except np.linalg.LinAlgError:
                lam = np.linalg.lstsq(border, rhs, rcond=None)[0][:s]
            if (lam > 1e-14).all():
                w = lam
                break
            # step toward lam until the first coordinate hits zero
            diff = w - lam
            mask = diff > 1e-14
            theta = float((w[mask] / diff[mask]).min()) if mask.any() else 1.0
            theta = min(1.0, max(0.0, theta))
            w = (1.0 - theta) * w + theta * lam
            w[w < 1e-14] = 0.0
            keep = w > 0.0
            if not keep.any():
                keep[int(lam.argmax())] = True
                w[keep] = 1.0
            active = [i for i, k_ in zip(active, keep) if k_]
            w = w[keep]
        total = float(w.sum())
        if total <= 0.0:
            raise UsageError("degenerate weights in hull projection")
        w = w / total
        new_x = w @ pts[active]
        if not float(new_x @ new_x) <= norm_sq:
            break  # numerical stall; keep the previous, valid point
        x, support, weights = new_x, active, w.tolist()

    return HullEstimate(min_norm_point=x, min_norm=_norm(x),
                        support_indices=support, support_weights=weights)


# rows per batch draw in the sampling loops; bounds their working memory
SAMPLE_BLOCK = 4096


def _row_blocks(rows: np.ndarray):
    """Views of consecutive blocks of ``rows``, at most SAMPLE_BLOCK rows each."""
    for start in range(0, len(rows), SAMPLE_BLOCK):
        yield rows[start:start + SAMPLE_BLOCK]


OFFSET_BYTES = 1 << 23  # cap on the kept offsets; a larger draw is not kept
ENTRY_BYTES = 4096  # a kept entry's bytes besides its rows: key and objects


def _entry_bytes(table) -> int:
    return ENTRY_BYTES + (0 if table is None else table.nbytes)


class _Offsets(dict):
    """Kept ball offsets, least recently used first.

    (stream seed, n, radius bits, total) -> a key's read-only
    ``_kept_offsets``, or None for a key seen once: a key's first check
    draws in place, so a process that checks once pays nothing for them.
    ``nbytes`` counts every entry's bytes and stays within OFFSET_BYTES.
    """

    nbytes = 0

    def put(self, key, table):
        """``table`` as the key's entry, now the most recently used."""
        if key in self:
            self.nbytes -= _entry_bytes(self.pop(key))
        self[key] = table
        self.nbytes += _entry_bytes(table)
        while self.nbytes > OFFSET_BYTES:
            self.nbytes -= _entry_bytes(self.pop(next(iter(self))))
        return table


_OFFSETS = _Offsets()
_OFFSETS_LOCK = threading.Lock()  # held while the entries change


def _kept_offsets(seed: int, n: int, radius: float, total: int) -> np.ndarray:
    """The offsets normal_ij * scale_i of a whole draw of ``total`` rows from
    stream ``seed``, read-only: a draw of B(-0.0s, radius), as adding -0.0
    is the identity."""
    rows, rng = np.empty((total, n)), np.random.default_rng(seed)
    for block in _row_blocks(rows):
        sample_ball(np.full(n, -0.0), radius, rng, out=block)
    rows.flags.writeable = False
    return rows


class _BallDraw:
    """One uniform draw of ``total`` rows of B(center, radius) from stream
    ``seed``, drawn only as far as it is read.

    From a key's second draw on, a read adds ``center`` to the key's kept
    offsets in this draw's own ``rows``, which a check may overwrite.  A
    draw without them (a key's first, or one over the cap) draws the rows
    it newly reaches, passing each block of ``rows`` to ``sample_ball`` as
    its ``out``; by ``sample_ball``'s row-prefix property they are the rows
    of a single draw of all ``total``.
    """

    def __init__(self, center: Vector, radius: float, seed: int, total: int):
        self.center, self.radius = center, radius
        self.rows = np.empty((total, center.size))
        self.drawn = 0
        self.offsets = None
        if _entry_bytes(self.rows) <= OFFSET_BYTES:
            # the radius's bits: 0.0 and -0.0 give offsets of opposite signs
            key = (seed, center.size, struct.pack("d", radius), total)
            with _OFFSETS_LOCK:
                seen = key in _OFFSETS
                self.offsets = _OFFSETS.put(key, _OFFSETS.get(key))
            if seen and self.offsets is None:
                # drawn outside the lock: a draw that raises keeps nothing
                offsets = _kept_offsets(seed, center.size, radius, total)
                with _OFFSETS_LOCK:
                    self.offsets = _OFFSETS.put(key, offsets)
        if self.offsets is None:
            self.rng = np.random.default_rng(seed)

    def upto(self, count: int) -> np.ndarray:
        """The first ``count`` rows."""
        new = self.rows[self.drawn:count]
        if self.offsets is not None:
            np.add(self.offsets[self.drawn:count], self.center, out=new)
        else:
            for block in _row_blocks(new):
                sample_ball(self.center, self.radius, self.rng, out=block)
        self.drawn = max(self.drawn, count)
        return self.rows[:count]


def _grads_over(sub: Subproblem, rows: np.ndarray) -> None:
    """Write h's gradients at the rows over the rows, block by block."""
    for block in _row_blocks(rows):
        block[...], _ = sub.grads(block)


def goldstein_estimate(anchor, problem: ProblemSpec, delta: float,
                       n_samples: int, seed: int) -> HullEstimate:
    """Sampled upper bound on dist(0, Goldstein subdifferential of h_anchor).

    Its points are the gradients at one ``_BallDraw`` of the delta-ball, so
    they are a prefix of any larger run's and the estimate can only shrink
    as n_samples grows.  The verifier's estimate reads prefixes of the same
    draw (stream seed + 1 there), sharing its kept offsets: a whole
    read-only draw, made by a key's second draw.  It stops at the first
    prefix that passes.
    """
    _check_samples(n_samples, "n_samples")
    sub = Subproblem(problem, anchor)
    rows = _BallDraw(sub.anchor, delta, seed, n_samples).upto(n_samples)
    _grads_over(sub, rows)
    return min_norm_over_hull(rows)


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


# the weights checks reduce with the ufuncs that ndarray.min and .sum call,
# for the same bits without their Python-level wrappers
def check_weights_nonnegative(weights: np.ndarray) -> CheckResult:
    min_w = float(np.minimum.reduce(weights)) if weights.size else 0.0
    return CheckResult("weights-nonnegative", weights.size > 0 and min_w >= -1e-12,
                       "min weight %.3g" % min_w)


def check_weights_sum(weights: np.ndarray) -> CheckResult:
    total = float(np.add.reduce(weights))
    return CheckResult("weights-sum", abs(total - 1.0) <= WEIGHT_SUM_TOL,
                       "sum %.17g" % total)


def check_points_in_ball(points: list[Vector], anchor: Vector,
                         delta: float) -> CheckResult:
    """``points`` are a combination's points, converted and validated."""
    far = max((_norm(point - anchor) for point in points), default=0.0)
    return CheckResult("points-in-ball", far <= delta + 1e-12,
                       "max distance %.17g vs delta %.17g" % (far, delta))


def recombine(combination: list[WeightedSubgradient], vectors: list[Vector],
              dim: int) -> Vector:
    """sum(w_i * vector_i) over a combination; ``vectors`` are its vectors,
    converted."""
    out = np.zeros(dim)
    for w, vector in zip(combination, vectors):
        out += w.weight * vector
    return out


def check_zeta_recompute(combination: list[WeightedSubgradient],
                         vectors: list[Vector], zeta: Vector,
                         m: float) -> CheckResult:
    """``vectors`` are the combination's vectors, converted."""
    resid = _norm(recombine(combination, vectors, zeta.size) - zeta)
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


NO_OBJECTIVE_MASS = ("objective weight mass is zero: constraint qualification "
                     "failed empirically, certifying Fritz-John stationarity "
                     "only and leaving the multiplier undefined")


def eps_effective(target_eps: float, m: float, gcq_sigma: float | None) -> float:
    """target_eps without sigma (Fritz-John mode), else sigma*eps/(eps+sigma+M)."""
    if gcq_sigma is None:
        return target_eps
    return gcq_sigma * target_eps / (target_eps + gcq_sigma + m)


def kkt_claims(eps_t: float, gcq_sigma: float | None, m: float, delta: float,
               gamma0: float):
    """(kkt_eps, kkt_eta, kkt_lambda_bound, warnings): none without sigma;
    with it and gamma0 > 0, eps_t and 3*M*delta times (sigma + M)/(sigma -
    eps_t), and that factor minus 1 (infinite, a vacuous claim, unless
    sigma > eps_t, as in every solve); with gamma0 = 0 only a warning."""
    if gcq_sigma is None:
        return None, None, None, []
    if not gamma0 > 0.0:
        return None, None, None, [NO_OBJECTIVE_MASS]
    factor = ((gcq_sigma + m) / (gcq_sigma - eps_t) if gcq_sigma > eps_t
              else math.inf)
    return eps_t * factor, 3.0 * m * delta * factor, factor - 1.0, []


def multiplier_split(combination: list[WeightedSubgradient]):
    """(gamma0, gamma, lam): weight mass on branch 0, the objective;
    1 - gamma0; gamma/gamma0.

    lam is None unless gamma0 > 0.  One-branch combinations split exactly,
    (1, 0, 0) or (0, 1, None), whatever their weights sum to; an empty one
    counts as constraint-only.
    """
    objective = [w.weight for w in combination if w.branch == 0]
    if not objective:
        return 0.0, 1.0, None
    if len(objective) == len(combination):
        return 1.0, 0.0, 0.0
    gamma0 = float(sum(objective))
    gamma = 1.0 - gamma0
    return gamma0, gamma, gamma / gamma0 if gamma0 > 0.0 else None


def check_slackness(gamma: float, g_anchor: float, longest: float, m: float,
                    delta: float) -> CheckResult:
    """gamma * (|g(anchor)| + M*delta) against ``slack_bound``, and the
    longest recomputed vector against M.

    g is M-Lipschitz inside neighborhood_delta > delta (claims-recompute),
    so the product bounds |gamma * g| over the whole ball.  With gamma > 0
    an entry's branch, re-derived by vector-recompute, is a constraint at a
    ball point y: g(y) >= f(y) - f(anchor) >= -M*delta, so a feasible
    anchor has |g(anchor)| <= 2*M*delta and an honest product is at most
    3*M*delta.  An oracle that breaks M fails the vector half.
    """
    bound = slack_bound(m, delta)
    slack = gamma * (abs(g_anchor) + m * delta) if gamma > 0.0 else 0.0
    ok = slack <= bound and longest <= m * (1.0 + VECTOR_MATCH_REL)
    return CheckResult("complementary-slackness", ok,
                       "gamma*(|g(anchor)| + M*delta) = %.17g vs bound %.17g; "
                       "max ||v|| = %.17g vs M = %.17g" % (slack, bound, longest, m))


# rows of the verifier estimate's first hull; each later one has twice as many
FIRST_CHECKPOINT = 64


def _checkpoints(total: int):
    """64, 128, 256, ... below ``total``, then ``total``."""
    count = FIRST_CHECKPOINT
    while count < total:
        yield count
        count *= 2
    yield total


def _staged_estimate(sub: Subproblem, draw: _BallDraw,
                     limit: float) -> CheckResult:
    """The stationarity-estimate check over growing prefixes of one draw.

    The hull of a prefix lies in the hull of the whole draw, so a prefix
    whose min-norm point is within ``limit`` already proves the check: it
    stops at the first checkpoint that passes, and only a failure reads
    every row.  Each row's gradient is computed once, over the row, and
    each hull starts from the previous checkpoint's.
    """
    estimate, done = None, 0
    for count in _checkpoints(len(draw.rows)):
        _grads_over(sub, draw.upto(count)[done:])
        done = count
        estimate = min_norm_over_hull(draw.rows[:count], start=estimate)
        if estimate.min_norm <= limit:
            break
    return CheckResult("stationarity-estimate", estimate.min_norm <= limit,
                       "sampled estimate %.17g vs limit %.17g at %d of %d samples"
                       % (estimate.min_norm, limit, count, len(draw.rows)))


def check_claims(cert: GoldsteinCertificate, problem: ProblemSpec,
                 zeta_norm: float, sub: Subproblem, gamma0: float) -> CheckResult:
    """Every stored number that follows from the rest, from the verifier's
    own ||zeta||, anchor values ``sub`` and gamma0; delta must lie below the
    neighborhood radius, inside which M bounds every oracle."""
    expected = [("zeta_norm", zeta_norm), ("f_anchor", sub.f_anchor),
                ("g_anchor", sub.g_anchor), *zip(
                    ("kkt_eps", "kkt_eta", "kkt_lambda_bound", "warnings"),
                    kkt_claims(cert.eps_effective, cert.gcq_sigma,
                               problem.lipschitz_m, cert.delta, gamma0))]
    mismatched = [] if cert.delta < problem.neighborhood_delta else ["delta"]
    mismatched += [name for name, value in expected
                   if getattr(cert, name) != value]
    return CheckResult("claims-recompute", not mismatched,
                       "mismatched: %s" % (", ".join(mismatched) or "none"))


def check_certificate(cert: GoldsteinCertificate, problem: ProblemSpec,
                      samples: int = 10_000, seed: int = 0,
                      stop_at_first_failure: bool = False) -> CertificateReport:
    """Re-verify a certificate against the problem oracles from scratch.

    Nothing inside the certificate is trusted: weights, ball membership,
    every stored subgradient, the recombined zeta, the multiplier split, the
    complementary-slackness bound (exact, from M and the verifier's own
    g(anchor)), an independent sampled stationarity bound, and every
    derived claim are all recomputed.  The stated delta, eps_effective and
    gcq_sigma are the claim checked; ``goldsub verify`` binds them to the
    embedded manifest.  The estimate, the only sampled check, reads one
    uniform draw of ``samples`` rows of the delta-ball from stream
    ``seed + 1``, drawn only as far as it reads it: prefixes of 64, 128,
    256, ... rows until one passes.  A (stream, n, delta, samples) key's
    first check draws in place; its second keeps all the rows' offsets
    from the anchor, read-only, so later checks draw no row.  Checks
    run in CHECK_ORDER; with stop_at_first_failure the remaining (possibly
    expensive) checks are never computed once the headline reason is known,
    and vector-recompute stops at the first entry it rejects: its detail is
    then the worst mismatch among the entries it read.
    """
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    _check_samples(samples, "samples")
    report = CertificateReport()
    # a stored number so large that arithmetic on it overflows fails its
    # check with an infinite residual, silently
    with np.errstate(over="ignore"):
        for check in _checks(cert, problem, samples, seed,
                             stop_at_first_failure):
            check.passed = bool(check.passed)  # numpy comparisons give np.bool_
            report.checks.append(check)
            if stop_at_first_failure and not check.passed:
                break
    return report


def _checks(cert, problem, samples, seed, stop_at_first_failure):
    """check_certificate's checks in CHECK_ORDER, each computed on demand.
    With stop_at_first_failure the caller reads no check after a failed
    one: a rejected vector-recompute leaves the later checks a part of the
    combination's vectors."""
    m = problem.lipschitz_m
    tolerance = VECTOR_MATCH_REL * m
    delta = cert.delta
    dim = problem.dim
    anchor = _as_vector(cert.anchor, dim)
    combo = cert.combination
    weights = np.array([w.weight for w in combo], dtype=float)
    yield check_weights_nonnegative(weights)
    yield check_weights_sum(weights)
    # each stored point, vector and direction is converted and validated
    # once, where a check first reads it, and handed on from there
    points = [_as_vector(w.point, dim) for w in combo]
    yield check_points_in_ball(points, anchor, delta)

    sub = Subproblem(problem, anchor, _checked=True)
    vectors, recomputed, mismatches = [], [], []
    for w, point in zip(combo, points):
        if w.direction is None:
            expected, branch = sub.grad(point)
        else:
            expected, branch, _, _ = sub.dir_grad(point, _as_vector(w.direction, dim))
        recomputed.append(expected)
        stored = _as_vector(w.vector, dim, finite=False)
        vectors.append(stored)
        # a relabelled branch is as wrong as a wrong vector
        mismatch = _norm(expected - stored) if branch == w.branch else math.inf
        mismatches.append(mismatch)
        if stop_at_first_failure and not mismatch <= tolerance:
            break  # this entry already fails the check
    # max() skips a NaN mismatch; a NaN must fail the check instead
    worst = max(mismatches, default=0.0)
    if any(math.isnan(d) for d in mismatches):
        worst = math.nan
    yield CheckResult("vector-recompute", worst <= tolerance,
                      "worst oracle mismatch %.3g (allowed %.3g)"
                      % (worst, tolerance))

    zeta = _as_vector(cert.zeta, dim)
    yield check_zeta_recompute(combo, vectors, zeta, m)
    zeta_norm = _norm(zeta)
    yield check_zeta_norm(zeta_norm, cert.eps_effective)

    gamma0, gamma, lam = multiplier_split(combo)
    split_ok = (abs(gamma0 - cert.gamma0) <= 1e-12
                and abs(gamma - cert.gamma) <= 1e-12
                and (lam is None) == (cert.lam is None)
                and (lam is None or abs(cert.lam - lam) <= 1e-9 * max(1.0, abs(lam))))
    # with gamma0 > 0, zeta/gamma0 lies in the Goldstein subdifferential of
    # f plus lam times g's, and lam*|g| <= 3*M*delta/gamma0 over the ball
    evidence = ("Fritz-John only" if lam is None else
                "lam = %.17g, ||zeta||/gamma0 = %.17g, 3*M*delta/gamma0 = %.17g"
                % (lam, zeta_norm / gamma0, 3.0 * m * delta / gamma0))
    yield CheckResult("multiplier-split", split_ok,
                      "gamma0 %.17g vs stored %.17g; %s"
                      % (gamma0, cert.gamma0, evidence))
    yield check_anchor_feasible(sub.g_anchor)

    longest = max(map(_norm, recomputed), default=0.0)
    yield check_slackness(cert.gamma, sub.g_anchor, longest, m, delta)
    draw = _BallDraw(anchor, delta, seed + 1, samples)
    yield _staged_estimate(sub, draw, ESTIMATE_FACTOR * cert.eps_effective)
    yield check_claims(cert, problem, zeta_norm, sub, gamma0)
