"""Deterministic minimal-norm search driven by ray bisection.

Same outer contract as the randomized search, but the fresh subgradient of
each round is found deterministically: when the step to
``anchor - delta * zeta/||zeta||`` fails the descent test, the restriction of
h to that ray (shifted by -eps * r / 2) must lose height between the far end
and the anchor, so somewhere along it the directional derivative is below
eps / 2.  A slope-guided bisection finds such a point; the directional
subgradient there shrinks ||zeta|| via the usual segment projection.

Requires directional oracles (<F(x, v), v> equal to the one-sided directional
derivative) and, for the call budget to be checkable, finite nonconvexity
moduli.

The round loop is ``inner_rand._search``; this module supplies the opening
directional subgradient along ``v0``, the descent test
h(anchor) - h(trial) >= delta * eps / 3, and the ray bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, Subproblem, Vector, _as_vector
from .errors import ModulusError, UsageError
from .inner_rand import InnerResult, _search

# descent fraction certified by the deterministic search: h drops by at
# least delta * eps / 3 on every returned step
C_BISECT = 1.0 / 3.0


@dataclass(frozen=True)
class RayRestriction:
    """The segment r in [0, delta] |-> anchor + (r - delta) * direction.

    r = 0 is the far end (the rejected trial step), r = delta the anchor.
    ``direction`` must be a unit vector.
    """

    anchor: Vector
    direction: Vector
    delta: float
    eps: float

    def __post_init__(self):
        if not (self.delta > 0 and self.eps > 0):
            raise UsageError("delta and eps must be positive")
        norm = math.sqrt(self.direction.dot(self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise UsageError("ray direction must be unit norm (got %.17g)" % norm)

    def point_at(self, r: float) -> Vector:
        if not 0.0 <= r <= self.delta:
            raise UsageError("ray parameter %g outside [0, %g]" % (r, self.delta))
        return self.anchor + (r - self.delta) * self.direction


def default_max_steps(delta: float) -> int:
    """Step cap: generous headroom plus the bisection depth float can resolve."""
    return 64 + int(math.ceil(math.log2(delta / np.spacing(delta))))


def bisect_negative_slope(ray: RayRestriction, sub: Subproblem,
                          l_far: float, l_anchor: float):
    """Find r with directional h-slope below eps/2 at ray.point_at(r).

    ``l_far`` and ``l_anchor`` are the endpoint values of
    l(r) = h(point_at(r)) - eps * r / 2, which the caller has already paid
    for; l_far > l_anchor is required (the average slope of l is negative).

    Maintains a bracket [a, b] whose average l-slope never rises above the
    initial one: probe the midpoint; if the shifted slope there is negative,
    return; otherwise recurse into whichever half has the smaller (more
    negative) average l-slope, ties toward the left.  Probe-test equality is
    a failure (bisection continues) and is tallied in the returned tie count.

    Returns (r, vector, branch, h_at_r, probes, ties).  Raises ModulusError
    when the step cap or float resolution is exhausted, which signals
    understated nonconvexity metadata or a broken directional oracle.
    """
    if not l_far > l_anchor:
        raise UsageError(
            "restriction endpoints do not lose height: l(0) = %.17g <= l(delta) = %.17g"
            % (l_far, l_anchor))
    a, b = 0.0, ray.delta
    la, lb = l_far, l_anchor
    half_eps = ray.eps / 2.0
    probes = 0
    ties = 0
    for _ in range(default_max_steps(ray.delta)):
        m = 0.5 * (a + b)
        if not a < m < b:  # float resolution exhausted
            break
        z = ray.point_at(m)
        vec, branch, h_m, dd = sub.dir_grad(z, ray.direction)
        probes += 1
        slope = dd - half_eps
        if slope < 0.0:
            return m, vec, branch, h_m, probes, ties
        if slope == 0.0:
            ties += 1
        lm = h_m - half_eps * m
        if (lm - la) / (m - a) <= (lb - lm) / (b - m):
            b, lb = m, lm
        else:
            a, la = m, lm
    raise ModulusError(
        "no negative-slope point after %d probes on [%.3g, %.3g]; nonconvexity "
        "metadata understated or directional oracle broken" % (probes, a, b))


def bisect_call_budget(m_lipschitz: float, eps: float,
                       nonconvexity_total: float) -> int:
    """Per-invocation subgradient-call budget for the deterministic search."""
    return math.ceil(16.0 * m_lipschitz ** 2 / eps ** 2) * (
        1 + math.floor(12.0 * nonconvexity_total / eps))


def bisect_search(anchor: Vector, problem: ProblemSpec, delta: float, eps: float,
                  call_cap: int, v0: Vector | None = None,
                  anchor_values: tuple[float, float] | None = None) -> InnerResult:
    """Run the deterministic search at a feasible anchor.

    Arguments as in ``rand_search``; with ``anchor_values`` the anchor is
    taken as already validated, as there.  ``v0`` seeds the first directional
    query (callers that iterate pass the previous step direction; the
    default is the first basis vector); each ray bisection stops after
    ``default_max_steps(delta)`` probes.  Equal inputs give bit-identical
    results.
    """
    def first(sub):
        if v0 is None:
            v = np.zeros(problem.dim)
            v[0] = 1.0
        else:
            v = _as_vector(v0, problem.dim)
            norm0 = math.sqrt(v.dot(v))
            if norm0 == 0.0:
                raise UsageError("v0 must be nonzero")
            v = v / norm0
        vec, branch, _, _ = sub.dir_grad(sub.anchor, v)
        return sub.anchor, vec, branch, v

    def step(sub, zeta, norm, direction, h_trial):
        ray = RayRestriction(anchor=sub.anchor, direction=direction,
                             delta=delta, eps=eps)
        l_far = h_trial  # l(0) = h(trial) - eps*0/2
        l_anchor = sub.h_anchor - eps * delta / 2.0
        r, vec, branch, _, _, ties = bisect_negative_slope(
            ray, sub, l_far, l_anchor)
        return (ray.point_at(r), vec, branch, direction), ties

    return _search(anchor, problem, delta, eps, call_cap, anchor_values, first,
                   lambda descent, norm: descent >= delta * eps / 3.0, step)
