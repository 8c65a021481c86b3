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
directional subgradient along the first basis vector, the descent test
h(anchor) - h(trial) >= delta * eps / 3, and the ray bisection.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import ProblemSpec, Subproblem, Vector
from .errors import ModulusError, UsageError
from .inner_rand import InnerResult, _search

# descent fraction certified by the deterministic search: h drops by at
# least delta * eps / 3 on every returned step
C_BISECT = 1.0 / 3.0


def default_max_steps(delta: float) -> int:
    """Step cap: generous headroom plus the bisection depth float can resolve."""
    return 64 + int(math.ceil(math.log2(delta / math.ulp(delta))))


def bisect_negative_slope(sub: Subproblem, direction: Vector, delta: float,
                          eps: float, l_far: float, l_anchor: float):
    """Find a ray point sub.anchor + (r - delta) * direction whose
    directional h-slope is below eps/2.

    r = 0 is the far end (the rejected trial step), r = delta the anchor.
    ``direction`` is a unit vector and delta, eps are positive, as
    ``bisect_search`` builds them; they are not re-checked.  ``l_far`` and
    ``l_anchor`` are the endpoint values of l(r) = h(ray point) - eps * r / 2,
    which the caller has already paid for; l_far > l_anchor is required (the
    average slope of l is negative).

    Maintains a bracket [a, b] whose average l-slope never rises above the
    initial one: probe the midpoint; if the shifted slope there is negative,
    return; otherwise recurse into whichever half has the smaller (more
    negative) average l-slope, ties toward the left.  Probe-test equality is
    a failure (bisection continues) and is tallied in the returned tie count.

    Returns (point, vector, branch, ties, probes): the ray point built for
    the passing ``Subproblem.dir_grad`` probe, its vector and branch index;
    ``probes`` stays at index 4, where perfbench's tracer reads it.  Raises
    ModulusError when the step cap or float resolution is exhausted, which
    signals understated nonconvexity metadata or a broken directional oracle.
    """
    if not l_far > l_anchor:
        raise UsageError(
            "restriction endpoints do not lose height: l(0) = %.17g <= l(delta) = %.17g"
            % (l_far, l_anchor))
    anchor = sub.anchor
    a, b = 0.0, delta
    la, lb = l_far, l_anchor
    half_eps = eps / 2.0
    probes = 0
    ties = 0
    for _ in range(default_max_steps(delta)):
        m = 0.5 * (a + b)
        if not a < m < b:  # float resolution exhausted
            break
        point = anchor + (m - delta) * direction
        vec, branch, h_m, dd = sub.dir_grad(point, direction)
        probes += 1
        slope = dd - half_eps
        if slope < 0.0:
            return point, vec, branch, ties, probes
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


@lru_cache(maxsize=1)
def _first_basis_vector(dim: int) -> Vector:
    """e_1 of R^dim, read-only: the opening direction of every search of
    a solve, and of the certificate entry it makes, shares it.  Only the
    last dimension's is kept."""
    v = np.zeros(dim)
    v[0] = 1.0
    v.flags.writeable = False
    return v


def _first(sub: Subproblem, delta: float, rng) -> tuple:
    v = _first_basis_vector(sub.problem.dim)
    vec, branch, _, _ = sub.dir_grad(sub.anchor, v)
    return sub.anchor, vec, branch, v


def _descends(descent: float, norm: float, delta: float, eps: float) -> bool:
    return descent >= delta * eps / 3.0


def _step(sub: Subproblem, delta: float, eps: float, rng, zeta: Vector,
          norm: float, direction: Vector, h_trial: float) -> tuple:
    # l(0) = h(trial), l(delta) = h(anchor) - eps * delta / 2
    point, vec, branch, ties, _ = bisect_negative_slope(
        sub, direction, delta, eps, h_trial, sub.h_anchor - eps * delta / 2.0)
    return (point, vec, branch, direction), ties


def bisect_search(anchor: Vector, problem: ProblemSpec, delta: float, eps: float,
                  call_cap: int,
                  anchor_values: tuple[float, float] | None = None) -> InnerResult:
    """Run the deterministic search at a feasible anchor.

    Arguments as in ``rand_search``.  The first directional query is at the
    anchor along the first basis vector; the call budget does not depend on
    where the search opens.  Each ray bisection stops after
    ``default_max_steps(delta)`` probes.  Equal inputs give bit-identical
    results.
    """
    return _search(anchor, problem, delta, eps, call_cap, anchor_values,
                   _first, _descends, _step, None)
