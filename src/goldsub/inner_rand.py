"""Randomized minimal-norm search over the Goldstein subdifferential.

Given an anchor x, a radius delta, and a tolerance eps, the search maintains
a convex combination zeta of subgradients of the anchored subproblem h_x
taken at points of B(x, delta).  Each round either certifies descent
(h drops by more than delta * ||zeta|| / 4 along -zeta) or shrinks ||zeta||
by projecting 0 onto the segment between zeta and a fresh subgradient sampled
on the would-be descent ray.  It stops when ||zeta|| <= eps (Stationary) or
when the descent test succeeds as a step (Descent).

The round loop itself, ``_search``, is shared with ``inner_bisect``: the two
searches differ only in the opening subgradient, the descent test and how
the next subgradient is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (ProblemSpec, Subproblem, Vector, WeightedSubgradient,
                   sample_ball, segment_projection_coefficient)
from .errors import BudgetExceededError, UsageError

DESCENT = "descent"
STATIONARY = "stationary"

# descent fraction certified by the randomized search: h drops by more than
# delta * ||zeta|| / 4 > delta * eps / 4 on every returned step
C_RAND = 0.25


@dataclass
class InnerResult:
    """Outcome of one inner-search invocation.

    zeta is always the convex combination of ``combination`` entries
    (weights nonnegative, summing to 1; points within delta of the anchor),
    a list built on first read: a solve reads only its last search's.
    ``oracle_calls`` counts subgradient-oracle evaluations of h -- the unit
    the per-invocation budgets are stated in; ``value_calls`` counts the
    value-only evaluations spent on descent tests.

    For Descent outcomes, ``descent_point = anchor - delta * zeta/||zeta||``
    is the accepted step, ``descent_amount = h(anchor) - h(descent_point)``,
    and ``descent_f``/``descent_g`` are the objective/constraint values at
    the step (so the caller can reuse the evaluation already paid for).
    """

    outcome: str
    zeta: Vector
    terms: _Combination = field(repr=False)
    oracle_calls: int
    value_calls: int
    iterations: int
    descent_amount: float | None = None
    descent_point: Vector | None = None
    descent_f: float | None = None
    descent_g: float | None = None
    probe_ties: int = 0

    @property
    def zeta_norm(self) -> float:
        return math.sqrt(self.zeta.dot(self.zeta))

    @cached_property
    def combination(self) -> list[WeightedSubgradient]:
        return self.terms.export()


class _Combination:
    """Convex combination bookkeeping.

    Each term is (point, vector, branch, direction).  A segment update with
    coefficient t rescales every existing weight by (1 - t) and appends the
    new term with weight t, so the weights stay on the simplex by
    construction.  The common (1 - t) products are kept in a single
    ``scale`` factor instead of touching every entry per round; the
    effective weight of entry i is ``raw[i] * scale``.  Zero-weight terms
    are dropped at export.
    """

    def __init__(self, term):
        self.terms = [term]
        self.raw = [1.0]
        self.scale = 1.0

    def segment_update(self, t: float, term):
        if t == 1.0:
            # every previous weight becomes exactly 0
            self.terms, self.raw, self.scale = [term], [1.0], 1.0
            return
        self.scale *= 1.0 - t
        if self.scale < 1e-250:  # fold before the shared factor underflows
            self.raw = [r * self.scale for r in self.raw]
            self.scale = 1.0
        self.terms.append(term)
        self.raw.append(t / self.scale)

    def weights(self) -> list[float]:
        return [r * self.scale for r in self.raw]

    def export(self) -> list[WeightedSubgradient]:
        return [WeightedSubgradient(point=p, vector=v, branch=b, weight=w,
                                    direction=d)
                for (p, v, b, d), w in zip(self.terms, self.weights())
                if w != 0.0]


def rand_call_budget(m_lipschitz: float, eps: float, tau: float) -> int:
    """Per-invocation subgradient-call budget met with probability >= 1 - tau."""
    if not 0.0 < tau < 1.0:
        raise UsageError("tau must lie in (0, 1)")
    return math.ceil(64.0 * m_lipschitz ** 2 / eps ** 2) * math.ceil(2.0 * math.log(1.0 / tau))


def _search(anchor: Vector, problem: ProblemSpec, delta: float, eps: float,
            call_cap: int, anchor_values: tuple[float, float] | None,
            first, descends, step) -> InnerResult:
    """The round loop of both searches.  A term is the (point, vector,
    branch, direction) of one subgradient; first(sub) gives the opening term,
    descends(descent, norm) tests a trial step, and step(sub, zeta, norm,
    direction, h_trial) gives (term, probe ties) after a rejected one."""
    if not (delta > 0 and eps > 0):
        raise UsageError("delta and eps must be positive")
    sub = Subproblem(problem, anchor, anchor_values)
    anchor = sub.anchor
    if sub.g_anchor > 0.0:
        raise UsageError("infeasible anchor: g(anchor) = %g > 0" % sub.g_anchor)

    term = first(sub)
    zeta = term[1]
    combo = _Combination(term)
    iterations = 0
    ties_total = 0

    while True:
        norm = math.sqrt(zeta.dot(zeta))
        if norm <= eps:
            return InnerResult(STATIONARY, zeta, combo,
                               sub.subgrad_calls, sub.value_calls, iterations,
                               probe_ties=ties_total)
        direction = zeta / norm
        trial = anchor - delta * direction
        h_trial, f_trial, g_trial = sub.value_full(trial)
        descent = sub.h_anchor - h_trial
        if descends(descent, norm):
            return InnerResult(DESCENT, zeta, combo,
                               sub.subgrad_calls, sub.value_calls, iterations,
                               descent_amount=descent, descent_point=trial,
                               descent_f=f_trial, descent_g=g_trial,
                               probe_ties=ties_total)
        if sub.subgrad_calls >= call_cap:
            raise BudgetExceededError(
                "inner call cap %d exhausted at ||zeta|| = %.3g" % (call_cap, norm),
                partial={"zeta": zeta, "combination": combo.export(),
                         "oracle_calls": sub.subgrad_calls,
                         "value_calls": sub.value_calls,
                         "iterations": iterations})

        term, ties = step(sub, zeta, norm, direction, h_trial)
        ties_total += ties
        vec = term[1]
        t = segment_projection_coefficient(zeta, vec)
        zeta = (1.0 - t) * zeta + t * vec
        combo.segment_update(t, term)
        iterations += 1


def rand_search(anchor: Vector, problem: ProblemSpec, delta: float, eps: float,
                rng: np.random.Generator, call_cap: int,
                anchor_values: tuple[float, float] | None = None) -> InnerResult:
    """Run the randomized search at a feasible anchor.

    Parameters
    ----------
    anchor : feasible point (g(anchor) <= 0); UsageError otherwise.
    delta, eps : Goldstein radius and stationarity tolerance, both positive.
    rng : numpy Generator; all sampling flows through it, so equal seeds give
        bit-identical results.  Per round the draw order is: direction
        normals + radius uniform for the gradient-space ball, then one
        uniform for the segment point.
    call_cap : hard cap on subgradient calls; BudgetExceededError beyond it.
    anchor_values : (f(anchor), g(anchor)) if the caller already paid for
        them, which also vouches that anchor is a finite float array of
        length problem.dim and skips its validation; otherwise anchor is
        validated and one value call is spent here.
    """
    m = problem.lipschitz_m

    def first(sub):
        y0 = sample_ball(sub.anchor, delta, rng)
        return (y0, *sub.grad(y0), None)

    def step(sub, zeta, norm, direction, h_trial):
        # perturb the descent direction inside a gradient-space ball whose
        # radius keeps the sampled ray aligned with zeta; half the admissible
        # upper bound
        u = norm ** 2 / (128.0 * m ** 2)
        r = 0.5 * norm * math.sqrt(max(0.0, 1.0 - (1.0 - u) ** 2))
        y = sample_ball(zeta, r, rng)
        y_norm = math.sqrt(y.dot(y))
        s = sub.anchor - (delta * rng.random() / y_norm) * y
        return (s, *sub.grad(s), None), 0

    return _search(anchor, problem, delta, eps, call_cap, anchor_values, first,
                   lambda descent, norm: descent > delta * norm / 4.0, step)
