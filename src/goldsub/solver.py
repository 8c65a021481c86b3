"""Outer feasible-descent loop and stationarity certificates.

The driver repeats: run an inner minimal-norm search at the current iterate
x_k; on Stationary stop, on Descent step x_{k+1} = x_k - delta * zeta/||zeta||.
Every accepted step lowers f by at least C * delta * eps and keeps
g(x_{k+1}) <= -C * delta * eps, with C = 1/4 for the randomized search and
1/3 for the deterministic one, so when the optimal value p_star is known the
step count is at most ceil((f(x_0) - p_star) / (C * delta * eps)).

Termination hands back a certificate: the convex combination of ball
subgradients behind the final small zeta, split into objective mass gamma0
and constraint mass gamma.  gamma0 > 0 yields the multiplier
lambda = gamma / gamma0 and, with a constraint-qualification level sigma,
approximate KKT residuals; gamma0 = 0 still certifies Fritz-John
stationarity.  The split, the checks, eps_effective and the KKT claims are
the verifier's own functions.
Complementary slackness needs no check here: the construction bounds
|gamma * g| by gamma * (|g(anchor)| + M*delta) <= 3*M*delta over the ball,
and ``goldsub verify`` checks that bound exactly, from M.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

# sample_ball is unused here; it exists because perfbench/tracer.py patches
# solver.sample_ball, and the import goes when that patch does (ROADMAP item 1)
from .core import (ProblemSpec, Subproblem, Vector, WeightedSubgradient,
                   _norm, sample_ball)
from .errors import (BudgetExceededError, CertificationError,
                     InfeasibleStartError, UsageError)
from .inner_bisect import C_BISECT, bisect_call_budget, bisect_search
from .inner_rand import C_RAND, STATIONARY, rand_call_budget, rand_search
from .verify import (CheckResult, GoldsteinCertificate, check_anchor_feasible,
                     check_points_in_ball, check_weights_nonnegative,
                     check_weights_sum, check_zeta_norm, check_zeta_recompute,
                     eps_effective, kkt_claims, multiplier_split)

RAND = "rand"
BISECT = "bisect"

# fallback inner call cap when nonconvexity moduli are unknown and the
# deterministic budget cannot be formed
_UNBOUNDED_CAP = 10_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solve.

    ``target_eps`` is the stationarity tolerance itself in Fritz-John mode.
    In KKT mode it is the KKT accuracy target and the loop runs at the
    tighter eps_effective = sigma * eps / (eps + sigma + M).  ``tau`` is the
    total failure probability granted to the randomized inner search across
    the whole run; the deterministic search ignores it.  A solve takes at
    most ``outer_cap`` descent steps.
    """

    delta: float
    target_eps: float
    inner: str = RAND
    kkt_mode: bool = False
    gcq_sigma: float | None = None
    tau: float = 0.1
    seed: int = 0
    outer_cap: int = 1_000_000
    inner_call_cap: int | None = None

    def __post_init__(self):
        if not (self.delta > 0 and self.target_eps > 0):
            raise UsageError("delta and target_eps must be positive")
        if not all(map(math.isfinite, (self.delta, self.target_eps, self.tau,
                                       self.gcq_sigma or 0.0))):
            raise UsageError("delta, target_eps, tau and gcq_sigma must be finite")
        if self.inner not in (RAND, BISECT):
            raise UsageError("inner must be %r or %r, got %r"
                             % (RAND, BISECT, self.inner))
        if self.kkt_mode:
            if self.gcq_sigma is None or not self.gcq_sigma > 0:
                raise UsageError("kkt_mode requires a positive gcq_sigma")
        if self.inner == RAND and not 0.0 < self.tau < 1.0:
            # tau = 0 would make the confidence budget infinite
            raise UsageError("tau must lie in (0, 1) for the randomized inner search")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.outer_cap < 1:
            raise UsageError("outer_cap must be at least 1")
        if self.inner_call_cap is not None and self.inner_call_cap < 1:
            raise UsageError("inner_call_cap must be at least 1")

    def eps_effective(self, lipschitz_m: float) -> float:
        return eps_effective(self.target_eps, lipschitz_m,
                             self.gcq_sigma if self.kkt_mode else None)


@dataclass
class SolveTrace:
    """Per-iteration descent record plus run totals; one per solve.

    ``records[k]`` describes iterate x_k and the inner run performed there,
    in scalars: x_0 is the start and later x_k replay from the manifest.
    outer_steps counts the descent steps taken.  Oracle calls count joint
    (value + subgradient) evaluations; value_calls count value-only ones
    (descent tests and the initial feasibility check), both including those
    of an inner run that hit its call cap, whose BudgetExceededError carries
    this same object.  wall_time_s, stamped on every exit, is informational;
    inner_budget is the inner search's per-invocation call budget (None when
    unknown).  Neither is serialized: equal manifests give equal trace bytes.
    """

    records: list[dict]
    outer_steps: int
    oracle_calls: int
    value_calls: int
    eps_effective: float
    delta: float
    inner: str
    descent_fraction: float
    lemma_bound: int | None
    tau_prime: float | None
    call_cap: int
    wall_time_s: float = 0.0
    inner_budget: int | None = None


def _bound(what: str, formula, *args) -> int:
    """``formula(*args)``, a step or call bound; a UsageError naming ``what``
    when it is not a finite number in floating point."""
    try:
        return formula(*args)
    except (OverflowError, ZeroDivisionError):
        raise UsageError("%s is not a finite number at these delta, eps, "
                         "tau and sigma" % what) from None


def _require(check: CheckResult) -> None:
    if not check.passed:
        raise CertificationError("check %s failed: %s" % (check.name, check.detail))


def certify(anchor: Vector, combination: list[WeightedSubgradient],
            problem: ProblemSpec, config: SolverConfig, zeta: Vector,
            anchor_values: tuple[float, float]) -> GoldsteinCertificate:
    """Assemble and self-check the certificate for a stationary anchor.

    Runs the verifier's checks that call no oracle, in its order; the first
    failure raises CertificationError.  The inner-loop contract guarantees
    them, so a failure means a bug or broken metadata, never a user error.
    The anchor, points, vectors and ``zeta`` are taken as the search built
    them, each already checked where it was made.  ``zeta`` is the solver's
    own accumulated sum, so the recombination residual is an honest
    measurement, and ``anchor_values = (f(anchor), g(anchor))`` are the
    values the solver read at the anchor: certify calls no oracle.  Each of
    the KKT claims' warnings is also raised as a UserWarning.
    """
    m = problem.lipschitz_m
    delta = config.delta
    eps_t = config.eps_effective(m)

    weights = np.array([w.weight for w in combination], dtype=float)
    _require(check_weights_nonnegative(weights))
    _require(check_weights_sum(weights))
    points = [w.point for w in combination]
    _require(check_points_in_ball(points, anchor, delta))
    vectors = [w.vector for w in combination]
    _require(check_zeta_recompute(combination, vectors, zeta, m))
    zeta_norm = _norm(zeta)
    _require(check_zeta_norm(zeta_norm, eps_t))

    f_anchor, g_anchor = anchor_values
    _require(check_anchor_feasible(g_anchor))

    gamma0, gamma, lam = multiplier_split(combination)
    sigma = config.gcq_sigma if config.kkt_mode else None
    kkt_eps, kkt_eta, kkt_lambda_bound, notes = kkt_claims(eps_t, sigma, m,
                                                           delta, gamma0)
    for note in notes:
        warnings.warn(note)

    return GoldsteinCertificate(
        anchor=anchor, zeta=zeta, zeta_norm=zeta_norm,
        combination=list(combination), gamma0=gamma0, gamma=gamma, lam=lam,
        eps_effective=eps_t, delta=delta, f_anchor=float(f_anchor),
        g_anchor=float(g_anchor), kkt_eps=kkt_eps, kkt_eta=kkt_eta,
        kkt_lambda_bound=kkt_lambda_bound, gcq_sigma=sigma, warnings=notes)


def solve(problem: ProblemSpec, config: SolverConfig, x0) -> tuple[GoldsteinCertificate, SolveTrace]:
    """Run the feasible-descent loop from x0 until stationarity: validate,
    read f and g at x0, run one stage at (delta, eps_effective), certify.
    Returns (certificate, trace).  Raises InfeasibleStartError when
    g(x0) > 0, BudgetExceededError when an inner call cap, the outer cap or
    the descent-lemma bound is exhausted (with the run's one trace attached),
    and ModulusError when the deterministic search cannot honor its metadata.
    """
    if config.delta >= problem.neighborhood_delta:
        raise UsageError(
            "delta = %g must be below the problem neighborhood radius %g"
            % (config.delta, problem.neighborhood_delta))
    start = Subproblem(problem, x0)  # validates x0 and reads f, g there
    eps_t = config.eps_effective(problem.lipschitz_m)
    if not 0.0 < eps_t < math.inf:
        raise UsageError("eps_effective = %g must be positive and finite" % eps_t)
    f_x, g_x = start.f_anchor, start.g_anchor
    if g_x > 0.0:
        raise InfeasibleStartError("g(x0) = %.17g > 0: start must be feasible" % g_x)
    # only the rand search draws; a bisect solve reads no randomness
    rng = np.random.default_rng(config.seed) if config.inner == RAND else None
    trace, x, f_x, g_x, res = _stage(problem, config, start.anchor.copy(), f_x,
                                     g_x, config.delta, eps_t, rng,
                                     start.value_calls)
    cert = certify(x, res.combination, problem, config, res.zeta, (f_x, g_x))
    return cert, trace


def _stage(problem: ProblemSpec, config: SolverConfig, x: Vector, f_x: float,
           g_x: float, delta: float, eps_t: float, rng, value_calls: int):
    """Descend from the feasible x at one (delta, eps_t) until an inner
    search certifies stationarity; returns (trace, x, f_x, g_x, the
    stationary InnerResult).  ``rng`` is the randomized search's generator,
    None for bisection; ``value_calls`` were spent reading (f_x, g_x).  The
    descent-lemma bound from f_x, tau', the inner budget and the call cap
    are the stage's own, and so is the trace: built once, stamped on exit.
    """
    started = time.perf_counter()
    m = problem.lipschitz_m
    c_frac = C_BISECT if rng is None else C_RAND
    lemma_bound = tau_prime = budget = None
    if problem.p_star is not None:
        lemma_bound = _bound("the descent-lemma bound",
                             lambda gap, step: max(1, math.ceil(gap / step)),
                             f_x - problem.p_star, c_frac * delta * eps_t)
    if rng is not None:
        # a solve with at most K steps runs at most K + 1 inner searches: one
        # per step, then the one that certifies or trips the cap
        tau_prime = config.tau / ((config.outer_cap if lemma_bound is None
                                   else lemma_bound) + 1)
        budget = _bound("the inner call budget", rand_call_budget,
                        m, eps_t, tau_prime)
    elif None not in (problem.nonconvexity_f, problem.nonconvexity_g):
        budget = _bound("the inner call budget", bisect_call_budget, m, eps_t,
                        problem.nonconvexity_f + problem.nonconvexity_g)
    call_cap = config.inner_call_cap or (
        _UNBOUNDED_CAP if budget is None else 4 * budget)
    trace = SolveTrace(
        records=[], outer_steps=0, oracle_calls=0, value_calls=value_calls,
        eps_effective=eps_t, delta=delta, inner=config.inner,
        descent_fraction=c_frac, lemma_bound=lemma_bound, tau_prime=tau_prime,
        call_cap=call_cap, inner_budget=budget)
    try:
        while True:
            # looked up on every step: perfbench/tracer.py patches both
            if rng is not None:
                res = rand_search(x, problem, delta, eps_t, rng, call_cap,
                                  (f_x, g_x))
            else:
                res = bisect_search(x, problem, delta, eps_t, call_cap,
                                    (f_x, g_x))
            calls, values = res.oracle_calls, res.value_calls
            trace.oracle_calls += calls
            trace.value_calls += values
            trace.records.append({
                "k": trace.outer_steps, "f": f_x, "g": g_x,
                "zeta_norm": res.zeta_norm, "inner_outcome": res.outcome,
                "inner_oracle_calls": calls, "inner_value_calls": values,
                "inner_iterations": res.iterations,
                "inner_probe_ties": res.probe_ties,
                "descent_amount": res.descent_amount,
            })
            if res.outcome == STATIONARY:
                return trace, x, f_x, g_x, res
            if trace.outer_steps == config.outer_cap:  # descent not taken
                raise BudgetExceededError(
                    "outer cap %d exhausted" % config.outer_cap)
            x = res.descent_point  # a fresh array that only this loop holds
            f_x, g_x = res.descent_f, res.descent_g
            trace.outer_steps += 1
            if lemma_bound is not None and trace.outer_steps > lemma_bound:
                raise BudgetExceededError(
                    "outer step %d exceeds the descent-lemma bound %d: "
                    "Lipschitz metadata or p_star is wrong, or an oracle is "
                    "broken" % (trace.outer_steps, lemma_bound))
    except BudgetExceededError as err:
        # the totals include the calls of an inner search that hit its cap
        trace.oracle_calls += err.partial.get("oracle_calls", 0)
        trace.value_calls += err.partial.get("value_calls", 0)
        err.partial["trace"] = trace
        raise
    finally:
        trace.wall_time_s = time.perf_counter() - started
