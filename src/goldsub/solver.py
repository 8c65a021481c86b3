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
stationarity.  The split, the slackness sampling and the checks are the
verifier's own functions.
"""

from __future__ import annotations

import math
import time
import warnings as _pywarn
from dataclasses import dataclass

import numpy as np

# sample_ball is unused here; it exists because perfbench/tracer.py patches
# solver.sample_ball, and the import goes when that patch does (ROADMAP item 1)
from .core import (ProblemSpec, ReducedConstraint, Vector, WeightedSubgradient,
                   _as_vector, _check_samples, _finite_value, sample_ball)
from .errors import (BudgetExceededError, CertificationError,
                     InfeasibleStartError, UsageError)
from .inner_bisect import C_BISECT, bisect_call_budget, bisect_search
from .inner_rand import C_RAND, STATIONARY, rand_call_budget, rand_search
from .verify import (CheckResult, GoldsteinCertificate, check_anchor_feasible,
                     check_points_in_ball, check_slackness,
                     check_weights_nonnegative, check_weights_sum,
                     check_zeta_norm, check_zeta_recompute, multiplier_split,
                     recombine, sampled_slack, slack_bound)

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
    the whole run; the deterministic search ignores it.
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
    slackness_samples: int = 1000

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
        _check_samples(self.slackness_samples, "slackness_samples")

    def eps_effective(self, lipschitz_m: float) -> float:
        if not self.kkt_mode:
            return self.target_eps
        eps, sigma = self.target_eps, self.gcq_sigma
        return sigma * eps / (eps + sigma + lipschitz_m)


@dataclass
class SolveTrace:
    """Per-iteration descent record plus run totals.

    ``records[k]`` describes iterate x_k and the inner run performed there.
    Oracle calls count joint (value + subgradient) evaluations; value_calls
    count value-only evaluations (descent tests and the initial feasibility
    check).  wall_time_s is informational; inner_budget is the inner
    search's per-invocation call budget (None when unknown).  Both are left
    out of serialized traces so equal manifests give byte-identical files.
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
            problem: ProblemSpec, config: SolverConfig,
            zeta: Vector | None = None, rng: np.random.Generator | None = None,
            anchor_values: tuple[float, float] | None = None) -> GoldsteinCertificate:
    """Assemble and self-check the certificate for a stationary anchor.

    Runs the verifier's structural checks in its order; the first failure
    raises CertificationError.  The inner-loop contract guarantees them, so
    a failure means a bug or broken metadata, never a user error.  ``zeta``
    defaults to the recombined sum; passing the solver's own accumulated
    zeta keeps the recombination residual an honest measurement.
    """
    anchor = _as_vector(anchor, problem.dim)
    m = problem.lipschitz_m
    delta = config.delta
    eps_t = config.eps_effective(m)

    weights = np.array([w.weight for w in combination], dtype=float)
    _require(check_weights_nonnegative(weights))
    _require(check_weights_sum(weights))
    _require(check_points_in_ball(combination, anchor, delta, problem.dim))
    zeta = _as_vector(recombine(combination, problem.dim) if zeta is None
                      else zeta, problem.dim)
    _require(check_zeta_recompute(combination, zeta, m))
    zeta_norm = math.sqrt(zeta.dot(zeta))
    _require(check_zeta_norm(zeta_norm, eps_t))

    reduced = ReducedConstraint(problem)
    if anchor_values is not None:
        f_anchor, g_anchor = anchor_values
    else:
        f_anchor = _finite_value(problem.objective.value(anchor), "objective value")
        g_anchor, _ = reduced.value(anchor)
    _require(check_anchor_feasible(g_anchor))

    gamma0, gamma, lam = multiplier_split(combination)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    slack_max = sampled_slack(reduced, anchor, delta, gamma,
                              config.slackness_samples, rng)
    _require(check_slackness(slack_max, m, delta))

    warnings: list[str] = []
    kkt_eps = kkt_eta = kkt_lambda_bound = None
    if config.kkt_mode:
        if gamma0 > 0.0:
            sigma = config.gcq_sigma
            factor = (sigma + m) / (sigma - eps_t)
            kkt_eps = eps_t * factor
            kkt_eta = 3.0 * m * delta * factor
            kkt_lambda_bound = factor - 1.0
        else:
            msg = ("objective weight mass is zero: constraint qualification "
                   "failed empirically, certifying Fritz-John stationarity "
                   "only and leaving the multiplier undefined")
            warnings.append(msg)
            _pywarn.warn(msg)

    return GoldsteinCertificate(
        anchor=anchor, zeta=zeta, zeta_norm=zeta_norm,
        combination=list(combination), gamma0=gamma0, gamma=gamma, lam=lam,
        eps_effective=eps_t, fj_eta_bound=3.0 * m * delta, delta=delta,
        lipschitz_m=m, f_anchor=float(f_anchor), g_anchor=float(g_anchor),
        per_constraint_g=[_finite_value(c.value(anchor), "constraint %d value", i)
                          for i, c in enumerate(problem.constraints, start=1)],
        kkt_eps=kkt_eps, kkt_eta=kkt_eta, kkt_lambda_bound=kkt_lambda_bound,
        gcq_sigma=config.gcq_sigma if config.kkt_mode else None,
        slack_samples=config.slackness_samples if gamma > 0.0 else 0,
        slack_max=slack_max, slack_bound=slack_bound(m, delta),
        warnings=warnings)


def solve(problem: ProblemSpec, config: SolverConfig, x0) -> tuple[GoldsteinCertificate, SolveTrace]:
    """Run the feasible-descent loop from x0 until stationarity.

    Returns (certificate, trace).  Raises InfeasibleStartError when
    g(x0) > 0, BudgetExceededError when an inner call cap or the outer cap
    is exhausted (with partial trace attached), and ModulusError when the
    deterministic search cannot honor its metadata.
    """
    if config.delta >= problem.neighborhood_delta:
        raise UsageError(
            "delta = %g must be below the problem neighborhood radius %g"
            % (config.delta, problem.neighborhood_delta))
    x = _as_vector(x0, problem.dim).copy()
    m = problem.lipschitz_m
    eps_t = config.eps_effective(m)
    if not 0.0 < eps_t < math.inf:
        raise UsageError("eps_effective = %g must be positive and finite" % eps_t)
    c_frac = C_RAND if config.inner == RAND else C_BISECT
    f_x = _finite_value(problem.objective.value(x), "objective value")
    g_x, _ = ReducedConstraint(problem).value(x)
    value_calls = 1  # initial feasibility check
    if g_x > 0.0:
        raise InfeasibleStartError("g(x0) = %.17g > 0: start must be feasible" % g_x)

    lemma_bound = None
    tau_prime = None
    if problem.p_star is not None:
        gap0 = f_x - problem.p_star
        lemma_bound = _bound("the descent-lemma bound", lambda: max(
            1, math.ceil(gap0 / (c_frac * config.delta * eps_t))))
    if config.inner == RAND:
        tau_prime = config.tau / (config.outer_cap if lemma_bound is None
                                  else lemma_bound)
        budget = _bound("the inner call budget", rand_call_budget,
                        m, eps_t, tau_prime)
    elif problem.nonconvexity_f is None or problem.nonconvexity_g is None:
        budget = None
    else:
        budget = _bound("the inner call budget", bisect_call_budget, m, eps_t,
                        problem.nonconvexity_f + problem.nonconvexity_g)
    call_cap = config.inner_call_cap or (
        _UNBOUNDED_CAP if budget is None else 4 * budget)

    rng = np.random.default_rng(config.seed)
    records: list[dict] = []
    oracle_calls = 0
    prev_direction: Vector | None = None
    started = time.perf_counter()

    def partial_trace() -> SolveTrace:
        return SolveTrace(records=records, outer_steps=len(records) - 1,
                          oracle_calls=oracle_calls, value_calls=value_calls,
                          eps_effective=eps_t, delta=config.delta,
                          inner=config.inner, descent_fraction=c_frac,
                          lemma_bound=lemma_bound, tau_prime=tau_prime,
                          call_cap=call_cap,
                          wall_time_s=time.perf_counter() - started,
                          inner_budget=budget)

    k = 0
    while True:
        try:
            if config.inner == RAND:
                res = rand_search(x, problem, config.delta, eps_t, rng,
                                  call_cap, anchor_values=(f_x, g_x))
            else:
                res = bisect_search(x, problem, config.delta, eps_t, call_cap,
                                    v0=prev_direction, anchor_values=(f_x, g_x))
        except BudgetExceededError as err:
            err.partial = dict(err.partial or {})
            err.partial["trace"] = partial_trace()
            raise
        oracle_calls += res.oracle_calls
        value_calls += res.value_calls
        records.append({
            "k": k, "x": x.tolist(), "f": f_x, "g": g_x,
            "zeta_norm": res.zeta_norm, "inner_outcome": res.outcome,
            "inner_oracle_calls": res.oracle_calls,
            "inner_value_calls": res.value_calls,
            "inner_iterations": res.iterations,
            "inner_probe_ties": res.probe_ties,
            "descent_amount": res.descent_amount,
        })
        if res.outcome == STATIONARY:
            break
        if config.inner == BISECT:
            prev_direction = res.zeta / res.zeta_norm
        x = res.descent_point.copy()
        f_x, g_x = res.descent_f, res.descent_g
        k += 1
        if lemma_bound is not None and k > lemma_bound:
            raise BudgetExceededError(
                "outer step %d exceeds the descent-lemma bound %d: Lipschitz "
                "metadata or p_star is wrong, or an oracle is broken"
                % (k, lemma_bound), partial={"trace": partial_trace()})
        if k > config.outer_cap:
            raise BudgetExceededError(
                "outer cap %d exhausted" % config.outer_cap,
                partial={"trace": partial_trace()})

    trace = partial_trace()
    cert = certify(x, res.combination, problem, config, zeta=res.zeta,
                   rng=rng, anchor_values=(f_x, g_x))
    return cert, trace
