"""Layer tracing from outside the package.

Wrappers replace each name where the caller looks it up and are restored on
exit. Cold calls (searches, certify, verification, serialisation) open a
span; a span's self time is its duration minus its child spans and the hot
calls made directly under it. Hot core calls (oracle evaluations, ball
samples) only add to a count and a busy time, and to the enclosing span's
child time; no per-call record is kept.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import goldsub.core as core
import goldsub.inner_bisect as inner_bisect
import goldsub.inner_rand as inner_rand
import goldsub.solver as solver
import goldsub.verify as verify
from goldsub.inner_bisect import bisect_call_budget
from goldsub.inner_rand import DESCENT, rand_call_budget

import workloads

# hot calls: (owner, attribute, stat name); both Subproblem subgradient
# methods count as one joint subgradient call
HOT = (
    (core.Subproblem, "grad", "core.grad"),
    (core.Subproblem, "dir_grad", "core.grad"),
    (core.Subproblem, "value_full", "core.value"),
    (core.ReducedConstraint, "value", "core.constraint_value"),
    (inner_rand, "sample_ball", "core.sample_ball"),
    (solver, "sample_ball", "core.sample_ball"),
    (verify, "sample_ball", "core.sample_ball"),
)


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self):
        self.hot = defaultdict(lambda: [0, 0.0])          # calls, busy s
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # calls, busy s, self s
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self._stack = [[0.0]]  # child time of each open span
        self._in_hot = False
        self._inner_calls: list[int] = []

    # -- wrappers -----------------------------------------------------------

    def _hot_wrapper(self, stat, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_hot:  # nested: already charged to the outer call
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += perf_counter() - t0
            tracer._in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_hot = False
                stat[0] += 1
                stat[1] += dt
                tracer._stack[-1][0] += dt
        return wrapper

    def _span_wrapper(self, stat, fn, observe):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if observe is not None:
                observe(result, *args, **kwargs)
            return result
        return wrapper

    # -- observers: outcomes the metrics need -------------------------------

    def _on_rand(self, res, *args, **kwargs):
        self.counts["inner_rand.rounds"] += res.iterations
        self.counts["inner_rand.descents"] += res.outcome == DESCENT
        self._inner_calls.append(res.oracle_calls)

    def _on_bisect(self, res, *args, **kwargs):
        self.counts["inner_bisect.probe_ties"] += res.probe_ties
        self._inner_calls.append(res.oracle_calls)

    def _on_probe(self, result, *args, **kwargs):
        self.counts["inner_bisect.probes"] += result[4]

    def _on_solve(self, result, spec, config, x0):
        _, trace = result
        self.counts["solver.outer_steps"] += trace.outer_steps
        self.counts["solver.oracle_calls"] += trace.oracle_calls
        self.maxima["solver.lemma_ratio_max"] = max(
            self.maxima["solver.lemma_ratio_max"],
            trace.outer_steps / trace.lemma_bound)
        m = spec.lipschitz_m
        if config.inner == solver.RAND:
            layer = "inner_rand"
            budget = rand_call_budget(m, trace.eps_effective, trace.tau_prime)
        else:
            layer = "inner_bisect"
            budget = bisect_call_budget(
                m, trace.eps_effective, spec.nonconvexity_f + spec.nonconvexity_g)
        key = layer + ".budget_ratio_max"
        self.maxima[key] = max(self.maxima[key],
                               max(self._inner_calls) / budget)
        self._inner_calls = []

    def _on_hull(self, estimate, *args, **kwargs):
        self.counts["verify.hull_support"] += len(estimate.support_indices)

    def _on_encode(self, result, *args, **kwargs):
        self.counts["serialize.cert_bytes"] += len(result[0])
        self.counts["serialize.cert_docs"] += 1

    def _on_decode(self, result, doc):
        self.counts["serialize.cert_bytes"] += len(doc)
        self.counts["serialize.cert_docs"] += 1

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        spans = (
            (workloads, "solve", "solver.solve", self._on_solve),
            (workloads, "encode", "serialize.encode", self._on_encode),
            (workloads, "decode", "serialize.decode", self._on_decode),
            (workloads, "check_certificate", "verify.check_certificate", None),
            (solver, "rand_search", "inner_rand.rand_search", self._on_rand),
            (solver, "bisect_search", "inner_bisect.bisect_search",
             self._on_bisect),
            (solver, "certify", "solver.certify", None),
            (inner_bisect, "bisect_negative_slope",
             "inner_bisect.bisect_negative_slope", self._on_probe),
            (verify, "goldstein_estimate", "verify.goldstein_estimate", None),
            (verify, "min_norm_over_hull", "verify.min_norm_over_hull",
             self._on_hull),
        )
        saved = []
        try:
            for owner, attr, name, observe in spans:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(
                    self.spans[name], original, observe))
            for owner, attr, name in HOT:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._hot_wrapper(self.hot[name], original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def snapshot_counts(self) -> dict:
        """Every exact count, for the between-pass determinism check."""
        out = {name: stat[0] for name, stat in self.hot.items()}
        out.update({name: stat[0] for name, stat in self.spans.items()})
        out.update(self.counts)
        return out

    def layer_metrics(self, ops: int, speed: float) -> dict:
        """Per-layer metrics, normalised per operation where they are totals.

        Times are multiplied by ``speed``, the clock's scale for this run. A
        layer the workload does not reach reports 0.
        """
        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        ms, us = 1e3 * speed, 1e6 * speed

        hot, spans, counts = self.hot, self.spans, self.counts
        out = {}
        for name in ("grad", "value", "constraint_value", "sample_ball"):
            calls, busy = hot["core." + name]
            out["core.%s_calls" % name] = per(calls, ops)
            out["core.%s_us" % name] = per(busy, calls, us)

        rand = spans["inner_rand.rand_search"]
        out["inner_rand.calls"] = per(rand[0], ops)
        out["inner_rand.self_ms"] = per(rand[2], ops, ms)
        out["inner_rand.rounds"] = per(counts["inner_rand.rounds"], ops)
        out["inner_rand.descent_ratio"] = per(counts["inner_rand.descents"],
                                              rand[0])
        out["inner_rand.budget_ratio_max"] = \
            self.maxima["inner_rand.budget_ratio_max"]

        bis = spans["inner_bisect.bisect_search"]
        probe = spans["inner_bisect.bisect_negative_slope"]
        out["inner_bisect.calls"] = per(bis[0], ops)
        out["inner_bisect.self_ms"] = per(bis[2] + probe[2], ops, ms)
        out["inner_bisect.probes"] = per(counts["inner_bisect.probes"], ops)
        out["inner_bisect.probe_ties"] = per(counts["inner_bisect.probe_ties"], ops)
        out["inner_bisect.budget_ratio_max"] = \
            self.maxima["inner_bisect.budget_ratio_max"]

        solve, cert = spans["solver.solve"], spans["solver.certify"]
        out["solver.self_ms"] = per(solve[2], solve[0], ms)
        out["solver.outer_steps"] = per(counts["solver.outer_steps"], solve[0])
        out["solver.oracle_calls_per_solve"] = per(counts["solver.oracle_calls"],
                                                   solve[0])
        out["solver.lemma_ratio_max"] = self.maxima["solver.lemma_ratio_max"]
        out["solver.certify_ms"] = per(cert[1], cert[0], ms)
        out["solver.certify_share"] = per(cert[1], solve[1])

        check = spans["verify.check_certificate"]
        est = spans["verify.goldstein_estimate"]
        hull = spans["verify.min_norm_over_hull"]
        out["verify.check_self_ms"] = per(check[1] - est[1], check[0], ms)
        out["verify.estimate_ms"] = per(est[1], est[0], ms)
        out["verify.hull_ms"] = per(hull[1], hull[0], ms)
        out["verify.hull_support"] = per(counts["verify.hull_support"], hull[0])

        enc, dec = spans["serialize.encode"], spans["serialize.decode"]
        out["serialize.encode_us"] = per(enc[1], enc[0], us)
        out["serialize.decode_us"] = per(dec[1], dec[0], us)
        out["serialize.cert_bytes"] = per(counts["serialize.cert_bytes"],
                                          counts["serialize.cert_docs"])
        return out
