"""The benchmark tracer's patch names exist in the package.

``perfbench/tracer.py`` wraps package names found by ``vars(owner)[attr]``;
a refactor that drops or moves one of them must fail here, not only in a
traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import goldsub.inner_rand as inner_rand
import goldsub.solver as solver
from goldsub.problems import get_problem
from goldsub.solver import BISECT, RAND, SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)


def test_tracer_installs_and_restores_its_names(tracer_module):
    tracer = tracer_module.Tracer()
    names = [(owner, attr) for owner, attr, _ in tracer_module.HOT] + [
        (solver, "rand_search"), (solver, "bisect_search"), (solver, "certify")]
    before = [vars(owner)[attr] for owner, attr in names]
    workloads = sys.modules["workloads"]
    record = get_problem("ball-linear")
    with tracer.installed():
        assert all(vars(owner)[attr] is not fn
                   for (owner, attr), fn in zip(names, before))
        for inner in (RAND, BISECT):
            workloads.solve(record.spec, SolverConfig(
                delta=0.05, target_eps=0.05, inner=inner), record.start)
    assert [vars(owner)[attr] for owner, attr in names] == before
    assert solver.rand_search is inner_rand.rand_search
    counts = tracer.snapshot_counts()
    for name in ("core.grad", "core.value", "core.constraint_value",
                 "core.sample_ball", "inner_rand.rand_search",
                 "inner_bisect.bisect_search",
                 "inner_bisect.bisect_negative_slope", "inner_bisect.probes",
                 "solver.certify", "solver.solve"):
        assert counts[name] > 0, name


def test_traced_bisect_solve_counts_every_subgradient_call(tracer_module):
    # the opening query at a strictly feasible anchor reads no value, but it
    # is still one subgradient call, and the tracer must see it as one
    tracer = tracer_module.Tracer()
    workloads = sys.modules["workloads"]
    record = get_problem("pl-nonconvex")
    with tracer.installed():
        _, trace = workloads.solve(record.spec, SolverConfig(
            delta=0.05, target_eps=0.05, inner=BISECT), record.start)
    assert trace.outer_steps > 1
    assert tracer.snapshot_counts()["core.grad"] == trace.oracle_calls


@pytest.mark.parametrize("inner", [RAND, BISECT])
@pytest.mark.parametrize("name, params", [
    ("ball-linear", {}), ("pl-nonconvex", {"dim": 10}), ("footnote-2c", {})])
def test_traced_constraint_reads_match_the_trace_counters(tracer_module, inner,
                                                          name, params):
    # every constraint read, of value_full, grad and dir_grad and of the
    # start's feasibility check, goes through ReducedConstraint.value, which
    # the tracer wraps; each bisect search's opening dir_grad, at its
    # strictly feasible anchor, reads nothing, so a bisect solve's reads are
    # its calls less one per search
    tracer = tracer_module.Tracer()
    workloads = sys.modules["workloads"]
    record = get_problem(name, **params)
    with tracer.installed():
        _, trace = workloads.solve(record.spec, SolverConfig(
            delta=0.05, target_eps=0.05, inner=inner), record.start)
    reads = tracer.snapshot_counts()["core.constraint_value"]
    if inner == RAND:
        assert reads == trace.oracle_calls + trace.value_calls
    else:
        assert reads == (trace.oracle_calls + trace.value_calls
                         - len(trace.records))
    assert reads > 0


@pytest.mark.parametrize("name, params", [
    ("pl-nonconvex", {"dim": 10}), ("footnote-2c", {}), ("ball-linear", {})])
def test_traced_probes_match_the_trace_records(tracer_module, name, params):
    # the tracer reads the probe count at index 4 of bisect_negative_slope's
    # tuple: each search makes one opening call and then one call per probe,
    # and runs one bisection per round
    tracer = tracer_module.Tracer()
    workloads = sys.modules["workloads"]
    record = get_problem(name, **params)
    with tracer.installed():
        _, trace = workloads.solve(record.spec, SolverConfig(
            delta=0.05, target_eps=0.05, inner=BISECT), record.start)
    counts = tracer.snapshot_counts()
    assert counts["inner_bisect.probes"] == sum(
        r["inner_oracle_calls"] - 1 for r in trace.records)
    assert counts["inner_bisect.bisect_negative_slope"] == sum(
        r["inner_iterations"] for r in trace.records)
    assert counts["inner_bisect.probes"] >= 1
