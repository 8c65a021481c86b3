"""Workload inputs, operations and correctness gates.

Every workload is a fixed list of items built from the workload seed; one
operation runs one item through the package's public calls. The runner
cycles whole passes over the list, so every item carries the same weight in
every percentile.

The module-level names ``solve``, ``check_certificate``, ``encode`` and
``decode`` are looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from goldsub import __version__
from goldsub.problems import ball_linear_sigma, get_problem
from goldsub.serialize import (certificate_data, certificate_from_data, dumps,
                               manifest_data, trace_data)
from goldsub.solver import BISECT, RAND, SolverConfig, solve
from goldsub.verify import check_certificate

DELTA = 0.05
EPS = 0.05

# the acceptance members: registry defaults plus the ten-dimensional ones
MEMBERS = (
    ("ball-linear", {}),
    ("l1-ball", {}),
    ("footnote-1d", {}),
    ("footnote-2c", {}),
    ("pl-nonconvex", {}),
    ("ball-linear", {"dim": 10}),
    ("pl-nonconvex", {"dim": 10}),
)
KKT_MEMBER = 0  # ball-linear, also solved in KKT mode

# Solve workloads: four seeds per acceptance member and one KKT cell. The odd
# cell count keeps the median inside one member's cluster of solve times
# instead of on the gap between two clusters.
SOLVE_SEEDS_PER_MEMBER = 4
# Verify workloads: solver seeds per member and search behind the pool. A
# rejection takes well under a millisecond and its cost follows the size of
# the document, which the seed changes, so reject-certs draws more of them.
VERIFY_POOL_SEEDS = 1
REJECT_POOL_SEEDS = 8

# faults of acceptance criterion 10: (kind, expected reason, corrupt flag)
FAULTS = (
    ("weight", "weights-sum", False),
    ("anchor", "points-in-ball", False),
    ("vector", "vector-recompute", True),
)


def problem_key(name: str, params: dict) -> str:
    return name + json.dumps(params, sort_keys=True)


def build_corpus() -> list:
    """Problem records of the acceptance members, in MEMBERS order."""
    return [get_problem(name, **params) for name, params in MEMBERS]


@dataclass(frozen=True)
class Cell:
    """One solve: a corpus record and the configuration it runs under."""

    label: str
    record: object
    config: SolverConfig


def make_cells(corpus: list, inner: str, seed: int,
               seeds_per_member: int = SOLVE_SEEDS_PER_MEMBER) -> list[Cell]:
    rng = np.random.default_rng([seed, 0 if inner == RAND else 1])
    cells = []
    for record in corpus:
        label = problem_key(record.name, record.params)
        for s in rng.integers(0, 2**31 - 1, size=seeds_per_member):
            config = SolverConfig(delta=DELTA, target_eps=EPS, inner=inner,
                                  seed=int(s))
            cells.append(Cell(label, record, config))
    kkt = corpus[KKT_MEMBER]
    config = SolverConfig(delta=DELTA, target_eps=EPS, inner=inner,
                          seed=int(rng.integers(0, 2**31 - 1)), kkt_mode=True,
                          gcq_sigma=ball_linear_sigma(DELTA))
    cells.append(Cell(problem_key(kkt.name, kkt.params) + "-kkt", kkt, config))
    return cells


def encode(cell: Cell, cert, trace) -> tuple[bytes, bytes]:
    """Certificate and trace documents, as `goldsub solve` writes them."""
    manifest = manifest_data(cell.record.name, cell.record.params, cell.config,
                             __version__)
    return (dumps(certificate_data(cert, manifest)).encode(),
            dumps(trace_data(trace, manifest)).encode())


def decode(doc: bytes):
    """(certificate, embedded manifest) from certificate bytes."""
    return certificate_from_data(json.loads(doc))


@dataclass
class SolveOutcome:
    cert: object
    trace: object
    cert_bytes: bytes
    trace_bytes: bytes

    def fingerprint(self) -> bytes:
        return self.cert_bytes + self.trace_bytes


def solve_op(cell: Cell) -> SolveOutcome:
    cert, trace = solve(cell.record.spec, cell.config, cell.record.start)
    return SolveOutcome(cert, trace, *encode(cell, cert, trace))


def failed_checks(label: str, report, dim: int) -> list[str]:
    """Failed checks of a report; as in acceptance criterion 5, the sampled
    estimate is required only where dim <= 2."""
    return ["%s: check %s failed: %s" % (label, c.name, c.detail)
            for c in report.checks
            if not c.passed
            and not (c.name == "stationarity-estimate" and dim > 2)]


def solve_gate(cell: Cell, out: SolveOutcome) -> list[str]:
    """Criteria 1, 2 and 5 on one solve."""
    spec = cell.record.spec
    misses = failed_checks(cell.label, check_certificate(out.cert, spec),
                           spec.dim)
    trace = out.trace
    bar = trace.descent_fraction * trace.delta * trace.eps_effective
    for before, after in zip(trace.records, trace.records[1:]):
        if before["f"] - after["f"] < bar - 1e-12:
            misses.append("%s: step %d descends less than C*delta*eps"
                          % (cell.label, before["k"]))
        if after["g"] > -bar + 1e-12:
            misses.append("%s: step %d lands above -C*delta*eps"
                          % (cell.label, before["k"]))
    if trace.lemma_bound is None or trace.outer_steps > trace.lemma_bound:
        misses.append("%s: %d outer steps against lemma bound %s"
                      % (cell.label, trace.outer_steps, trace.lemma_bound))
    return misses


@dataclass(frozen=True)
class Document:
    """A certificate document and the verdict `goldsub verify` must give it."""

    label: str
    doc: bytes
    dim: int
    fault: str | None = None
    reason: str | None = None
    corrupt: bool = False


def make_pool(corpus: list, seed: int, seeds_per_member: int) -> list[Document]:
    """Certificates from both searches over every member and the KKT cell."""
    pool = []
    for inner in (RAND, BISECT):
        for cell in make_cells(corpus, inner, seed, seeds_per_member):
            cert, trace = solve(cell.record.spec, cell.config, cell.record.start)
            cert_bytes, _ = encode(cell, cert, trace)
            pool.append(Document("%s-%s" % (cell.label, inner), cert_bytes,
                                 cell.record.spec.dim))
    return pool


def _unit(rng, dim: int) -> np.ndarray:
    u = rng.standard_normal(dim)
    return u / float(np.linalg.norm(u))


def tamper(pool: list[Document], seed: int) -> list[Document]:
    """Each document once per criterion-10 fault."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for item in pool:
        for kind, reason, corrupt in FAULTS:
            data = json.loads(item.doc)
            combo = data["combination"]
            if kind == "weight":
                combo[int(rng.integers(len(combo)))]["weight"] += 0.1
            elif kind == "anchor":
                shift = 2.0 * data["delta"] * _unit(rng, item.dim)
                data["anchor"] = np.asarray(data["anchor"]) + shift
            else:
                entry = combo[int(rng.integers(len(combo)))]
                entry["vector"] = (np.asarray(entry["vector"])
                                   + 1e-3 * _unit(rng, item.dim))
            out.append(Document("%s-%s" % (item.label, kind),
                                dumps(data).encode(), item.dim, kind, reason,
                                corrupt))
    return out


@dataclass
class CheckOutcome:
    report: object

    def fingerprint(self) -> bytes:
        return json.dumps([[c.name, c.passed, c.detail]
                           for c in self.report.checks]).encode()


class CheckOp:
    """Decode a document, find its problem from the embedded manifest, and
    check it at the `goldsub verify` defaults (``fast`` adds --fast)."""

    def __init__(self, corpus: list, fast: bool):
        self.problems = {problem_key(r.name, r.params): r.spec for r in corpus}
        self.fast = fast

    def __call__(self, item: Document) -> CheckOutcome:
        cert, manifest = decode(item.doc)
        problem = manifest["problem"]
        spec = self.problems[problem_key(problem["name"], problem["params"])]
        return CheckOutcome(check_certificate(
            cert, spec, stop_at_first_failure=self.fast))


def check_gate(item: Document, out: CheckOutcome) -> list[str]:
    report = out.report
    if item.fault is not None:
        if report.passed or report.reason != item.reason \
                or report.corrupt is not item.corrupt:
            return ["%s: expected rejection %s (corrupt=%s), got %s (corrupt=%s)"
                    % (item.label, item.reason, item.corrupt, report.reason,
                       report.corrupt)]
        return []
    return failed_checks(item.label, report, item.dim)
