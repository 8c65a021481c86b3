"""goldsub benchmark: one closed-loop client, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload solve-rand --seed 1 --seconds 15 --trace 0

The workload's items are built from --seed. Whole passes over the items
repeat until --seconds have elapsed, then a correctness gate runs. The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import NOMINAL_KERNEL_S, Clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "goldsub"

# workload -> what one operation is, for the human-readable lines
WORKLOADS = {"solve-rand": "solve", "solve-bisect": "solve",
             "verify-certs": "verify", "reject-certs": "reject"}
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    if not (PACKAGE / "__init__.py").is_file():
        fail("no goldsub sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import goldsub
    if Path(goldsub.__file__).resolve().parent != PACKAGE.resolve():
        fail("imported goldsub from %s, not from this checkout" % goldsub.__file__)
    return goldsub


def machine_record() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s-%s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    lines = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    return ("nproc=%d python=%s numpy=%s blas=%s blas_threads=%s "
            "src_goldsub_lines=%d" % (
                len(os.sched_getaffinity(0)), platform.python_version(),
                np.__version__, blas, os.environ["OPENBLAS_NUM_THREADS"], lines))


def cli_startup(version: str) -> None:
    """Run `python -m goldsub.cli --version` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "goldsub.cli", "--version"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0 or done.stdout.strip() != version:
        fail("goldsub.cli --version failed: %r" % (done.stderr or done.stdout))


class Workload:
    """Items, the operation on one item and the gate on its first outcome."""

    def __init__(self, name: str, seed: int, clock: Clock):
        self.name = name
        self.seed = seed
        self.clock = clock
        self.setup_s, self.build_s, self.startup_s = [], [], []

    def _timed(self, fn, *args):
        clock = self.clock
        clock.calibrate()
        mark = clock.mark
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        clock.calibrate()
        return result, clock.scale(elapsed, mark)

    def setup(self):
        """Start the CLI once, build the corpus and the items; returns items."""
        _, startup = self._timed(cli_startup, goldsub.__version__)
        corpus, build = self._timed(workloads.build_corpus)
        items, rest = self._timed(self._items, corpus)
        self.startup_s.append(startup)
        self.build_s.append(build)
        self.setup_s.append(startup + build + rest)
        return items

    def _items(self, corpus):
        if self.name.startswith("solve-"):
            self.op, self.gate = workloads.solve_op, workloads.solve_gate
            return workloads.make_cells(corpus, self.name[len("solve-"):],
                                        self.seed)
        self.gate = workloads.check_gate
        if self.name == "verify-certs":
            self.op = workloads.CheckOp(corpus, fast=False)
            return workloads.make_pool(corpus, self.seed,
                                       workloads.VERIFY_POOL_SEEDS)
        self.op = workloads.CheckOp(corpus, fast=True)
        return workloads.tamper(workloads.make_pool(
            corpus, self.seed, workloads.REJECT_POOL_SEEDS), self.seed)


class Pass:
    """Scaled times of one pass over the items.

    The first pass keeps every outcome as the reference; later passes keep
    only the labels of items whose output differs from it, so memory does
    not grow with the number of passes.
    """

    def __init__(self, op, items, clock: Clock, reference=None):
        self.raw, self.marks = [], []
        self.outcomes, self.errors, self.changed = [], [], []
        for i, item in enumerate(items):
            clock.calibrate_if_due()
            self.marks.append(clock.mark)
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception:  # the loop must go on; the miss is reported
                out = None
                self.errors.append((item.label, traceback.format_exc()))
            self.raw.append(time.perf_counter() - t0)
            if reference is None:
                self.outcomes.append(out)
            elif out is not None and reference.outcomes[i] is not None \
                    and out.fingerprint() != reference.outcomes[i].fingerprint():
                self.changed.append(item.label)

    def scaled(self, clock: Clock) -> list[float]:
        return [clock.scale(t, m) for t, m in zip(self.raw, self.marks)]


def quantile(values, q: int) -> float:
    """q-th percentile (10, 50, 90) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def run(args) -> int:
    clock = Clock()
    workload = Workload(args.workload, args.seed, clock)
    for _ in range(SETUP_REPEATS):
        items = workload.setup()

    tracer = Tracer() if args.trace else None
    misses = []
    passes, traced = [], []
    reference = None
    started = time.perf_counter()
    while True:
        passes.append(Pass(workload.op, items, clock, reference))
        if reference is None:
            reference = passes[0]
            # the program's footprint: set-up and every item run once, before
            # the samples of later passes pile up
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
        if tracer is not None:
            before = tracer.snapshot_counts()
            with tracer.installed():
                traced.append(Pass(workload.op, items, clock, reference))
            after = tracer.snapshot_counts()
            step = {k: v - before.get(k, 0) for k, v in after.items()}
            if len(traced) == 1:
                first_step = step
            elif step != first_step:
                misses.append("counted metrics differ between traced passes")
        if time.perf_counter() - started >= args.seconds:
            break
    clock.calibrate()

    attempted = failed = 0
    for p in passes + traced:
        attempted += len(p.raw)
        failed += len(p.errors) + len(p.changed)
        for label, trace in p.errors:
            if not misses:
                print(trace, file=sys.stderr)
            misses.append("%s: %s" % (label, trace.strip().splitlines()[-1]))
        misses.extend("%s: output differs from the first pass" % label
                      for label in p.changed)

    digest = hashlib.sha256()
    tampered = rejected = 0
    for item, out in zip(items, reference.outcomes):
        if out is None:
            continue
        digest.update(out.fingerprint())
        item_misses = workload.gate(item, out)
        failed += bool(item_misses)
        misses.extend(item_misses)
        if getattr(item, "fault", None) is not None:
            tampered += 1
            rejected += not item_misses

    correct = failed == 0 and not misses
    setup_s = statistics.median(workload.setup_s)
    print("workload %s seed %d seconds %g trace %d items %d"
          % (args.workload, args.seed, args.seconds, args.trace, len(items)))
    print("machine %s" % machine_record())
    print("calibration kernel median %.4g ms over %d runs; times below are "
          "scaled to a %.4g ms kernel" % (1e3 * statistics.median(clock.kernel),
                                          len(clock.kernel),
                                          1e3 * NOMINAL_KERNEL_S))
    print("outputs_sha256 %s" % digest.hexdigest())
    for line in misses[:20]:
        print("MISS %s" % line)

    if tracer is None:
        per_item = [[] for _ in items]
        for p in passes:
            for i, t in enumerate(p.scaled(clock)):
                per_item[i].append(t)
        times = [statistics.median(ts) for ts in per_item]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": 1e3 * quantile(times, 50),
            "op_ms_p90": 1e3 * quantile(times, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = WORKLOADS[args.workload]
        raw = [t for p in passes for t in p.raw]
        print("%s_per_s %.6g 1/s (unscaled over all samples %.6g)"
              % (kind, metrics["ops_per_s"], len(raw) / sum(raw)))
        for q in (50, 90):
            print("%s_ms_p%d %.6g ms (over %d item medians of %d samples each)"
                  % (kind, q, metrics["op_ms_p%d" % q], len(items),
                     len(passes)))
        if kind == "solve":
            calls = [out.trace.oracle_calls for out in reference.outcomes if out]
            if calls:
                print("oracle_calls_per_solve %.6g calls"
                      % (sum(calls) / len(calls)))
    else:
        ops = sum(len(p.raw) for p in traced)
        metrics = tracer.layer_metrics(ops, clock.run_factor())
        metrics["verify.reject_correct_ratio"] = (rejected / tampered
                                                  if tampered else 0.0)
        metrics["problems.build_ms"] = 1e3 * statistics.median(workload.build_s)
        metrics["cli.startup_ms"] = 1e3 * statistics.median(workload.startup_s)
        metrics["trace.overhead_ratio"] = (
            sum(sum(p.scaled(clock)) for p in traced)
            / sum(sum(p.scaled(clock)) for p in passes))
    print("setup_s %.6g s (median of %d)" % (setup_s, len(workload.setup_s)))
    print("fail_ratio %.6g (%d/%d)" % (failed / attempted, failed, attempted))
    # names and units, in their order in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if tracer else "end_to_end"]
    for m in section:
        print("metric %s %.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    goldsub = load_package()
    # these import goldsub, so they come after the checkout is on the path
    import workloads  # noqa: E402
    from tracer import Tracer  # noqa: E402
    sys.exit(run(ARGS))
