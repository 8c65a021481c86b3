"""Command-line front end: solve, verify, and bench subcommands.

Documents are JSON (see serialize).  Exit codes are stable:

    0  success
    2  usage or configuration error, an output path that cannot be
       written, or a request too large to allocate
    3  call budget or iteration cap exhausted
    4  infeasible starting point
    5  oracle returned non-finite or malformed output
    6  certificate failed verification (by verify, or by certify in solve)
    7  certificate corrupt (stored vectors disagree with recomputation)
    8  bisection step cap exhausted (nonconvexity metadata understated)

The default output directory is --out-dir, then $GOLDSUB_OUT_DIR, then the
working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (BudgetExceededError, CertificationError, GoldsubError,
                     InfeasibleStartError, ModulusError, OracleError,
                     UsageError)
from .problems import get_problem, list_problems
from .serialize import (_CONFIG_TYPES, _expect, certificate_data,
                        certificate_from_data, config_from_data, manifest_data,
                        read_json, trace_data, write_json, write_text)
from .solver import BISECT, RAND, solve
from .verify import check_certificate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INFEASIBLE = 4
EXIT_ORACLE = 5
EXIT_VERIFY_FAILED = 6
EXIT_CORRUPT = 7
EXIT_MODULUS = 8


def _out_dir(arg: str | None) -> str:
    return arg or os.environ.get("GOLDSUB_OUT_DIR") or "."


def _writable_dir(path: str) -> str:
    """``path``, if its nearest existing ancestor is a directory; checked
    before any solve, creating nothing."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise UsageError("cannot write %s: %s is not a directory" % (path, probe))
    return path


def _parse_params(texts) -> dict:
    """--param KEY=VALUE pairs; a value is JSON where it parses as JSON."""
    params = {}
    for text in texts or ():
        key, sep, raw = text.partition("=")
        if not sep:
            raise UsageError("--param expects KEY=VALUE, got %r" % text)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _parse_x0(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError("--x0 expects comma-separated reals, got %r" % text) from None


def _problem_from_spec(entry) -> tuple[str, dict]:
    if isinstance(entry, str):
        return entry, {}
    if isinstance(entry, dict) and "name" in entry \
            and isinstance(entry.get("params", {}), dict):
        return str(entry["name"]), dict(entry.get("params", {}))
    raise UsageError("problem entries must be a name or {name, params}")


# a --config file's keys: a job's, then the rest of a manifest's (unread)
_JOB_KEYS = frozenset({"problem", "config", "x0",
                       "schema", "version", "seed", "created"})


def _resolve_solve_inputs(args):
    """(record, config, x0) of a solve; x0 is None for the corpus start."""
    file_data = _expect(read_json(args.config), dict, "config file") \
        if args.config else {}
    extra = set(file_data) - _JOB_KEYS
    if extra:
        raise UsageError("unknown config file keys: %s" % ", ".join(sorted(extra)))
    name, params = None, {}
    if "problem" in file_data:
        name, params = _problem_from_spec(file_data["problem"])
    if args.problem:
        name = args.problem
    params.update(_parse_params(args.param))
    if name is None:
        raise UsageError("no problem given; use --problem or a config file "
                         "(registered: %s)" % ", ".join(list_problems()))

    record = get_problem(name, **params)

    config_map = dict(_expect(file_data.get("config", {}), dict, "config"))
    # each solve flag's dest is its SolverConfig field
    config_map.update((key, value) for key, value in vars(args).items()
                      if key in _CONFIG_TYPES and value is not None)
    config = config_from_data(config_map)
    x0 = None
    if args.x0 is not None:
        x0 = _parse_x0(args.x0)
    elif "x0" in file_data:
        x0 = [float(_expect(v, float, "x0 entry"))
              for v in _expect(file_data["x0"], list, "x0")]
    return record, config, x0


def cmd_solve(args) -> int:
    tag = args.tag
    if tag is not None and (tag in (".", "..") or os.path.basename(tag) != tag):
        raise UsageError("--tag must be a file basename inside --out-dir, "
                         "got %r" % tag)
    record, config, x0 = _resolve_solve_inputs(args)
    out = _writable_dir(_out_dir(args.out_dir))
    tag = tag or "%s-%s-d%g-e%g-s%d" % (
        record.name, config.inner, config.delta, config.target_eps, config.seed)
    manifest = manifest_data(record.name, record.params, config, __version__,
                             x0=x0)

    try:
        cert, trace = solve(record.spec, config, record.start if x0 is None else x0)
    except BudgetExceededError as err:
        partial = err.partial or {}
        if "trace" in partial:
            path = os.path.join(out, tag + ".partial-trace.json")
            write_json(path, trace_data(partial["trace"], manifest))
            print("budget exhausted; partial trace written to %s" % path,
                  file=sys.stderr)
        raise

    cert_path = os.path.join(out, tag + ".cert.json")
    trace_path = os.path.join(out, tag + ".trace.json")
    manifest_path = os.path.join(out, tag + ".manifest.json")
    write_json(cert_path, certificate_data(cert, manifest))
    write_json(trace_path, trace_data(trace, manifest))
    write_json(manifest_path, manifest_data(record.name, record.params, config,
                                            __version__, created=True, x0=x0))

    lam = "undefined" if cert.lam is None else "%.6g" % cert.lam
    print("problem %s  inner=%s  delta=%g  eps_effective=%.6g"
          % (record.name, config.inner, config.delta, cert.eps_effective))
    print("stationary after %d outer steps, %d oracle calls, %d value calls, %.3fs"
          % (trace.outer_steps, trace.oracle_calls, trace.value_calls,
             trace.wall_time_s))
    print("f = %.9g  g = %.9g  ||zeta|| = %.6g  gamma0 = %.6g  lambda = %s"
          % (cert.f_anchor, cert.g_anchor, cert.zeta_norm, cert.gamma0, lam))
    for warning in cert.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    print("certificate: %s" % cert_path)
    print("trace:       %s" % trace_path)
    print("manifest:    %s" % manifest_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    data = read_json(args.certificate)
    cert, manifest = certificate_from_data(data)
    if args.problem:
        name, params = args.problem, _parse_params(args.param)
    elif manifest and "problem" in manifest:
        name, params = _problem_from_spec(manifest["problem"])
    else:
        raise UsageError("certificate has no embedded manifest; "
                         "pass --problem (and --param) explicitly")
    record = get_problem(name, **params)

    report = check_certificate(cert, record.spec, samples=args.samples,
                               seed=args.seed, stop_at_first_failure=args.fast)
    for check in report.checks:
        print("%s  %-24s %s" % ("PASS" if check.passed else "FAIL",
                                check.name, check.detail))
    if report.passed:
        print("certificate OK (%d checks)" % len(report.checks))
        return EXIT_OK
    print("certificate REJECTED: %s" % report.reason, file=sys.stderr)
    return EXIT_CORRUPT if report.corrupt else EXIT_VERIFY_FAILED


def _grid_cell(cell) -> tuple[float, float]:
    """(delta, eps) of a suite grid cell."""
    cell = _expect(cell, dict, "grid cell")
    return tuple(float(_expect(cell.get(key), float, "grid cell " + key))
                 for key in ("delta", "eps"))


def cmd_bench(args) -> int:
    suite = _expect(read_json(args.suite), dict, "suite")
    problems = _expect(suite.get("problems", []), list, "suite problems")
    if not problems:
        raise UsageError("suite needs a nonempty 'problems' list")
    inners = _expect(suite.get("inners", [RAND]), list, "suite inners")
    seeds = _expect(suite.get("seeds", [0]), int | list, "suite seeds")
    if type(seeds) is int:
        if seeds < 0:
            raise UsageError("suite seeds count must be nonnegative")
        seeds = list(range(seeds))
    grid = [_grid_cell(cell) for cell in _expect(
        suite.get("grid", [{"delta": 0.05, "eps": 0.05}]), list, "suite grid")]
    base_config = _expect(suite.get("config", {}), dict, "suite config")
    # every input is checked before the first cell runs
    records = [(name, params, get_problem(name, **params))
               for name, params in map(_problem_from_spec, problems)]
    configs = [config_from_data({**base_config, "delta": delta,
                                 "target_eps": eps, "inner": inner,
                                 "seed": seed})
               for inner in inners for delta, eps in grid for seed in seeds]

    out = _writable_dir(_out_dir(args.out_dir))
    series_dir = _writable_dir(os.path.join(out, "series"))

    rows = []
    failures = 0
    for name, params, record in records:
        for config in configs:
            cell_id = "%s-%s-d%g-e%g-s%d" % (
                name, config.inner, config.delta, config.target_eps, config.seed)
            row = {"problem": name, "params": params, "inner": config.inner,
                   "seed": config.seed, "delta": config.delta,
                   "eps": config.target_eps, "cell": cell_id}
            started = time.perf_counter()
            try:
                cert, trace = solve(record.spec, config, record.start)
            except GoldsubError as err:
                failures += 1
                row.update(status=type(err).__name__, error=str(err))
                rows.append(row)
                continue
            budget = trace.inner_budget
            max_inner = max(r["inner_oracle_calls"] for r in trace.records)
            row.update(
                status="ok",
                outer_steps=trace.outer_steps,
                lemma_bound=trace.lemma_bound,
                lemma_ratio=(None if trace.lemma_bound is None
                             else trace.outer_steps / trace.lemma_bound),
                oracle_calls=trace.oracle_calls,
                value_calls=trace.value_calls,
                inner_budget=budget,
                max_inner_calls=max_inner,
                budget_ratio=None if budget is None else max_inner / budget,
                f_final=cert.f_anchor, g_final=cert.g_anchor,
                zeta_norm=cert.zeta_norm, gamma0=cert.gamma0,
                wall_s=time.perf_counter() - started,
            )
            rows.append(row)
            lines = ["k,f,g,zeta_norm"]
            lines += ["%d,%.17g,%.17g,%.17g"
                      % (r["k"], r["f"], r["g"], r["zeta_norm"])
                      for r in trace.records]
            write_text(os.path.join(series_dir, cell_id + ".csv"),
                       "\n".join(lines) + "\n")

    write_json(os.path.join(out, "bench-summary.json"),
               {"schema": "goldsub.bench/1", "rows": rows})

    header = ("problem", "inner", "seed", "delta", "eps", "steps",
              "lemma", "calls", "budget-ratio", "status")
    table = [header]
    for row in rows:
        table.append((
            row["problem"], row["inner"], str(row["seed"]),
            "%g" % row["delta"], "%g" % row["eps"],
            str(row.get("outer_steps", "-")),
            "-" if row.get("lemma_bound") is None else str(row["lemma_bound"]),
            str(row.get("oracle_calls", "-")),
            "-" if row.get("budget_ratio") is None
            else "%.3f" % row["budget_ratio"],
            row["status"],
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    print("%d cells, %d failed; summary in %s"
          % (len(rows), failures, os.path.join(out, "bench-summary.json")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldsub",
        description="Feasible descent for Lipschitz objectives under "
                    "Lipschitz inequality constraints, with checkable "
                    "stationarity certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver and write certificate + trace")
    ps.add_argument("--config", help="JSON config file")
    ps.add_argument("--problem", help="registered problem name")
    ps.add_argument("--param", action="append",
                    help="problem parameter KEY=VALUE (repeatable)")
    ps.add_argument("--x0", help="comma-separated starting point")
    ps.add_argument("--delta", type=float)
    ps.add_argument("--eps", type=float, dest="target_eps", metavar="EPS",
                    help="target stationarity tolerance")
    ps.add_argument("--inner", choices=(RAND, BISECT))
    ps.add_argument("--seed", type=int)
    ps.add_argument("--tau", type=float,
                    help="total failure probability for the randomized search")
    ps.add_argument("--kkt", action="store_const", const=True, default=None,
                    dest="kkt_mode", help="run in KKT mode (requires --sigma)")
    ps.add_argument("--sigma", type=float, dest="gcq_sigma", metavar="SIGMA",
                    help="constraint qualification level for KKT mode")
    ps.add_argument("--outer-cap", type=int)
    ps.add_argument("--call-cap", type=int, dest="inner_call_cap",
                    metavar="CALL_CAP", help="inner oracle-call cap")
    ps.add_argument("--out-dir")
    ps.add_argument("--tag", help="output file basename: no path separator, "
                                   "not . or ..")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="re-check a certificate from scratch")
    pv.add_argument("certificate", help="certificate JSON file")
    pv.add_argument("--problem", help="problem name when no manifest is embedded")
    pv.add_argument("--param", action="append",
                    help="problem parameter KEY=VALUE (repeatable)")
    pv.add_argument("--samples", type=int, default=10_000,
                    help="ball samples of both sampled checks: the slackness "
                         "check reads all of them, the estimate stops at the "
                         "first of 64, 128, 256, ... that passes (default "
                         "10000)")
    pv.add_argument("--seed", type=int, default=0,
                    help="both sampled checks draw from stream SEED + 1 "
                         "(default 0)")
    pv.add_argument("--fast", action="store_true",
                    help="stop at the first failed check")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="run a problems x inners x seeds x grid suite")
    pb.add_argument("--suite", required=True, help="suite JSON file")
    pb.add_argument("--out-dir")
    pb.set_defaults(func=cmd_bench)
    return parser


# exit code of each error reported without a traceback, subclasses first
_EXIT_CODES = ((InfeasibleStartError, EXIT_INFEASIBLE), (ModulusError, EXIT_MODULUS),
               (BudgetExceededError, EXIT_BUDGET), (OracleError, EXIT_ORACLE),
               (UsageError, EXIT_USAGE), (CertificationError, EXIT_VERIFY_FAILED),
               (MemoryError, EXIT_USAGE))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as err:
        print("error: %s" % (str(err) or "out of memory"), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
