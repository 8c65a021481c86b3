"""End-to-end command-line behavior: exit codes, documents, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsub import solver, verify
from goldsub.cli import (
    EXIT_BUDGET,
    EXIT_CORRUPT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from goldsub.errors import CertificationError
from goldsub.problems import ball_linear_sigma
from goldsub.serialize import read_json

SOLVE = ["solve", "--problem", "ball-linear", "--delta", "0.05",
         "--eps", "0.05", "--inner", "rand", "--seed", "7"]
FAST_VERIFY = ["--samples", "1000"]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    rc = main(SOLVE + ["--out-dir", str(out), "--tag", "run"])
    assert rc == EXIT_OK
    return out


def rewrite(src, dst, mutate):
    data = read_json(str(src))
    mutate(data)
    dst.write_text(json.dumps(data))
    return str(dst)


# ------------------------------------------------------------------- solve


def test_solve_writes_all_three_documents(solved, capsys):
    for suffix in (".cert.json", ".trace.json", ".manifest.json"):
        assert (solved / ("run" + suffix)).exists()
    cert = read_json(str(solved / "run.cert.json"))
    assert cert["schema"] == "goldsub.certificate/1"
    assert cert["zeta_norm"] <= 0.05
    assert cert["manifest"]["problem"]["name"] == "ball-linear"
    assert "created" not in cert["manifest"]
    assert "created" in read_json(str(solved / "run.manifest.json"))


def test_solve_default_tag_names_the_run(tmp_path):
    rc = main(SOLVE + ["--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "ball-linear-rand-d0.05-e0.05-s7.cert.json").exists()


def test_solve_default_tag_names_the_given_params(tmp_path):
    rc = main(SOLVE + ["--param", "dim=3", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "ball-linear-rand-d0.05-e0.05-s7-dim3.cert.json").exists()


def test_solve_repeats_are_byte_identical(solved, tmp_path):
    rc = main(SOLVE + ["--out-dir", str(tmp_path), "--tag", "run"])
    assert rc == EXIT_OK
    for doc in ("run.cert.json", "run.trace.json"):
        assert (tmp_path / doc).read_bytes() == (solved / doc).read_bytes()
    first = read_json(str(solved / "run.manifest.json"))
    second = read_json(str(tmp_path / "run.manifest.json"))
    first.pop("created")
    second.pop("created")
    assert first == second


@pytest.mark.parametrize("tag", ["../escaped", "sub/run", "/abs", ".", ".."])
def test_solve_tag_outside_out_dir_is_usage_error(tmp_path, monkeypatch,
                                                  capsys, tag):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr("goldsub.cli.solve", no_solve)
    if tag == "/abs":
        tag = str(tmp_path / "abs")
    out = tmp_path / "a" / "b"
    rc = main(SOLVE + ["--out-dir", str(out), "--tag", tag])
    assert rc == EXIT_USAGE
    assert "--tag" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_solve_honors_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GOLDSUB_OUT_DIR", str(tmp_path))
    rc = main(SOLVE + ["--tag", "env"])
    assert rc == EXIT_OK
    assert (tmp_path / "env.cert.json").exists()


def test_solve_config_file_with_flag_override(tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({
        "problem": {"name": "ball-linear"},
        "config": {"delta": 0.05, "target_eps": 0.05, "seed": 0},
        "x0": [0.0, 0.0],
    }))
    rc = main(["solve", "--config", str(config), "--seed", "5",
               "--out-dir", str(tmp_path), "--tag", "cfg"])
    assert rc == EXIT_OK
    manifest = read_json(str(tmp_path / "cfg.manifest.json"))
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["delta"] == 0.05


# (flag, value, the SolverConfig field it sets, the config file's value)
RENAMED_FLAGS = [("--eps", "0.04", "target_eps", 0.05),
                 ("--sigma", "0.5", "gcq_sigma", 0.9),
                 ("--call-cap", "123456", "inner_call_cap", 654321)]


def test_solve_renamed_flags_override_their_config_keys(tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({
        "problem": {"name": "ball-linear"},
        "config": {"delta": 0.05, "kkt_mode": False,
                   **{key: value for _, _, key, value in RENAMED_FLAGS}},
    }))
    flags = [text for flag, value, _, _ in RENAMED_FLAGS for text in (flag, value)]
    rc = main(["solve", "--config", str(config), "--kkt", *flags,
               "--out-dir", str(tmp_path), "--tag", "renamed"])
    assert rc == EXIT_OK
    written = read_json(str(tmp_path / "renamed.manifest.json"))["config"]
    assert written["kkt_mode"] is True
    for _, value, key, _ in RENAMED_FLAGS:
        assert written[key] == json.loads(value)


def test_replaying_the_manifest_of_an_explicit_start_is_byte_identical(tmp_path):
    rc = main(["solve", "--problem", "ball-linear", "--delta", "0.05",
               "--eps", "0.05", "--x0", "0.3,-0.2", "--seed", "3",
               "--out-dir", str(tmp_path), "--tag", "orig"])
    assert rc == EXIT_OK
    assert read_json(str(tmp_path / "orig.manifest.json"))["x0"] == [0.3, -0.2]
    rc = main(["solve", "--config", str(tmp_path / "orig.manifest.json"),
               "--out-dir", str(tmp_path), "--tag", "replay"])
    assert rc == EXIT_OK
    for doc in ("cert.json", "trace.json"):
        assert (tmp_path / ("replay." + doc)).read_bytes() == \
            (tmp_path / ("orig." + doc)).read_bytes()


def test_solve_config_file_with_an_unknown_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**JOB, "xo": [0.3, -0.2]}))
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(path), "--delta", "0.05",
               "--eps", "0.05", "--out-dir", str(out)])
    assert rc == EXIT_USAGE
    assert "unknown config file keys: xo" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_directory_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"problems": ["ball-linear"],
                                 "grid": [{"delta": 0.1, "eps": 0.1}]}))
    for args in (SOLVE, ["bench", "--suite", str(suite)]):
        assert main(args + ["--out-dir", str(taken)]) == EXIT_USAGE
        assert "error: cannot write %s" % taken in capsys.readouterr().err
    assert taken.read_text() == ""


def test_unwritable_output_directory_fails_before_any_solve(tmp_path, capsys,
                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solved although no output can be written")

    monkeypatch.setattr("goldsub.cli.solve", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "series").write_text("")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"problems": ["ball-linear"]}))
    bench = ["bench", "--suite", str(suite)]
    for args, out in ((SOLVE, taken), (SOLVE, taken / "sub"), (bench, taken),
                      (bench, blocked)):
        assert main(args + ["--out-dir", str(out)]) == EXIT_USAGE
        assert "error: cannot write %s" % out in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "suite.json",
                                                          "taken"]
    assert [p.name for p in blocked.iterdir()] == ["series"]


def test_solve_infeasible_start_writes_nothing(tmp_path, capsys):
    rc = main(SOLVE + ["--out-dir", str(tmp_path), "--x0=2,0"])
    assert rc == EXIT_INFEASIBLE
    assert list(tmp_path.iterdir()) == []
    assert "error:" in capsys.readouterr().err


def test_solve_x0_that_is_not_reals_is_usage_error(tmp_path, capsys):
    rc = main(SOLVE + ["--out-dir", str(tmp_path), "--x0", "1,a"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: --x0 expects comma-separated reals, got '1,a'\n"
    assert list(tmp_path.iterdir()) == []


def test_solve_budget_exhaustion_keeps_partial_trace(tmp_path, capsys):
    rc = main(["solve", "--problem", "ball-linear", "--delta", "0.05",
               "--eps", "1e-9", "--seed", "0", "--call-cap", "3",
               "--x0=-1,0", "--out-dir", str(tmp_path), "--tag", "capped"])
    assert rc == EXIT_BUDGET
    partial = read_json(str(tmp_path / "capped.partial-trace.json"))
    assert partial["schema"] == "goldsub.trace/1"
    assert partial["call_cap"] == 3
    assert not (tmp_path / "capped.cert.json").exists()


def test_solve_outer_cap_exhaustion_keeps_partial_trace(tmp_path, capsys):
    rc = main(SOLVE + ["--outer-cap", "2", "--out-dir", str(tmp_path),
                       "--tag", "capped"])
    assert rc == EXIT_BUDGET
    assert "outer cap 2 exhausted" in capsys.readouterr().err
    partial = read_json(str(tmp_path / "capped.partial-trace.json"))
    assert partial["totals"]["outer_steps"] == 2
    assert len(partial["records"]) == 3
    assert not (tmp_path / "capped.cert.json").exists()


def test_solve_unknown_problem_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "nope", "--out-dir", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "nope" in capsys.readouterr().err


def test_solve_bad_param_is_usage_error(capsys):
    rc = main(["solve", "--problem", "ball-linear", "--param", "dim"])
    assert rc == EXIT_USAGE
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("param,message", [
    ("dim=[2]", "dim must be a positive integer, got [2]"),
    ("dim=2.5", "dim must be a positive integer, got 2.5"),
    ("dim=true", "dim must be a positive integer, got True"),
    ("dim=0", "dim must be a positive integer, got 0"),
    ("alpha=nan", "alpha must be a positive finite real, got 'nan'"),
    ("alpha=NaN", "alpha must be a positive finite real, got nan"),
    ("alpha=-1", "alpha must be a positive finite real, got -1"),
    pytest.param("alpha=" + "9" * 400,
                 "alpha must be a positive finite real, got " + "9" * 400,
                 id="alpha=400-digit-int"),
])
def test_solve_mistyped_param_names_it(tmp_path, capsys, param, message):
    rc = main(["solve", "--problem", "pl-nonconvex", "--param", param,
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: %s\n" % message
    assert os.listdir(tmp_path) == []


def test_solve_requires_a_problem(capsys):
    rc = main(["solve", "--delta", "0.05"])
    assert rc == EXIT_USAGE
    assert "registered" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    ([], "missing config keys: delta, target_eps (solve flags --delta, --eps)"),
    (["--delta", "0.05"], "missing config keys: target_eps (solve flags --eps)"),
], ids=["no-delta-no-eps", "no-eps"])
def test_solve_names_the_missing_config_keys(tmp_path, flags, message, capsys):
    rc = main(["solve", "--problem", "ball-linear", *flags,
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: %s\n" % message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [False, True])
def test_solve_accepts_a_manifest_with_the_retired_trajectory_key(
        solved, tmp_path, value):
    # manifests written before the key was retired carry it in their config
    def add_key(data):
        data["config"]["collect_trajectory"] = value

    path = rewrite(solved / "run.manifest.json", tmp_path / "old.json", add_key)
    rc = main(["solve", "--config", path, "--out-dir", str(tmp_path),
               "--tag", "run"])
    assert rc == EXIT_OK
    assert (tmp_path / "run.cert.json").read_bytes() == \
        (solved / "run.cert.json").read_bytes()


@pytest.mark.parametrize("value", [1000, 2.5, "x"])
def test_solve_accepts_a_manifest_with_the_retired_slackness_key(
        solved, tmp_path, value):
    # manifests of solves that still sampled slackness carry the key
    def add_key(data):
        data["config"]["slackness_samples"] = value

    path = rewrite(solved / "run.manifest.json", tmp_path / "old.json", add_key)
    rc = main(["solve", "--config", path, "--out-dir", str(tmp_path),
               "--tag", "run"])
    assert rc == EXIT_OK
    for doc in ("run.cert.json", "run.trace.json"):
        assert (tmp_path / doc).read_bytes() == (solved / doc).read_bytes()


JOB = {"problem": {"name": "ball-linear"}}


@pytest.mark.parametrize("job", [
    {**JOB, "config": [1]},
    {**JOB, "x0": "ab"},
    {**JOB, "x0": 5},
    {**JOB, "x0": [True, False]},
    {**JOB, "x0": [10 ** 400, 0]},
    {**JOB, "config": {"seed": 1.5}},
    {**JOB, "config": {"seed": True}},
    {**JOB, "config": {"inner_call_cap": 2.5}},
    {**JOB, "config": {"outer_cap": 2.5}},
    [JOB],
], ids=["config-list", "x0-string", "x0-number", "x0-bools", "x0-overflow",
        "seed-float", "seed-bool",
        "inner-call-cap-float", "outer-cap-float", "top-level-list"])
def test_solve_config_of_the_wrong_type_is_usage_error(tmp_path, job, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(path), "--delta", "0.05",
               "--eps", "0.05", "--out-dir", str(out)])
    assert rc == EXIT_USAGE
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--eps", "inf"],
    ["--delta", "1e-320", "--eps", "0.05"],
    ["--eps", "0.05", "--tau", "1e-320"],
    ["--eps", "1e308"],
    ["--eps", "1e-300"],
    ["--eps", "1e-300", "--inner", "bisect"],
    ["--kkt", "--sigma", "inf", "--eps", "0.05"],
    ["--kkt", "--sigma", "1e-320", "--eps", "0.05"],
    ["--config", '{"config": {"target_eps": Infinity}}'],
])
def test_solve_out_of_range_real_is_usage_error(tmp_path, flags, capsys):
    if flags[0] == "--config":  # json.load accepts Infinity
        path = tmp_path / "job.json"
        path.write_text(flags[1])
        flags = ["--config", str(path)]
    out = tmp_path / "out"
    rc = main(["solve", "--problem", "ball-linear", "--delta", "0.05",
               "--out-dir", str(out)] + flags)
    assert rc == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ verify


def test_verify_accepts_a_fresh_certificate(solved, capsys):
    rc = main(["verify", str(solved / "run.cert.json")] + FAST_VERIFY)
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
    assert "certificate OK (11 checks)" in out


def _add_slack_keys(data):
    # certificates of solves that still sampled slackness carry these keys
    data.update(slack_samples=1000, slack_max=0.01, slack_bound=0.15)
    data["manifest"]["config"]["slackness_samples"] = 1000


def _add_unread_keys(data):
    # and those written before the fields that nothing read were deleted
    data.update(fj_eta_bound=0.15, lipschitz_m=1.0, per_constraint_g=[-0.5])


def test_verify_ignores_the_retired_certificate_keys(solved, tmp_path, capsys):
    runs = []
    for cert in (str(solved / "run.cert.json"),
                 rewrite(solved / "run.cert.json", tmp_path / "old.json",
                         _add_slack_keys),
                 rewrite(solved / "run.cert.json", tmp_path / "older.json",
                         _add_unread_keys)):
        rc = main(["verify", cert] + FAST_VERIFY)
        runs.append((rc, capsys.readouterr().out))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == EXIT_OK


def test_verify_uses_problem_flag_when_manifest_is_missing(solved, tmp_path, capsys):
    def strip(data):
        data["manifest"] = None

    path = rewrite(solved / "run.cert.json", tmp_path / "bare.json", strip)
    assert main(["verify", path] + FAST_VERIFY) == EXIT_USAGE
    assert "manifest" in capsys.readouterr().err
    rc = main(["verify", path, "--problem", "ball-linear"] + FAST_VERIFY)
    assert rc == EXIT_OK


@pytest.fixture(scope="module")
def solved_kkt(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved-kkt")
    rc = main(SOLVE + ["--kkt", "--sigma", repr(ball_linear_sigma(0.05)),
                       "--out-dir", str(out), "--tag", "run"])
    assert rc == EXIT_OK
    return out


def _forge(data):
    """Ball-linear x = 0 with one objective entry: (0.05, 5)-stationary, so a
    true claim at eps_effective = 5, but not what its manifest configures."""
    data.update(anchor=[0.0, 0.0], zeta=[1.0, 0.0], zeta_norm=1.0, gamma0=1.0,
                gamma=0.0, f_anchor=0.0, g_anchor=-1.0, eps_effective=5.0,
                combination=[{"point": [0.0, 0.0], "vector": [1.0, 0.0],
                              "branch": {"kind": "objective"}, "weight": 1.0,
                              "direction": None}])
    data["lambda"] = 0.0


def _forge_delta_100(data):
    _forge(data)
    data["delta"] = 100.0


def _without_manifest(mutate):
    def strip(data):
        mutate(data)
        data["manifest"] = None
    return strip


BARE = ["--problem", "ball-linear"]


# (certificate, mutation, extra verify flags, exit code, text of the output)
FORGERIES = {
    "eps-5": ("rand", _forge, [], EXIT_USAGE, "its manifest"),
    "eps-5-delta-100": ("rand", _forge_delta_100, [], EXIT_USAGE, "its manifest"),
    "eps-5-bare": ("rand", _without_manifest(_forge), BARE, EXIT_OK,
                   "vs eps = 5\n"),
    "eps-5-delta-100-bare": ("rand", _without_manifest(_forge_delta_100), BARE,
                             EXIT_CORRUPT, "mismatched: delta\n"),
    "f-anchor": ("rand", lambda d: d.update(f_anchor=-100.0), [], EXIT_CORRUPT,
                 "mismatched: f_anchor\n"),
    "g-anchor": ("rand", lambda d: d.update(g_anchor=3.0), [], EXIT_CORRUPT,
                 "mismatched: g_anchor\n"),
    "zeta-norm": ("rand", lambda d: d.update(zeta_norm=123.0), [], EXIT_CORRUPT,
                  "mismatched: zeta_norm\n"),
    "warnings": ("rand", lambda d: d.update(warnings=["bogus"]), [],
                 EXIT_CORRUPT, "mismatched: warnings\n"),
    "kkt-eps": ("kkt", lambda d: d.update(kkt_eps=d["kkt_eps"] * 1.5), [],
                EXIT_CORRUPT, "mismatched: kkt_eps\n"),
    "kkt-eta": ("kkt", lambda d: d.update(kkt_eta=d["kkt_eta"] / 2.0), [],
                EXIT_CORRUPT, "mismatched: kkt_eta\n"),
    "kkt-lambda-bound": ("kkt", lambda d: d.update(kkt_lambda_bound=100.0), [],
                         EXIT_CORRUPT, "mismatched: kkt_lambda_bound\n"),
    "kkt-sigma": ("kkt", lambda d: d.update(gcq_sigma=0.5), [], EXIT_USAGE,
                  "its manifest"),
    # sigma = eps_effective would divide by zero in the KKT factor
    "kkt-sigma-at-eps-bare": (
        "kkt", _without_manifest(lambda d: d.update(gcq_sigma=d["eps_effective"])),
        BARE, EXIT_CORRUPT, "mismatched: kkt_eps, kkt_eta, kkt_lambda_bound\n"),
}


@pytest.mark.parametrize("case", FORGERIES)
def test_verify_binds_every_claim(solved, solved_kkt, tmp_path, case, capsys):
    kind, mutate, flags, code, text = FORGERIES[case]
    source = (solved if kind == "rand" else solved_kkt) / "run.cert.json"
    path = rewrite(source, tmp_path / "forged.json", mutate)
    assert main(["verify", path] + FAST_VERIFY + flags) == code
    out, err = capsys.readouterr()
    assert text in (err if code == EXIT_USAGE else out)
    if code == EXIT_USAGE:
        assert err.startswith("error: certificate claims") and out == ""
    elif code == EXIT_CORRUPT:
        assert "REJECTED: claims-recompute" in err
        assert out.count("PASS") == 10


def _leaf_paths(data, path=()):
    """Key paths of every leaf of a parsed document, empty containers too."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    found = [leaf for key, value in items
             for leaf in _leaf_paths(value, path + (key,))]
    return found or [path]


def _verify_quietly(path) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", path, "--fast", "--samples", "200"])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_targets(solved, solved_kkt, tmp_path_factory):
    """(document, leaf paths, unmutated verify outcome) of a rand, a bisect
    and a KKT certificate, and a path to write mutants to."""
    out = tmp_path_factory.mktemp("fuzz")
    assert main(SOLVE[:-3] + ["bisect", "--out-dir", str(out), "--tag", "run"]) \
        == EXIT_OK
    targets = []
    for source in (solved, out, solved_kkt):
        path = str(source / "run.cert.json")
        data = read_json(path)
        targets.append((data, _leaf_paths(data), _verify_quietly(path)))
    return targets, str(out / "mutant.json")


LEAF_VALUES = [None, "x", [1.0], {"a": 1.0}, 1e308, -1e308, 0, -1, True,
               int("9" * 400)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10**6), st.sampled_from(LEAF_VALUES))
def test_verify_survives_any_one_leaf_mutation(fuzz_targets, which, pick, value):
    targets, path = fuzz_targets
    data, leaves, unmutated = targets[which]
    mutant = json.loads(json.dumps(data))
    *parents, last = leaves[pick % len(leaves)]
    node = mutant
    for key in parents:
        node = node[key]
    node[last] = value
    with open(path, "w") as handle:
        json.dump(mutant, handle)
    rc, out = _verify_quietly(path)
    if rc == EXIT_OK and (rc, out) != unmutated:
        # a point moved inside the ball where its subgradient is unchanged
        # is still a certificate; only its distance line differs
        changed = {line.split()[1] for line, old in zip(
            out.splitlines(), unmutated[1].splitlines()) if line != old}
        assert changed == {"points-in-ball"}, out
    else:
        assert (rc, out) == unmutated or rc in (EXIT_USAGE, EXIT_VERIFY_FAILED,
                                                EXIT_CORRUPT)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["rand", "bisect", "kkt"])
def test_verify_rejects_every_leaf_of_another_json_type(fuzz_targets, which):
    # every number written as a string, a `true` weight, a warnings string
    # and a numeric version, which a decoder that converted with float()
    # and str(), or never read the leaf, accepted
    targets, path = fuzz_targets
    data, leaves, _ = targets[which]
    mutants = [(["combination", 0], "weight", True),
               ([], "warnings", "undefined"), (["manifest"], "version", 1.0)]
    for *parents, last in leaves:
        node = data
        for key in parents:
            node = node[key]
        if type(node[last]) in (int, float):
            mutants.append((parents, last, repr(node[last])))
    assert len(mutants) > 20
    for parents, last, value in mutants:
        mutant = json.loads(json.dumps(data))
        node = mutant
        for key in parents:
            node = node[key]
        node[last] = value
        with open(path, "w") as handle:
            json.dump(mutant, handle)
        assert _verify_quietly(path) == (EXIT_USAGE, ""), (parents, last)


def test_verify_rejects_weight_fault(solved, tmp_path, capsys):
    def bump(data):
        data["combination"][0]["weight"] += 0.1

    path = rewrite(solved / "run.cert.json", tmp_path / "weight.json", bump)
    rc = main(["verify", path] + FAST_VERIFY)
    assert rc == EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert "REJECTED: weights-sum" in captured.err
    assert "FAIL" in captured.out


def test_verify_rejects_moved_anchor(solved, tmp_path, capsys):
    def shift(data):
        data["anchor"][0] += 2 * data["delta"]

    path = rewrite(solved / "run.cert.json", tmp_path / "anchor.json", shift)
    rc = main(["verify", path] + FAST_VERIFY)
    assert rc == EXIT_VERIFY_FAILED
    assert "points-in-ball" in capsys.readouterr().err


def test_verify_flags_vector_corruption(solved, tmp_path, capsys):
    def poke(data):
        data["combination"][0]["vector"][0] += 1e-3

    path = rewrite(solved / "run.cert.json", tmp_path / "vector.json", poke)
    rc = main(["verify", path] + FAST_VERIFY)
    assert rc == EXIT_CORRUPT
    assert "vector-recompute" in capsys.readouterr().err


def _swap_objective_and_constraint(combination):
    kinds = [entry["branch"]["kind"] for entry in combination]
    obj, con = kinds.index("objective"), kinds.index("constraint")
    combination[obj]["branch"], combination[con]["branch"] = (
        combination[con]["branch"], combination[obj]["branch"])


@pytest.mark.parametrize("relabel", [
    pytest.param(lambda combination: combination[-1].update(
        branch={"kind": "constraint", "index": 7}), id="constraint-index-7"),
    pytest.param(_swap_objective_and_constraint, id="objective-constraint-swap"),
])
def test_verify_rejects_relabelled_branch(solved, tmp_path, capsys, relabel):
    path = rewrite(solved / "run.cert.json", tmp_path / "branch.json",
                   lambda data: relabel(data["combination"]))
    rc = main(["verify", path] + FAST_VERIFY)
    assert rc == EXIT_CORRUPT
    assert "REJECTED: vector-recompute" in capsys.readouterr().err


def _set_branch(kind, branch):
    def mutate(data):
        entry = next(e for e in data["combination"] if e["branch"]["kind"] == kind)
        entry["branch"] = branch
    return mutate


@pytest.mark.parametrize("mutate", [
    _set_branch("constraint", {"kind": "bogus", "index": 1}),
    _set_branch("objective", {"kind": "objective", "index": 1}),
    _set_branch("constraint", {"kind": "constraint", "index": "1"}),
    _set_branch("constraint", {"kind": "constraint", "index": True}),
    _set_branch("constraint", {"kind": "constraint", "index": 0}),
    _set_branch("constraint", {"kind": "constraint", "index": 1, "note": 0}),
    _set_branch("objective", "objective"),
], ids=["bogus-kind", "objective-with-index", "string-index", "bool-index",
        "index-0", "extra-key", "not-an-object"])
def test_verify_rejects_malformed_branch(solved, tmp_path, capsys, mutate):
    path = rewrite(solved / "run.cert.json", tmp_path / "branch.json", mutate)
    assert main(["verify", path] + FAST_VERIFY) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "certificate OK" not in out
    assert "malformed certificate document" in err and "branch must be" in err


def test_solve_certification_failure_exits_6(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise CertificationError("check zeta-norm-bound failed: forced")

    monkeypatch.setattr(solver, "certify", broken)
    rc = main(SOLVE + ["--out-dir", str(tmp_path)])
    assert rc == EXIT_VERIFY_FAILED
    assert "check zeta-norm-bound failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_fast_stops_at_first_failure(solved, tmp_path, capsys):
    def bump(data):
        data["combination"][0]["weight"] += 0.1

    path = rewrite(solved / "run.cert.json", tmp_path / "fast.json", bump)
    rc = main(["verify", path, "--fast"] + FAST_VERIFY)
    assert rc == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert out.count("PASS") == 1
    assert out.count("FAIL") == 1


def test_solve_negative_seed_is_usage_error(tmp_path, capsys):
    args = SOLVE[:-1] + ["-1", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--samples", "-5"],
                                   ["--samples", "-100000000000000000000"]])
def test_verify_negative_seed_or_samples_is_usage_error(solved, flags, capsys):
    rc = main(["verify", str(solved / "run.cert.json")] + flags)
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "certificate OK" not in out
    # the estimate needs at least one sample
    least = "nonnegative" if flags[0] == "--seed" else "positive"
    assert "must be %s" % least in err


@pytest.mark.parametrize("command,flags", [
    ("verify", ["--samples", "100000000000000000000"]),
    ("verify", ["--samples", "1000001"]),
])
def test_oversized_sample_count_is_usage_error(solved, command, flags, capsys):
    assert main([command, str(solved / "run.cert.json")] + flags) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "at most 1000000" in err
    assert "certificate OK" not in out


def test_verify_options_are_pinned():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {option for action in commands.choices["verify"]._actions
               for option in action.option_strings}
    assert options - {"-h", "--help"} == {"--problem", "--param", "--samples",
                                          "--seed", "--fast"}


@pytest.mark.parametrize("flag", ["--slack-samples", "--estimate-samples"])
def test_verify_rejects_the_retired_sample_flags(solved, flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", str(solved / "run.cert.json"), flag, "5"])
    assert exit_.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: %s 5" % flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "1000001"])
def test_verify_sample_count_out_of_range_exits_before_any_check(
        solved, count, monkeypatch, capsys):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_checks", no_check)
    rc = main(["verify", str(solved / "run.cert.json"), "--samples", count])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: samples must be positive and at most 1000000, got %s" % count \
        in err


def test_solve_unallocatable_problem_is_usage_error(tmp_path, capsys):
    # 8e17 bytes for one vector: more than any 64-bit address space holds,
    # so the allocation fails at once on every host; 10**19 is no array
    # length at all
    for dim, message in ((10 ** 17, "Unable to allocate"),
                         (10 ** 19, "dim must be at most")):
        rc = main(["solve", "--problem", "ball-linear", "--param",
                   "dim=%d" % dim, "--delta", "0.05", "--eps", "0.05",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


def test_verify_non_json_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("not json\n")
    assert main(["verify", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: %s does not parse as JSON: " % path)


def test_verify_manifest_x0_of_the_wrong_type_is_usage_error(solved, tmp_path,
                                                             capsys):
    def set_x0(data):
        data["manifest"]["x0"] = "abc"

    path = rewrite(solved / "run.cert.json", tmp_path / "x0.json", set_x0)
    assert main(["verify", path] + FAST_VERIFY) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: malformed certificate document "
        "(UsageError: manifest x0 must be a list of numbers)\n")


def test_verify_missing_file_is_usage_error(capsys):
    assert main(["verify", "/no/such/cert.json"]) == EXIT_USAGE


def test_verify_overflowing_subgradients_are_usage_error(tmp_path, capsys):
    # with alpha = 1e160 the recomputed subgradients have squared norms
    # beyond the float range, so no hull over them can be solved
    rc = main(["solve", "--problem", "pl-nonconvex", "--delta", "0.05",
               "--eps", "0.05", "--out-dir", str(tmp_path), "--tag", "run"])
    assert rc == EXIT_OK

    def huge_alpha(data):
        data["manifest"]["problem"]["params"]["alpha"] = 1e160

    path = rewrite(tmp_path / "run.cert.json", tmp_path / "alpha.json",
                   huge_alpha)
    capsys.readouterr()
    assert main(["verify", path] + FAST_VERIFY) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: points with non-finite squared norms\n"


def _drop_index(data):
    data["combination"][0]["branch"] = {"kind": "constraint"}


def _set_weight(data):
    data["combination"][0]["weight"] = "x"


@pytest.mark.parametrize("mutate", [
    lambda data: [data],
    lambda data: data.pop("gamma0"),
    _set_weight,
    _drop_index,
    lambda data: data.update(delta=int("9" * 400)),
    lambda data: data["manifest"]["problem"]["params"].update(dim=10 ** 19),
], ids=["top-level-list", "missing-gamma0", "string-weight", "branch-without-index",
        "400-digit-leaf", "manifest-dim-1e19"])
def test_verify_malformed_document_is_usage_error(solved, tmp_path, mutate, capsys):
    data = read_json(str(solved / "run.cert.json"))
    out = mutate(data)
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(out if isinstance(out, list) else data))
    assert main(["verify", str(doc)] + FAST_VERIFY) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("vector", [1.0, 0.0, 0.0]),
                                       ("vector", [1.0]),
                                       ("direction", [1.0, 0.0, 0.0])])
def test_verify_wrong_length_stored_vector_is_usage_error(solved, tmp_path,
                                                          key, value, capsys):
    def resize(data):
        data["combination"][0][key] = value

    path = rewrite(solved / "run.cert.json", tmp_path / "resized.json", resize)
    assert main(["verify", path] + FAST_VERIFY) == EXIT_USAGE
    assert "dimension 2" in capsys.readouterr().err


def test_verify_reads_a_non_finite_point_at_points_in_ball(solved, tmp_path,
                                                          capsys):
    # 1e400 parses to inf; the point is read where points-in-ball reads it,
    # so --fast rejects the weight fault before it, and a full check raises
    data = read_json(str(solved / "run.cert.json"))
    data["combination"][0]["weight"] += 0.1
    data["combination"][-1]["point"][0] = 123.25
    text = json.dumps(data)
    assert text.count("123.25") == 1
    path = tmp_path / "inf-point.json"
    path.write_text(text.replace("123.25", "1e400"))
    assert main(["verify", str(path), "--fast"] + FAST_VERIFY) \
        == EXIT_VERIFY_FAILED
    assert "REJECTED: weights-sum" in capsys.readouterr().err
    assert main(["verify", str(path)] + FAST_VERIFY) == EXIT_USAGE
    assert capsys.readouterr().err == "error: non-finite entries in input point\n"


# ------------------------------------------------------------------- bench


def test_bench_suite_runs_and_summarizes(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "problems": ["ball-linear"],
        "inners": ["rand", "bisect"],
        "seeds": [0, 1],
        "grid": [{"delta": 0.1, "eps": 0.1}],
    }))
    rc = main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    summary = read_json(str(tmp_path / "bench-summary.json"))
    rows = summary["rows"]
    assert len(rows) == 4
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["lemma_ratio"] <= 1.0 for row in rows)
    assert all(row["budget_ratio"] <= 1.0 for row in rows)

    # the deterministic inner search must not vary with the seed
    bisect_rows = [row for row in rows if row["inner"] == "bisect"]
    assert len(bisect_rows) == 2
    assert bisect_rows[0]["f_final"] == bisect_rows[1]["f_final"]
    assert bisect_rows[0]["outer_steps"] == bisect_rows[1]["outer_steps"]

    for row in rows:
        series = tmp_path / "series" / (row["cell"] + ".csv")
        text = series.read_text().splitlines()
        assert text[0] == "k,f,g,zeta_norm"
        # one record per visited point, terminal anchor included
        assert len(text) == row["outer_steps"] + 2

    table = capsys.readouterr().out
    assert "4 cells, 0 failed" in table

    # a configured inner call cap does not hide the budget it caps
    suite.write_text(json.dumps({
        "problems": ["ball-linear"],
        "inners": ["rand", "bisect"],
        "grid": [{"delta": 0.1, "eps": 0.1}],
        "config": {"inner_call_cap": 10_000},
    }))
    capped = tmp_path / "capped"
    rc = main(["bench", "--suite", str(suite), "--out-dir", str(capped)])
    assert rc == EXIT_OK
    capped_rows = read_json(str(capped / "bench-summary.json"))["rows"]
    assert [row["inner_budget"] for row in capped_rows] == \
        [row["inner_budget"] for row in rows if row["seed"] == 0]
    assert all(0.0 < row["budget_ratio"] <= 1.0 for row in capped_rows)


def test_bench_reports_failed_cells_and_goes_on(tmp_path, capsys):
    # a cap of one call fails both searches' first inner invocation: each
    # row records the error, and no series is written for either
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "problems": [{"name": "pl-nonconvex", "params": {"dim": 10}}],
        "inners": ["rand", "bisect"],
        "config": {"inner_call_cap": 1},
    }))
    out = tmp_path / "out"
    assert main(["bench", "--suite", str(suite), "--out-dir", str(out)]) \
        == EXIT_OK
    rows = read_json(str(out / "bench-summary.json"))["rows"]
    assert [(row["inner"], row["status"]) for row in rows] == [
        ("rand", "BudgetExceededError"), ("bisect", "BudgetExceededError")]
    assert all(row["error"].startswith("inner call cap 1 exhausted at ")
               for row in rows)
    assert not list(out.rglob("*.csv"))
    table = capsys.readouterr().out.splitlines()
    for line, inner in zip(table[1:3], ("rand", "bisect")):
        # steps, lemma, calls and budget-ratio
        assert line.split() == ["pl-nonconvex", inner, "0", "0.05", "0.05",
                                "-", "-", "-", "-", "BudgetExceededError"]
    assert table[3].startswith("2 cells, 2 failed; summary in ")


def test_bench_cell_ids_name_the_given_params(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "problems": [{"name": "pl-nonconvex", "params": {"dim": 2}},
                     {"name": "pl-nonconvex", "params": {"dim": 4}},
                     "ball-linear"],
        "grid": [CELL],
    }))
    assert main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path)]) \
        == EXIT_OK
    rows = read_json(str(tmp_path / "bench-summary.json"))["rows"]
    assert [row["cell"] for row in rows] == [
        "pl-nonconvex-rand-d0.1-e0.1-s0-dim2",
        "pl-nonconvex-rand-d0.1-e0.1-s0-dim4", "ball-linear-rand-d0.1-e0.1-s0"]
    for row in rows:
        series = tmp_path / "series" / (row["cell"] + ".csv")
        assert len(series.read_text().splitlines()) == row["outer_steps"] + 2


def test_bench_config_key_set_per_cell_names_its_suite_field(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    for key, field in (("inner", "inners"), ("seed", "seeds"),
                       ("delta", "grid"), ("target_eps", "grid")):
        suite.write_text(json.dumps({"problems": ["ball-linear"],
                                     "config": {key: 1}}))
        assert main(["bench", "--suite", str(suite),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: suite config key %r is set per cell; use the suite's %r\n"
            % (key, field))
    assert not (tmp_path / "out").exists()


def test_bench_seed_count_runs_seeds_from_zero(tmp_path, capsys):
    # "seeds": k is the count form, seeds 0..k-1
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"problems": ["ball-linear"], "seeds": 2,
                                 "grid": [{"delta": 0.1, "eps": 0.1}]}))
    assert main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path)]) \
        == EXIT_OK
    rows = read_json(str(tmp_path / "bench-summary.json"))["rows"]
    assert [(row["seed"], row["status"]) for row in rows] == [(0, "ok"),
                                                              (1, "ok")]


def test_bench_problem_entry_of_the_wrong_type_is_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"problems": [42]}))
    assert main(["bench", "--suite", str(suite),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: problem entries must be a name or {name, params}\n"
    assert not (tmp_path / "out").exists()


def test_bench_requires_problems(tmp_path, capsys):
    suite = tmp_path / "empty.json"
    suite.write_text(json.dumps({"problems": []}))
    assert main(["bench", "--suite", str(suite)]) == EXIT_USAGE


CELL = {"delta": 0.1, "eps": 0.1}


@pytest.mark.parametrize("suite", [
    [{"problems": ["ball-linear"]}],
    {"problems": ["ball-linear"], "grid": [{"eps": 0.1}]},
    {"problems": ["ball-linear"], "grid": [{"delta": "x", "eps": 0.1}]},
    {"problems": ["ball-linear"], "grid": [{"delta": 10 ** 400, "eps": 0.1}]},
    {"problems": ["ball-linear"], "grid": [CELL], "seeds": "ab"},
    {"problems": ["ball-linear"], "grid": CELL},
    {"problems": "ball-linear", "grid": [CELL]},
    {"problems": ["ball-linear"], "grid": [CELL], "seeds": -2},
    {"problems": ["ball-linear"], "grid": [CELL], "seeds": [1.5]},
    {"problems": ["ball-linear"], "grid": [CELL], "config": [1]},
    {"problems": ["ball-linear"], "grid": [CELL], "inners": ["rand", "nope"]},
    {"problems": ["ball-linear", "nope"], "grid": [CELL]},
    {"problems": ["ball-linear"], "grid": [CELL], "config": {"inner": "bisect"}},
    {"problems": ["ball-linear"], "grid": [CELL], "config": {"seed": 3}},
    {"problems": ["ball-linear"], "config": {"delta": 0.1}},
    {"problems": ["ball-linear"], "config": {"target_eps": 0.1}},
    {"problems": ["ball-linear", "ball-linear"], "grid": [CELL]},
    {"problems": ["ball-linear"],
     "grid": [CELL, {"delta": 0.1000001, "eps": 0.1}]},
    {"problems": ["ball-linear"], "grid": [CELL], "seeds": [0, 1, 0]},
], ids=["top-level-list", "cell-without-delta", "string-delta",
        "overflowing-delta", "string-seeds", "grid-object", "problems-string",
        "negative-seed-count", "float-seed", "config-list", "second-inner-unknown",
        "second-problem-unknown", "config-inner", "config-seed", "config-delta",
        "config-target-eps", "repeated-problem", "grid-cells-equal-under-g",
        "repeated-seed"])
def test_bench_malformed_suite_is_usage_error(tmp_path, suite, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out = tmp_path / "out"
    assert main(["bench", "--suite", str(path), "--out-dir", str(out)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # no cell ran
