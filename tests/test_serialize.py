"""Round-trip stability of the JSON document formats."""

from __future__ import annotations

import dataclasses
import json
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsub.errors import UsageError
from goldsub.problems import get_problem
from goldsub.serialize import (
    CERTIFICATE_SCHEMA,
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    UNDEFINED,
    certificate_data,
    certificate_from_data,
    config_from_data,
    dumps,
    manifest_data,
    read_json,
    trace_data,
    write_json,
)
from goldsub.solver import SolverConfig, solve


def read_json_text(text):
    return json.loads(text)


@pytest.fixture(scope="module")
def run():
    record = get_problem("ball-linear")
    config = SolverConfig(delta=0.05, target_eps=0.05, seed=7)
    cert, trace = solve(record.spec, config, record.start)
    return record, config, cert, trace


def test_to_jsonable_handles_numpy():
    text = dumps({
        "arr": np.array([1.0, 2.5]),
        "scalar": np.float64(0.25),
        "count": np.int64(3),
        "flag": np.bool_(True),
        "pair": (1, 2),
    })
    data = json.loads(text)
    assert data == {"arr": [1.0, 2.5], "scalar": 0.25, "count": 3,
                    "flag": True, "pair": [1, 2]}
    assert all(type(v) is float for v in data["arr"])


def test_dumps_is_sorted_and_newline_terminated():
    text = dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert dumps({"a": 2, "b": 1}) == text


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"x": math.nan})
    with pytest.raises(ValueError):
        dumps({"x": math.inf})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64(math.nan), np.float64(-math.inf),
                                 np.float32(math.nan), np.float32(math.inf)],
                         ids=repr)
@pytest.mark.parametrize("wrap", [
    pytest.param(lambda x: x, id="top-level"),
    pytest.param(lambda x: [1.0, x, 2.0], id="float-list"),
    pytest.param(lambda x: ["s", 1, x], id="mixed-list"),
    pytest.param(lambda x: (0.5, x), id="tuple"),
    pytest.param(lambda x: {"a": {"b": [{"c": x}]}}, id="nested-dict"),
    pytest.param(lambda x: {"a": [[0.0, x]]}, id="nested-list"),
    pytest.param(lambda x: {"a": np.array([[0.0, 1.0], [2.0, x]])}, id="array"),
    pytest.param(lambda x: [np.float64(1.0), x], id="numpy-list"),
    pytest.param(lambda x: [{"a": 1.0}, {"a": x}], id="record-column"),
])
def test_dumps_rejects_non_finite_anywhere(bad, wrap):
    with pytest.raises(ValueError):
        dumps(wrap(bad))


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, -1e16, 5e-324, 0.1, 1e-7, 1.7976931348623157e308])
_TEXT = st.text() | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "caf\u00e9", "\u2603\U0001f600", 'a"b'])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
           | _FLOATS | _TEXT
           | _FLOATS.map(np.float64)
           | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
           | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.booleans().map(np.bool_)
           | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                      min_side=0, max_side=3),
                        elements=_FLOATS))
_KEYS = _TEXT | st.integers() | st.booleans() | st.none() | _FLOATS
# cell strategies of one record column: each leaf type, float lists, numpy
# scalars and nested dicts; _record_lists adds float-then-None columns (as
# in a trace's descent_amount) and columns of any document
_COLUMNS = (_FLOATS, st.integers(), st.booleans(), _TEXT,
            st.lists(_FLOATS, max_size=3), _FLOATS.map(np.float64),
            st.integers(-2**63, 2**63 - 1).map(np.int64),
            st.dictionaries(_TEXT, _FLOATS | st.none(), max_size=3))


@st.composite
def _record_lists(draw, children):
    """2-5 dicts with one set of str keys, such as trace records; now and
    then one row gains or loses a key, which the column path must refuse."""
    rows = draw(st.integers(2, 5))
    keys = draw(st.lists(_TEXT | st.sampled_from(["%", "%s", "a%%b"]),
                         min_size=1, max_size=4, unique=True))
    columns = []
    for _ in keys:
        kind = draw(st.integers(0, len(_COLUMNS) + 1))
        if kind == len(_COLUMNS):  # float, then None
            floats = draw(st.integers(1, rows))
            columns.append(draw(st.lists(_FLOATS, min_size=floats,
                                         max_size=floats))
                           + [None] * (rows - floats))
        else:
            cells = _COLUMNS[kind] if kind < len(_COLUMNS) else children
            columns.append(draw(st.lists(cells, min_size=rows, max_size=rows)))
    records = [dict(zip(keys, cells)) for cells in zip(*columns)]
    odd = draw(st.sampled_from([None, "extra", "missing"]))
    row = records[draw(st.integers(0, rows - 1))]
    if odd == "extra":
        row[draw(_TEXT.filter(lambda k: k not in row))] = 0.5
    elif odd == "missing" and len(keys) > 1:
        del row[keys[0]]
    return records


_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=5)
                      | _record_lists(children)),
    max_leaves=30)


@settings(max_examples=400, derandomize=True)
@given(_DOCUMENTS)
def test_dumps_matches_the_stdlib_encoder(stdlib_dumps, data):
    assert dumps(data) == stdlib_dumps(data)


def test_write_and_read_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"k": [1.0, 2.0], "n": None})
    assert read_json(str(path)) == {"k": [1.0, 2.0], "n": None}
    assert path.read_text() == dumps({"k": [1.0, 2.0], "n": None})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_manifest_created_stamp_is_opt_in(run):
    record, config, _, _ = run
    plain = manifest_data(record.name, record.params, config, "1.0")
    assert plain["schema"] == MANIFEST_SCHEMA
    assert plain["seed"] == 7
    assert "created" not in plain
    stamped = manifest_data(record.name, record.params, config, "1.0",
                            created=True)
    assert "created" in stamped
    stamped.pop("created")
    assert stamped == plain


def test_certificate_round_trip_is_byte_stable(run):
    record, config, cert, _ = run
    manifest = manifest_data(record.name, record.params, config, "1.0")
    text = dumps(certificate_data(cert, manifest))
    decoded, decoded_manifest = certificate_from_data(
        read_json_text(text))
    assert decoded_manifest == manifest
    assert dumps(certificate_data(decoded, decoded_manifest)) == text
    assert np.array_equal(decoded.anchor, cert.anchor)
    assert np.array_equal(decoded.zeta, cert.zeta)
    assert decoded.lam == cert.lam
    assert len(decoded.combination) == len(cert.combination)


def test_certificate_lambda_undefined_round_trip(run):
    record, _, cert, _ = run
    cert_none = dataclasses.replace(cert, lam=None)
    data = certificate_data(cert_none)
    assert data["lambda"] == UNDEFINED
    decoded, _ = certificate_from_data(data)
    assert decoded.lam is None


def test_certificate_optional_keys_default_and_required_keys_do_not(run):
    _, _, cert, _ = run
    data = read_json_text(dumps(certificate_data(cert)))
    del data["warnings"]
    for entry in data["combination"]:
        del entry["direction"]
    decoded, _ = certificate_from_data(data)
    assert decoded.warnings == []
    assert all(w.direction is None for w in decoded.combination)
    del data["fj_eta_bound"]
    with pytest.raises(UsageError, match="fj_eta_bound"):
        certificate_from_data(data)


def test_certificate_schema_is_checked(run):
    record, config, _, trace = run
    with pytest.raises(UsageError):
        certificate_from_data(trace_data(trace))
    with pytest.raises(UsageError):
        certificate_from_data({"schema": "bogus/9"})


def test_trace_round_trip_drops_wall_time(run):
    record, config, cert, trace = run
    data = trace_data(trace)
    assert data["schema"] == TRACE_SCHEMA
    assert "wall_time_s" not in dumps(data)
    parsed = read_json_text(dumps(data))
    assert parsed["totals"]["outer_steps"] == trace.outer_steps
    assert parsed["records"] == trace.records


def test_config_round_trip(run):
    _, config, _, _ = run
    rebuilt = config_from_data(dataclasses.asdict(config))
    assert rebuilt == config


@pytest.mark.parametrize("value", [False, True, "anything"])
def test_config_ignores_the_retired_trajectory_key(run, value):
    _, config, _, _ = run
    data = {**dataclasses.asdict(config), "collect_trajectory": value}
    assert config_from_data(data) == config


@pytest.mark.parametrize("value", [1000, 2.5, "x"])
def test_config_ignores_the_retired_slackness_key(run, value):
    _, config, _, _ = run
    data = {**dataclasses.asdict(config), "slackness_samples": value}
    assert config_from_data(data) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown config keys"):
        config_from_data({"delta": 0.1, "target_eps": 0.05, "bogus": 1})


def test_config_rejects_missing_required_fields():
    with pytest.raises(UsageError, match=r"missing config keys: delta, "
                       r"target_eps \(solve flags --delta, --eps\)"):
        config_from_data({})
    with pytest.raises(UsageError, match=r"missing config keys: target_eps "
                       r"\(solve flags --eps\)$"):
        config_from_data({"delta": 0.1, "seed": 3})
