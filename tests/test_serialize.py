"""Round-trip stability of the JSON document formats."""

from __future__ import annotations

import dataclasses
import json
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldsub.serialize as serialize
from goldsub.errors import UsageError
from goldsub.problems import ball_linear_sigma, get_problem
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
    pytest.param(lambda x: [{"a": x}, {"a": None}], id="nullable-column"),
])
def test_dumps_rejects_non_finite_anywhere(bad, wrap):
    with pytest.raises(ValueError):
        dumps(wrap(bad))


@pytest.mark.parametrize("value", [object(), {1.0}, b"bytes"],
                         ids=["object", "set", "bytes"])
def test_dumps_raises_the_type_error_of_json_dumps(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    with pytest.raises(TypeError) as err:
        dumps({"a": [value]})
    assert str(err.value) == str(expected.value)


class _Real(float):
    """A float subclass, which json writes with ``float.__repr__``."""


_COLUMNS_OF_ROWS = {
    "real": [0.1, -0.0, 5e-324, 1.7976931348623157e308],
    "amount": [1e16, 2.5, -1e-7, None],
    "count": [0, -3, 2**70, 7],
    "flag": [True, False, False, True],
    "scalar": [np.float64(x) for x in (0.5, -0.0, 1e300, 3.0)],
    "sub": [_Real(x) for x in (0.25, -7.0, 1e-300, 0.0)],
}


def test_records_match_the_stdlib_encoder():
    # exact floats, floats then a null, ints, bools, numpy floats, a float
    # subclass: one column of each in one list of same-keyed dicts
    rows = [dict(zip(_COLUMNS_OF_ROWS, cells))
            for cells in zip(*_COLUMNS_OF_ROWS.values())]
    # equal key counts, other keys: the column read's KeyError fallback
    unlike = [{"a": 1.0, "b": 2}, {"a": 3.0, "c": 4}]
    for data in (rows, {"records": rows, "k": 1}, unlike):
        assert dumps(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"


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
# a key set that recurs with keys that are not str, and {1: a} and {"1": b}
# in turn, cold and warm: the kept key order is that of the str keys
@example({"a": {1: 0.5, 2: True}, "b": {1: 0.25, 2: None}, "c": {2: 1, 1: 2}})
@example([{1: "a"}, {"1": "b"}, {1: "c"}, {"1": [1.0]}])
@example([{1: 0.5, "2": 1}, {"1": 1.5, 2: 2}, {1: 2.5, "2": 3}])
@example({"x": {1: "a"}, "y": {"1": "b"}, "z": {True: 1, 1.5: 2, None: 3}})
@example([{True: 1.0, 1: 2.0}, {"True": 3.0, "1": 4.0}, {1: 5.0, True: 6.0}])
def test_dumps_matches_the_stdlib_encoder(stdlib_dumps, data):
    serialize._KEY_ORDERS.clear()
    cold = dumps(data)
    assert cold == stdlib_dumps(data)
    assert dumps(data) == cold  # warm: every key set met before


def test_the_kept_key_orders_are_bounded(stdlib_dumps):
    serialize._KEY_ORDERS.clear()
    docs = [{"k%d" % i: i, "v": [{"a": 1, "b%d" % i: 0.5}] * 2}
            for i in range(serialize._KEY_ORDERS_MAX)]
    for doc in docs:
        assert dumps(doc) == stdlib_dumps(doc)
    assert len(serialize._KEY_ORDERS) == serialize._KEY_ORDERS_MAX
    # a full table keeps what it has and orders new key sets all the same
    for doc in docs[:3] + [{"new": 1, "keys": [{"z": 1, "y": 2}] * 2}]:
        assert dumps(doc) == stdlib_dumps(doc)
    assert len(serialize._KEY_ORDERS) == serialize._KEY_ORDERS_MAX
    # nor does it keep a key tuple longer than _KEY_ORDER_KEYS
    serialize._KEY_ORDERS.clear()
    wide = {"k%03d" % i: i for i in range(serialize._KEY_ORDER_KEYS + 1)}
    for doc in (wide, dict(list(wide.items())[1:])):
        assert dumps(doc) == stdlib_dumps(doc)
    assert list(map(len, serialize._KEY_ORDERS)) == [serialize._KEY_ORDER_KEYS]


def test_write_and_read_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"k": [1.0, 2.0], "n": None})
    assert read_json(str(path)) == {"k": [1.0, 2.0], "n": None}
    assert path.read_text() == dumps({"k": [1.0, 2.0], "n": None})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_writing_onto_a_directory_is_usage_error(tmp_path):
    (tmp_path / "doc.json").mkdir()
    with pytest.raises(UsageError, match="Is a directory"):
        write_json(str(tmp_path / "doc.json"), {"k": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


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


@pytest.fixture(scope="module", params=["rand", "kkt", "bisect"])
def certified(request, run):
    """A ball-linear run: ``run``'s, one in KKT mode, whose four KKT claims
    are set and distinct, and a bisect one, whose entries store their
    directions."""
    if request.param == "rand":
        return run[:3]
    record = run[0]
    config = (SolverConfig(delta=0.05, target_eps=0.05, seed=7, kkt_mode=True,
                           gcq_sigma=ball_linear_sigma(0.05))
              if request.param == "kkt" else
              SolverConfig(delta=0.05, target_eps=0.05, seed=7, inner="bisect"))
    cert, _ = solve(record.spec, config, record.start)
    if request.param == "kkt":
        claims = [cert.kkt_eps, cert.kkt_eta, cert.kkt_lambda_bound,
                  cert.gcq_sigma]
        assert None not in claims and len(set(claims)) == 4
    else:
        assert all(w.direction is not None for w in cert.combination)
    return record, config, cert


def assert_same_value(decoded, original):
    if isinstance(original, np.ndarray):
        assert type(decoded) is np.ndarray and decoded.dtype == float
        assert np.array_equal(decoded, original)
    else:
        assert type(decoded) is type(original) and decoded == original


def test_certificate_round_trip_is_byte_stable(certified):
    record, config, cert = certified
    manifest = manifest_data(record.name, record.params, config, "1.0")
    text = dumps(certificate_data(cert, manifest))
    decoded, decoded_manifest = certificate_from_data(
        read_json_text(text))
    assert decoded_manifest == manifest
    assert dumps(certificate_data(decoded, decoded_manifest)) == text
    for field in dataclasses.fields(cert):
        if field.name != "combination":
            assert_same_value(getattr(decoded, field.name),
                              getattr(cert, field.name))
    assert len(decoded.combination) == len(cert.combination)
    for entry, original in zip(decoded.combination, cert.combination):
        for field in dataclasses.fields(original):
            assert_same_value(getattr(entry, field.name),
                              getattr(original, field.name))


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
    del data["eps_effective"]
    with pytest.raises(UsageError, match="eps_effective"):
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
