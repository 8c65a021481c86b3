"""Deterministic JSON encoding for certificates, traces, and manifests.

The schema of each document kind is the code below, key by key.  A
certificate holds the ``GoldsteinCertificate`` fields by name, with ``lam``
as ``"lambda"`` (``"undefined"`` for None); each ``combination`` entry holds
``point``, ``vector``, ``branch``, ``weight`` and ``direction``; a branch
index is written ``{"kind": "objective"}`` for 0 and ``{"kind":
"constraint", "index": i}`` for constraint i >= 1.
``warnings`` and ``direction`` may be absent, and unknown keys are ignored.
A trace holds the ``SolveTrace`` fields, its three counters under
``totals``; wall time and the inner budget stay in memory, so replaying a
manifest gives a byte-identical file.  Both embed their manifest, whose
``created`` stamp is only written to the standalone manifest file.  Reals
are emitted with Python's shortest round-trip repr, keys are sorted, and
NaN/inf are rejected, so equal in-memory objects serialize to identical
bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import sys
import tempfile
import typing
from datetime import datetime, timezone

import numpy as np

from .core import Vector, WeightedSubgradient
from .errors import UsageError
from .solver import SolverConfig, SolveTrace
from .verify import GoldsteinCertificate

CERTIFICATE_SCHEMA = "goldsub.certificate/1"
TRACE_SCHEMA = "goldsub.trace/1"
MANIFEST_SCHEMA = "goldsub.manifest/1"
UNDEFINED = "undefined"


_OUT_OF_RANGE = "Out of range float values are not JSON compliant"
# the float reprs that JSON cannot hold
_NONFINITE = frozenset({"nan", "inf", "-inf"})


def _finite(text: str) -> str:
    """Joined float reprs; NaN and inf raise, the only reprs with an "n"."""
    if "n" in text:
        raise ValueError(_OUT_OF_RANGE)
    return text


_quote = json.encoder.encode_basestring_ascii
# JSON text of a leaf by exact type, from C-level formatters
_LEAF = {str: _quote, float: lambda v: _finite(float.__repr__(v)),
         int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
         type(None): lambda _: "null"}
# the value json sees: numpy arrays and scalars as Python ones, subclasses
# of str, int and float as their base type
_CONVERT = ((np.ndarray, np.ndarray.tolist), (np.floating, float),
            (np.integer, int), (np.bool_, bool), (str, str.__str__),
            (int, int.__int__), (float, float.__float__))


# the sorted (key, '"key": ') pairs of each str key tuple met so far, by
# the tuple in its own order: at most _KEY_ORDERS_MAX tuples of at most
# _KEY_ORDER_KEYS keys each, then no more
_KEY_ORDERS: dict[tuple, list] = {}
_KEY_ORDERS_MAX = 256
_KEY_ORDER_KEYS = 32


def _key_order(value: dict) -> list:
    """The sorted keys of a dict with str keys, each with its quoted
    prefix, from the kept table when its key tuple has been met before."""
    keys = tuple(value)
    order = _KEY_ORDERS.get(keys)
    if order is None:
        order = [(k, _quote(k) + ": ") for k in sorted(keys)]
        if len(_KEY_ORDERS) < _KEY_ORDERS_MAX and len(keys) <= _KEY_ORDER_KEYS:
            _KEY_ORDERS[keys] = order
    return order


def _emit(value, newline: str) -> str:
    """JSON text of ``value`` whose closing bracket follows ``newline``."""
    kind = type(value)
    leaf = _LEAF.get(kind)
    if leaf is not None:
        return leaf(value)
    if kind is np.ndarray:
        return _emit(value.tolist(), newline)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            value = dict(zip(map(str, value), value.values()))
        # a leaf's text comes from _LEAF here, without an _emit call
        text = ("," + inner).join([
            prefix + (leaf(v) if (leaf := _LEAF.get(type(v := value[k])))
                      else _emit(v, inner))
            for k, prefix in _key_order(value)])
        return "{" + inner + text + newline + "}"
    if isinstance(value, (list, tuple)):
        try:  # a list of floats, such as a point: one C-level join
            text = _finite(("," + inner).join(map(float.__repr__, value)))
        except TypeError:
            text = ("," + inner).join(_records(value, inner)
                                      or [_emit(v, inner) for v in value])
        return "[" + inner + text + newline + "]" if value else "[]"
    for kind, convert in _CONVERT:
        if isinstance(value, kind):
            return _emit(convert(value), newline)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _column(cells: list, newline: str) -> tuple[str, list]:
    """A ``%`` conversion and its cells for the JSON texts of ``cells``.
    Finite exact floats and exact ints go to ``%`` as they are, so the
    template formats them in C; a float column with nulls and a column of
    one other leaf type become texts in one pass, any other column texts
    from ``_emit`` cell by cell."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        # the sum of finite floats is finite unless it overflows
        if not (math.isfinite(sum(cells)) or all(map(math.isfinite, cells))):
            raise ValueError(_OUT_OF_RANGE)
        return "%r", cells
    if kinds == {int}:
        return "%d", cells
    if kinds == {float, type(None)}:
        texts = ["null" if v is None else float.__repr__(v) for v in cells]
        if not _NONFINITE.isdisjoint(texts):
            raise ValueError(_OUT_OF_RANGE)
        return "%s", texts
    leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
    if leaf is None:
        return "%s", [_emit(v, newline) for v in cells]
    return "%s", list(map(leaf, cells))


def _records(rows, newline: str) -> list[str] | None:
    """JSON texts of the items of ``rows`` when they are dicts with one set
    of str keys, such as trace records, built column by column into one
    template; None for any other list."""
    if set(map(type, rows)) != {dict}:
        return None
    keys = rows[0].keys()
    if not keys or set(map(type, keys)) != {str} \
            or set(map(len, rows)) != {len(keys)}:
        return None
    order = _key_order(rows[0])
    try:  # every row has every key, so the rows share one key set
        values = [list(map(operator.itemgetter(k), rows)) for k, _ in order]
    except KeyError:
        return None
    inner = newline + "  "
    columns = [_column(column, inner) for column in values]
    template = "{" + inner + ("," + inner).join(
        [prefix.replace("%", "%%") + conversion
         for (_, prefix), (conversion, _) in zip(order, columns)]) + newline + "}"
    return [template % row for row in zip(*[cells for _, cells in columns])]


def dumps(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\\n"``
    in one pass, numpy values as Python ones, dict keys as ``str(key)``."""
    return _emit(data, "\n") + "\n"


def write_text(path: str, text: str) -> None:
    """Write atomically: no partially written files on disk.  A directory or
    file that cannot be made or written is a UsageError, as in read_json."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror)) from None


def write_json(path: str, data) -> None:
    write_text(path, dumps(data))


def read_json(path: str):
    """Parse a JSON file; a missing or unreadable file is a UsageError."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc.strerror)) from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise UsageError("%s does not parse as JSON: %s" % (path, exc)) from None


# every key a manifest may hold
_MANIFEST_KEYS = frozenset({"schema", "problem", "config", "version", "seed",
                            "x0", "created"})


def manifest_data(problem_name: str, problem_params: dict,
                  config: SolverConfig, version: str,
                  created: bool = False, x0: list[float] | None = None) -> dict:
    """The run manifest; ``x0`` is a start point other than the corpus's."""
    data = {
        "schema": MANIFEST_SCHEMA,
        "problem": {"name": problem_name, "params": dict(problem_params)},
        # every field is a scalar: no deep copy (dataclasses.asdict) needed
        "config": {f.name: getattr(config, f.name)
                   for f in dataclasses.fields(config)},
        "version": version,
        "seed": config.seed,
    }
    if x0 is not None:
        data["x0"] = list(x0)
    if created:
        data["created"] = datetime.now(timezone.utc).isoformat()
    return data


def _branch_data(branch: int) -> dict:
    if branch:
        return {"kind": "constraint", "index": branch}
    return {"kind": "objective"}


_OBJECTIVE_DATA = _branch_data(0)


def _branch_from(data: dict) -> int:
    """0 for exactly ``{"kind": "objective"}``, i for exactly ``{"kind":
    "constraint", "index": i}`` with an integer i >= 1; anything else is
    malformed."""
    if data == _OBJECTIVE_DATA:
        return 0
    index = data.get("index") if type(data) is dict else None
    if type(index) is int and index >= 1 and len(data) == 2 \
            and data.get("kind") == "constraint":
        return index
    raise UsageError("branch must be {\"kind\": \"objective\"} or "
                     "{\"kind\": \"constraint\", \"index\": i >= 1}, got %s"
                     % json.dumps(data))


# a vector's element types: JSON numbers, and the numpy floats of a list
# built in memory from an array
_NUMBER_TYPES = frozenset({float, int, np.float64})


def _vec(value, what: str) -> Vector:
    """A list of numbers, or a float array as ``certificate_data`` holds
    it, as a vector; anything else (true, a string) is a UsageError."""
    if type(value) is list and _NUMBER_TYPES.issuperset(map(type, value)):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:  # an integer entry beyond the float range
            raise UsageError("%s has an integer outside the float range"
                             % what) from None
    if type(value) is np.ndarray and value.dtype == float:
        return value
    raise UsageError("%s must be a list of numbers" % what)


def _number(value, what: str) -> float:
    """A number as a float: an integer must lie in the float range, and
    true or a string is a UsageError.  Callers test for an exact float
    first, the type every real of a parsed document has."""
    return float(value if isinstance(value, float)
                 else _expect(value, float, what))


def _entry_data(entry: WeightedSubgradient) -> dict:
    return {"point": entry.point, "vector": entry.vector,
            "branch": _branch_data(entry.branch), "weight": entry.weight,
            "direction": entry.direction}


def _entry_from(data) -> WeightedSubgradient:
    # each leaf in field order, a well-formed one after one type test
    if type(data) is not dict:
        _expect(data, dict, "combination entry")
    return WeightedSubgradient(
        _vec(data["point"], "combination point"),
        _vec(data["vector"], "combination vector"),
        0 if (branch := data["branch"]) == _OBJECTIVE_DATA
        else _branch_from(branch),
        weight if type(weight := data["weight"]) is float
        else _number(weight, "combination weight"),
        None if (direction := data.get("direction")) is None
        else _vec(direction, "combination direction"))


def certificate_data(cert: GoldsteinCertificate, manifest: dict | None = None) -> dict:
    data = {"schema": CERTIFICATE_SCHEMA, **vars(cert), "manifest": manifest}
    data["combination"] = list(map(_entry_data, cert.combination))
    lam = data.pop("lam")  # "lambda" is a Python keyword
    data["lambda"] = UNDEFINED if lam is None else lam
    return data


# the embedded manifest's leaves that verify never reads, by type
_MANIFEST_LEAVES = {"schema": str, "version": str, "seed": int, "created": str}


def certificate_from_data(data: dict) -> tuple[GoldsteinCertificate, dict | None]:
    """(certificate, embedded manifest) from a parsed document.  A malformed
    document, or a leaf of another JSON type than the encoder writes, is a
    UsageError here and nowhere else."""
    found = data.get("schema") if isinstance(data, dict) else None
    if found != CERTIFICATE_SCHEMA:
        raise UsageError("not a certificate document (schema %r)" % (found,))
    try:
        manifest = data.get("manifest")
        if manifest is not None:  # verify reads and types its problem and
            # config; no check reads the rest
            if type(manifest) is not dict:
                _expect(manifest, dict, "manifest")
            for key, kind in _MANIFEST_LEAVES.items():
                if type(value := manifest.get(key, kind())) is not kind:
                    _expect(value, kind, "manifest " + key)
            if "x0" in manifest:
                _vec(manifest["x0"], "manifest x0")
        lam = data["lambda"]
        # positional, in field order: the leaves are read in that order, so
        # the first malformed one names the document's fault; a real passes
        # on its exact float type, anything else goes to _number
        cert = GoldsteinCertificate(
            _vec(data["anchor"], "anchor"),
            _vec(data["zeta"], "zeta"),
            x if type(x := data["zeta_norm"]) is float
            else _number(x, "zeta_norm"),
            list(map(_entry_from, x)) if type(x := data["combination"]) is list
            else _expect(x, list, "combination"),
            x if type(x := data["gamma0"]) is float else _number(x, "gamma0"),
            x if type(x := data["gamma"]) is float else _number(x, "gamma"),
            lam if type(lam) is float else None if lam == UNDEFINED
            else _number(lam, "lambda"),
            x if type(x := data["eps_effective"]) is float
            else _number(x, "eps_effective"),
            x if type(x := data["delta"]) is float else _number(x, "delta"),
            x if type(x := data["f_anchor"]) is float
            else _number(x, "f_anchor"),
            x if type(x := data["g_anchor"]) is float
            else _number(x, "g_anchor"),
            x if (x := data["kkt_eps"]) is None or type(x) is float
            else _number(x, "kkt_eps"),
            x if (x := data["kkt_eta"]) is None or type(x) is float
            else _number(x, "kkt_eta"),
            x if (x := data["kkt_lambda_bound"]) is None or type(x) is float
            else _number(x, "kkt_lambda_bound"),
            x if (x := data["gcq_sigma"]) is None or type(x) is float
            else _number(x, "gcq_sigma"),
            [w if type(w) is str else _expect(w, str, "warnings entry")
             for w in x]
            if type(x := data.get("warnings", [])) is list
            else _expect(x, list, "warnings"))
        return cert, None if manifest is None else dict(manifest)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            UsageError) as exc:
        reason = (exc if isinstance(exc, UsageError)
                  else "missing key %s" % exc if isinstance(exc, KeyError)
                  else "%s: %s" % (type(exc).__name__, exc))
        raise UsageError("malformed certificate document (%s)" % reason) from None


def trace_data(trace: SolveTrace, manifest: dict | None = None) -> dict:
    data = {"schema": TRACE_SCHEMA, **vars(trace), "manifest": manifest}
    del data["wall_time_s"], data["inner_budget"]
    data["totals"] = {key: data.pop(key)
                      for key in ("outer_steps", "oracle_calls", "value_calls")}
    return data


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _expect(value, kind, what: str):
    """``value`` when its parsed JSON type is ``kind``, a type or a union
    such as ``int | None``; a number may be an integer in the float range,
    but not true or false.  Anything else is a UsageError."""
    found = type(value)
    if found is kind:
        return value
    kinds = typing.get_args(kind) or (kind,)
    if found in kinds or (found is int and float in kinds
                          and abs(value) <= sys.float_info.max):
        return value
    raise UsageError("%s must be %s, got %s" % (
        what, " or ".join(_JSON_NAMES[k] for k in kinds),
        "an integer outside the float range" if found is int and float in kinds
        else _JSON_NAMES.get(found, found.__name__)))


_CONFIG_TYPES = typing.get_type_hints(SolverConfig)
# keys of earlier config versions: accepted with any value and ignored
_RETIRED_CONFIG_KEYS = frozenset({"collect_trajectory", "slackness_samples"})
# config keys without a default, and the solve flag that sets each
_REQUIRED_CONFIG_KEYS = {"delta": "--delta", "target_eps": "--eps"}


def config_from_data(data: dict) -> SolverConfig:
    """Build a SolverConfig from a parsed config object.  Unknown or missing
    keys and values of the wrong JSON type fail; retired keys are ignored."""
    data = {key: value for key, value in _expect(data, dict, "config").items()
            if key not in _RETIRED_CONFIG_KEYS}
    extra = set(data) - set(_CONFIG_TYPES)
    if extra:
        raise UsageError("unknown config keys: %s" % ", ".join(sorted(extra)))
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in data]
    if missing:
        raise UsageError("missing config keys: %s (solve flags %s)" % (
            ", ".join(missing), ", ".join(map(_REQUIRED_CONFIG_KEYS.get, missing))))
    for key, value in data.items():
        _expect(value, _CONFIG_TYPES[key], "config " + key)
    return SolverConfig(**data)
