"""Deterministic JSON encoding for certificates, traces, and manifests.

One schema per document kind.  Certificate and trace documents are built
from the fields of their dataclasses: a field's key is its name, except for
the renames and the ``totals`` nesting frozen here, and its converter
follows its type annotation.  Reals are emitted with Python's shortest
round-trip repr, keys are sorted, and NaN/inf are rejected, so equal
in-memory objects serialize to identical bytes.  Wall time never enters a
trace document: replaying the same manifest must give a byte-identical
file.  The run manifest has an optional ``created`` stamp that is only
written to the standalone manifest file, never to the copies embedded in
traces and certificates.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import sys
import tempfile
import typing
from datetime import datetime, timezone

import numpy as np

from .core import OBJECTIVE, Branch, Vector
from .errors import UsageError
from .solver import SolverConfig, SolveTrace
from .verify import GoldsteinCertificate

CERTIFICATE_SCHEMA = "goldsub.certificate/1"
TRACE_SCHEMA = "goldsub.trace/1"
MANIFEST_SCHEMA = "goldsub.manifest/1"
UNDEFINED = "undefined"


def _finite(text: str) -> str:
    """Joined float reprs; NaN and inf raise, the only reprs with an "n"."""
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
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


def _emit(value, newline: str) -> str:
    """JSON text of ``value`` whose closing bracket follows ``newline``."""
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if set(map(type, value)) != {str}:
            value = dict(zip(map(str, value), value.values()))
        text = ("," + inner).join([_quote(k) + ": " + _emit(v, inner)
                                   for k, v in sorted(value.items())])
        return "{" + inner + text + newline + "}" if value else "{}"
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


def _column(cells: list, newline: str) -> list[str]:
    """JSON texts of ``cells``: one formatter for a column of one leaf type,
    ``_emit`` cell by cell for any other."""
    kinds = set(map(type, cells))
    leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
    if leaf is None:
        return [_emit(v, newline) for v in cells]
    return list(map(leaf, cells))


def _records(rows, newline: str) -> list[str] | None:
    """JSON texts of the items of ``rows`` when they are dicts with one set
    of str keys, such as trace records, built column by column into one
    template; None for any other list."""
    if set(map(type, rows)) != {dict}:
        return None
    keys = rows[0].keys()
    if not keys or set(map(type, keys)) != {str} \
            or not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    keys = sorted(keys)
    inner = newline + "  "
    template = "{" + inner + ("," + inner).join(
        [_quote(k).replace("%", "%%") + ": %s" for k in keys]) + newline + "}"
    columns = [_column(list(map(operator.itemgetter(k), rows)), inner)
               for k in keys]
    return [template % cells for cells in zip(*columns)]


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


def manifest_data(problem_name: str, problem_params: dict,
                  config: SolverConfig, version: str,
                  created: bool = False, x0: list[float] | None = None) -> dict:
    """The run manifest; ``x0`` is a start point other than the corpus's."""
    data = {
        "schema": MANIFEST_SCHEMA,
        "problem": {"name": problem_name, "params": dict(problem_params)},
        "config": dataclasses.asdict(config),
        "version": version,
        "seed": config.seed,
    }
    if x0 is not None:
        data["x0"] = list(x0)
    if created:
        data["created"] = datetime.now(timezone.utc).isoformat()
    return data


def _branch_data(branch: Branch) -> dict:
    data = {"kind": branch.kind}
    if branch.index is not None:
        data["index"] = branch.index
    return data


_OBJECTIVE_DATA = _branch_data(OBJECTIVE)


def _branch_from(data: dict) -> Branch:
    """Exactly ``{"kind": "objective"}`` or ``{"kind": "constraint", "index":
    i}`` with an integer i >= 1; anything else is malformed."""
    if data == _OBJECTIVE_DATA:
        return OBJECTIVE
    index = data.get("index") if type(data) is dict else None
    if type(index) is int and index >= 1 and len(data) == 2 \
            and data.get("kind") == "constraint":
        return Branch("constraint", index)
    raise ValueError("branch must be {\"kind\": \"objective\"} or "
                     "{\"kind\": \"constraint\", \"index\": i >= 1}, got %s"
                     % json.dumps(data))


def _vec(value) -> Vector:
    return np.asarray(value, dtype=float)


def _same(value):
    return value


# document key of a renamed field; "lambda" is a Python keyword
_RENAMED = {"lam": "lambda"}
# trace counters, stored under one "totals" key
_TOTALS = ("outer_steps", "oracle_calls", "value_calls")
# in-memory trace fields: wall time differs between replays, and the inner
# budget follows from the manifest and the problem
_MEMORY_ONLY = frozenset({"wall_time_s", "inner_budget"})
# keys a document may omit; the field then takes its default
_OPTIONAL = frozenset({"direction", "warnings"})

# (encode, decode) by field name, then by annotated type
_NAMED_CODECS = {
    "lam": (lambda v: UNDEFINED if v is None else v,
            lambda v: None if v == UNDEFINED else float(v)),
}
_TYPE_CODECS = {
    float: (_same, float), int: (_same, int), str: (_same, str),
    dict: (_same, dict), np.ndarray: (_same, _vec),
    Branch: (_branch_data, _branch_from),
}


def _codec(tp):
    args = typing.get_args(tp)
    if type(None) in args:  # X | None: None passes through both ways
        (enc, dec), = [_codec(a) for a in args if a is not type(None)]
        return (lambda v: None if v is None else enc(v),
                lambda v: None if v is None else dec(v))
    if typing.get_origin(tp) is list:
        enc, dec = _codec(args[0])
        return (lambda v: list(map(enc, v)), lambda v: list(map(dec, v)))
    return _TYPE_CODECS[tp] if tp in _TYPE_CODECS else _record_codec(tp)


def _record_codec(cls):
    """(encode, decode) between a dataclass and its document object, from
    its fields; resolved once, since type hints cost more than a decode."""
    hints = typing.get_type_hints(cls)
    kinds = [2 if f.name in _MEMORY_ONLY else f.name in _OPTIONAL
             for f in dataclasses.fields(cls)]
    if kinds != sorted(kinds):  # decoded by position: omissible fields last
        raise TypeError("%s: optional, then in-memory fields must come last"
                        % cls.__name__)
    fields = [(f.name, _RENAMED.get(f.name, f.name),
               *(_NAMED_CODECS.get(f.name) or _codec(hints[f.name])))
              for f in dataclasses.fields(cls) if f.name not in _MEMORY_ONLY]
    decoders = [(key, dec, key in _OPTIONAL) for _, key, _, dec in fields]

    def encode(obj) -> dict:
        return {key: enc(getattr(obj, name)) for name, key, enc, _ in fields}

    def decode(data: dict):
        return cls(*[dec(data[key]) for key, dec, opt in decoders
                     if not opt or key in data])

    return encode, decode


_encode_cert, _decode_cert = _record_codec(GoldsteinCertificate)
_encode_trace, _ = _record_codec(SolveTrace)


def certificate_data(cert: GoldsteinCertificate, manifest: dict | None = None) -> dict:
    return {"schema": CERTIFICATE_SCHEMA, **_encode_cert(cert), "manifest": manifest}


def certificate_from_data(data: dict) -> tuple[GoldsteinCertificate, dict | None]:
    """(certificate, embedded manifest) from a parsed document.  A malformed
    document is a UsageError here and nowhere else."""
    found = data.get("schema") if isinstance(data, dict) else None
    if found != CERTIFICATE_SCHEMA:
        raise UsageError("not a certificate document (schema %r)" % (found,))
    try:
        manifest = data.get("manifest")
        return _decode_cert(data), None if manifest is None else dict(manifest)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UsageError("malformed certificate document (%s: %s)"
                         % (type(exc).__name__, exc)) from None


def trace_data(trace: SolveTrace, manifest: dict | None = None) -> dict:
    data = _encode_trace(trace)
    data["totals"] = {key: data.pop(key) for key in _TOTALS}
    return {"schema": TRACE_SCHEMA, **data, "manifest": manifest}


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _expect(value, kind, what: str):
    """``value`` when its parsed JSON type is ``kind``, a type or a union
    such as ``int | None``; a number may be an integer in the float range,
    but not true or false.  Anything else is a UsageError."""
    kinds = typing.get_args(kind) or (kind,)
    found = type(value)
    if found in kinds or (found is int and float in kinds
                          and abs(value) <= sys.float_info.max):
        return value
    raise UsageError("%s must be %s, got %s"
                     % (what, " or ".join(_JSON_NAMES[k] for k in kinds),
                        _JSON_NAMES.get(found, found.__name__)))


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
