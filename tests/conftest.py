"""Shared test oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest


def _plain(value):
    """``value`` as json.dumps takes it: numpy arrays and scalars as Python
    values, tuples as lists, dict keys as ``str(key)``."""
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _stdlib_dumps(value) -> str:
    return json.dumps(_plain(value), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


@pytest.fixture(scope="session")
def stdlib_dumps():
    """The standard library's encoding of a document, which
    ``serialize.dumps`` must reproduce byte for byte."""
    return _stdlib_dumps
