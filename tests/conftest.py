"""Shared test oracles and probes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import goldsub.inner_rand as inner_rand
from goldsub.verify import recombine


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


def _round_state(combo, zeta) -> dict:
    entries = combo.export()
    resid = recombine(entries, [w.vector for w in entries], zeta.size) - zeta
    weights = combo.weights()
    return {"zeta_norm": math.sqrt(zeta.dot(zeta)),
            "recombine_residual": math.sqrt(resid.dot(resid)),
            "weight_sum": float(sum(weights)),
            "min_weight": float(min(weights))}


@pytest.fixture
def watch_rounds(monkeypatch):
    """Per-round state of the inner searches a test runs, watched from
    outside the round loop: one list per search that makes at least one
    segment update, holding the opening state and then the state after
    each round (||zeta||, recombination residual, weight sum, least
    weight)."""
    runs: list[list[dict]] = []
    combos: list[object] = []  # the combination each run belongs to
    zetas = {}
    coefficient = inner_rand.segment_projection_coefficient
    update = inner_rand._Combination.segment_update

    def watched_coefficient(a, b):
        t = coefficient(a, b)
        # the loop's own zeta update, so the watcher sees the same bits
        zetas["before"], zetas["after"] = a, (1.0 - t) * a + t * b
        return t

    def watched_update(combo, t, term):
        if not combos or combos[-1] is not combo:
            combos.append(combo)
            runs.append([_round_state(combo, zetas["before"])])
        update(combo, t, term)
        runs[-1].append(_round_state(combo, zetas["after"]))

    monkeypatch.setattr(inner_rand, "segment_projection_coefficient",
                        watched_coefficient)
    monkeypatch.setattr(inner_rand._Combination, "segment_update",
                        watched_update)
    return runs
