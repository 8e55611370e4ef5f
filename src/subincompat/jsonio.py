"""JSON conventions shared by the CLI, the corpus and the report files.

Matrices serialise as nested lists of [re, im] pairs (row-major); every
report carries schema_version, tool version, the seed in effect and SHA-256
hashes of its input files.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any

import numpy as np

from . import __version__
from .povm import Assemblage, ParentPovm, setting
from .steering import BipartiteState

SCHEMA_VERSION = 1


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(j: Any) -> np.ndarray:
    try:
        arr = np.asarray(j, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix entries must be [re, im] number pairs: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"matrix must be a nested list of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_json(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex).ravel()]


def _json_type(v) -> str:
    """The JSON type of a loaded value, or the number itself."""
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
             type(None): "null"}
    return names.get(type(v), repr(v))


def _dimension(j: dict, key: str, where: str) -> int:
    """j[key] as an int: a JSON number >= 1 without a fractional part."""
    v = j[key]
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and float(v).is_integer() and v >= 1:
        return int(v)
    raise ValueError(f"{where} field {key!r} must be a positive integer, got {_json_type(v)}")


def _array(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be an array, got {_json_type(v)}")
    return v


def assemblage_to_json(a: Assemblage) -> dict:
    return {
        "dim": a.dim,
        "measurements": [
            {"elements": [matrix_to_json(e) for e in m.elements]} for m in a.measurements
        ],
    }


def assemblage_from_json(j: dict) -> Assemblage:
    if not isinstance(j, dict) or "dim" not in j or "measurements" not in j:
        raise ValueError("assemblage JSON must have 'dim' and 'measurements'")
    d = _dimension(j, "dim", "assemblage")
    ms = []
    for k, mj in enumerate(_array(j["measurements"], "assemblage field 'measurements'")):
        if not isinstance(mj, dict):
            raise ValueError(f"measurement {k} must be an object, got {_json_type(mj)}")
        if "elements" not in mj:
            raise ValueError(f"measurement {k} lacks 'elements'")
        els = _array(mj["elements"], f"measurement {k} field 'elements'")
        ms.append(setting(k, d, [matrix_from_json(e) for e in els]))
    return Assemblage(d, ms)


def parent_to_json(p: ParentPovm) -> dict:
    return {
        "dim": p.dim,
        "outcome_labels": [list(lab) for lab in p.outcome_labels],
        "elements": [matrix_to_json(e) for e in p.elements],
    }


def state_to_json(s: BipartiteState) -> dict:
    return {"dA": s.dA, "dB": s.dB, "matrix": matrix_to_json(s.matrix)}


def state_from_json(j: dict) -> BipartiteState:
    if not isinstance(j, dict) or not {"dA", "dB", "matrix"} <= set(j):
        raise ValueError("state JSON must have 'dA', 'dB' and 'matrix'")
    return BipartiteState(_dimension(j, "dA", "state"), _dimension(j, "dB", "state"),
                          matrix_from_json(j["matrix"]))


def state_assemblage_to_json(sa: Assemblage) -> dict:
    return {
        "dB": sa.dim,
        "sigmas": [[matrix_to_json(s) for s in row] for row in sa.settings()],
        "reduced": matrix_to_json(sa.total),
    }


def state_assemblage_from_json(j: dict) -> Assemblage:
    if not isinstance(j, dict) or not {"dB", "sigmas", "reduced"} <= set(j):
        raise ValueError("state assemblage JSON must have 'dB', 'sigmas' and 'reduced'")
    d = _dimension(j, "dB", "state assemblage")
    rows = _array(j["sigmas"], "state assemblage field 'sigmas'")
    reduced = matrix_from_json(j["reduced"])
    return Assemblage(d, [
        setting(x, d, [matrix_from_json(s) for s in _array(row, f"sigmas row {x}")], reduced)
        for x, row in enumerate(rows)
    ])


# one reader and one writer per instance kind; docs/schema/<kind>.schema.json
# publishes each kind's format (a parent is written, never read)
READERS = {
    "assemblage": assemblage_from_json,
    "state": state_from_json,
    "state_assemblage": state_assemblage_from_json,
}

WRITERS = {
    "assemblage": assemblage_to_json,
    "parent": parent_to_json,
    "state": state_to_json,
    "state_assemblage": state_assemblage_to_json,
}


def kind_of(data) -> str:
    """The instance kind of a loaded JSON object: its "kind" field, else the
    kind whose fields it has."""
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    if "kind" in data:
        return str(data["kind"])
    if "measurements" in data:
        return "assemblage"
    if "sigmas" in data:
        return "state_assemblage"
    if "matrix" in data and "dA" in data:
        return "state"
    raise ValueError(
        "cannot determine the input kind (expected assemblage, state or "
        "state_assemblage fields)"
    )


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def report_skeleton(command: str, seed, inputs: dict[str, str]) -> dict:
    """Common header every CLI report starts from; `inputs` maps each input
    label (a file path or a builtin key) to its SHA-256 hash."""
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": dict(inputs),
    }

