"""Built-in instance corpus: every named example ships as an exact
construction (entries evaluated in double precision, >= 15 significant
digits) and can be written out as JSON files for external use."""

from __future__ import annotations

import json
import os

import numpy as np

from . import jsonio
from .povm import Assemblage, ParentPovm, Povm, depolarise, from_basis, truncate
from .steering import BipartiteState, assemblage_from_state, peres_mubs, peres_state
from . import linalg

# the steerable parameter point found by the grid scan (step 0.02) of the
# PPT-invariant family; lhs slack there is about -3.5e-4
PERES_STEERABLE_POINT = (0.18, 0.46)


def _sigma_xz() -> Assemblage:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return Assemblage(
        2,
        [
            Povm(2, [(eye + sx) / 2, (eye - sx) / 2]),
            Povm(2, [(eye + sz) / 2, (eye - sz) / 2]),
        ],
    )


def _sigma_xz_noisy() -> Assemblage:
    return depolarise(_sigma_xz(), 1.0 / np.sqrt(2.0))


def _parent_four_outcome() -> ParentPovm:
    """G_{ij} = (1 + (i sx + j sz)/sqrt(2)) / 4 for i, j in {+1, -1}; its
    marginals reproduce the noisy pair at mu = 1/sqrt(2)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    labels, els = [], []
    for ia, i in enumerate((1, -1)):
        for ja, j in enumerate((1, -1)):
            labels.append((ia, ja))
            els.append((eye + (i * sx + j * sz) / np.sqrt(2.0)) / 4.0)
    return ParentPovm(2, labels, els, (2, 2))


def _fourier_qutrit() -> list[np.ndarray]:
    w = np.exp(2j * np.pi / 3)
    return [np.array([1, w**k, w ** (2 * k)], dtype=complex) / np.sqrt(3.0) for k in range(3)]


def _qutrit_pair() -> Assemblage:
    eye = np.eye(3, dtype=complex)
    a_els = [(eye - np.outer(eye[:, i], eye[:, i])) / 2 for i in range(3)]
    b_els = [np.outer(eye[:, j], eye[:, j]) / 2 for j in range(3)]
    b_els += [np.outer(p, p.conj()) / 2 for p in _fourier_qutrit()]
    return Assemblage(3, [Povm(3, a_els), Povm(3, b_els)])


def _qubit_counterexample_pair() -> Assemblage:
    return truncate(_qutrit_pair(), linalg.projector_from_basis(_fourier_qutrit()[:2]))


def _e5_basis() -> list[np.ndarray]:
    return [
        np.array([1, 2, 3], dtype=complex) / np.sqrt(14.0),
        np.array([-5, 1, 1], dtype=complex) / np.sqrt(27.0),
        np.array([1, 16, -11], dtype=complex) / np.sqrt(378.0),
    ]


def _fully_compressible() -> Assemblage:
    comp = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    return Assemblage(3, [from_basis(comp), from_basis(_e5_basis())])


def _mub_qutrit() -> Assemblage:
    comp = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    return Assemblage(3, [from_basis(comp), from_basis(_fourier_qutrit())])


def _peres_steerable_state() -> BipartiteState:
    return peres_state(*PERES_STEERABLE_POINT)[0]


def _peres_steerable_assemblage():
    return assemblage_from_state(_peres_steerable_state(), peres_mubs())


CORPUS = {
    "sigma-xz-sharp": ("assemblage", _sigma_xz, "sharp sigma_x / sigma_z qubit pair"),
    "sigma-xz-noisy": (
        "assemblage",
        _sigma_xz_noisy,
        "sigma_x / sigma_z pair depolarised at the compatibility threshold 1/sqrt(2)",
    ),
    "parent-four-outcome": (
        "parent",
        _parent_four_outcome,
        "four-outcome parent whose marginals give the threshold noisy pair",
    ),
    "qutrit-pair": (
        "assemblage",
        _qutrit_pair,
        "qutrit complement measurement vs six-outcome computational+Fourier POVM",
    ),
    "qubit-counterexample": (
        "assemblage",
        _qubit_counterexample_pair,
        "coexistent-but-incompatible qubit pair from truncating the qutrit pair",
    ),
    "fully-compressible": (
        "assemblage",
        _fully_compressible,
        "computational-basis PVM vs a PVM incompatible with it on every plane",
    ),
    "mub-qutrit": (
        "assemblage",
        _mub_qutrit,
        "computational vs Fourier qutrit MUB pair",
    ),
    "peres-mubs": ("assemblage", peres_mubs, "the two MUBs measured on the PPT family"),
    "peres-steerable-state": (
        "state",
        _peres_steerable_state,
        f"PPT-invariant state at the steerable scan point {PERES_STEERABLE_POINT}",
    ),
    "peres-steerable": (
        "state_assemblage",
        _peres_steerable_assemblage,
        "steerable state assemblage: the PPT state measured with the two MUBs",
    ),
}


def builtin_keys() -> list[str]:
    return sorted(CORPUS)


def kind_of(key: str) -> str:
    return CORPUS[key][0]


def build(key: str):
    """Construct a builtin instance by key."""
    if key not in CORPUS:
        raise KeyError(f"unknown builtin {key!r}; available: {', '.join(builtin_keys())}")
    return CORPUS[key][1]()


def to_json(key: str) -> dict:
    kind, builder, desc = CORPUS[key]
    obj = builder()
    if kind == "assemblage":
        payload = jsonio.assemblage_to_json(obj)
    elif kind == "parent":
        payload = jsonio.parent_to_json(obj)
    elif kind == "state":
        payload = jsonio.state_to_json(obj)
    elif kind == "state_assemblage":
        payload = jsonio.state_assemblage_to_json(obj)
    else:  # pragma: no cover
        raise ValueError(kind)
    payload["key"] = key
    payload["kind"] = kind
    payload["description"] = desc
    if key == "peres-steerable-state":
        m1, m2 = PERES_STEERABLE_POINT
        payload["scan_certificate"] = {
            "m1": m1,
            "m2": m2,
            "grid_step": 0.02,
            "note": "lhs slack at this point is negative (steerable); "
            "reproduce with: subincompat steering lhs --builtin peres-steerable",
        }
    return payload


def write_corpus(directory: str) -> list[str]:
    """Write every builtin instance to <directory>/<key>.json."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for key in builtin_keys():
        path = os.path.join(directory, f"{key}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(to_json(key), f, indent=1)
            f.write("\n")
        written.append(path)
    return written

