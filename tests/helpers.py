"""Shared instance generators for the test suite.

Every generator is deterministic given its rng/seed so the whole suite is
reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from subincompat import linalg
from subincompat.povm import Assemblage, Povm, from_basis, random_povm
from subincompat.steering import BipartiteState


def compatible_pair(d: int, ma: int, mb: int, rng) -> Assemblage:
    """A jointly measurable pair, built as the singleton marginals of a
    random (ma x mb)-outcome parent POVM."""
    g = random_povm(d, ma * mb, rng)
    els_a = [sum(g.elements[i * mb + j] for j in range(mb)) for i in range(ma)]
    els_b = [sum(g.elements[i * mb + j] for i in range(ma)) for j in range(mb)]
    return Assemblage(d, [Povm(d, els_a), Povm(d, els_b)])


def haar_basis(d: int, rng) -> list[np.ndarray]:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q = np.linalg.qr(g)[0]
    return [q[:, k] for k in range(d)]


def sharp_pair(d: int, rng) -> Assemblage:
    """Two Haar-random rank-one PVMs (typically incompatible)."""
    return Assemblage(d, [from_basis(haar_basis(d, rng)), from_basis(haar_basis(d, rng))])


def random_mixed_state(dA: int, dB: int, rng, mix: float = 1e-2) -> BipartiteState:
    n = dA * dB
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = (1 - mix) * rho + mix * np.eye(n) / n
    return BipartiteState(dA, dB, linalg.hermitianize(rho))


def steering_instance(i: int):
    """Deterministic steering test instance: alternates noisy mixed states
    with smeared POVMs and near-pure entangled states with sharp bases, so
    both steerable and unsteerable cases occur."""
    rng = np.random.default_rng(900 + i)
    d = 2 if i % 2 == 0 else 3
    n = d * d
    if i % 3 == 0:
        rho = random_mixed_state(d, d, rng, mix=0.01)
        alice = Assemblage(d, [random_povm(d, 2, rng), random_povm(d, 3, rng)])
    else:
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        mat = 0.995 * np.outer(psi, psi.conj()) + 0.005 * np.eye(n) / n
        rho = BipartiteState(d, d, linalg.hermitianize(mat))
        alice = Assemblage(d, [from_basis(haar_basis(d, rng)), from_basis(haar_basis(d, rng))])
    return rho, alice


def real_embedding(m) -> np.ndarray:
    """Embed a Hermitian d x d matrix as a real symmetric 2d x 2d matrix.

    H = A + iB maps to [[A, -B], [B, A]].  The embedding is linear, preserves
    positive semidefiniteness in both directions and doubles every eigenvalue's
    multiplicity.
    """
    a = linalg.check_hermitian(m)
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def sigma_xz_pair(mu: float = 1.0) -> Assemblage:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return Assemblage(
        2,
        [Povm(2, [(eye + mu * s) / 2, (eye - mu * s) / 2]) for s in (sx, sz)],
    )
