"""Deterministic complex-Hermitian linear algebra kernel.

Everything downstream (POVM validation, the SDP modelling layer, Haar
sampling of subspaces) sits on the helpers in this module.  Matrices are plain complex
numpy arrays; Hermiticity is validated, not assumed.  Eigenvectors, which
feed results (Kraus-like decompositions, subspace bases),
come from ``eig_hermitian`` (LAPACK ``numpy.linalg.eigh``, descending);
PSD checks need only the smallest eigenvalue and take it from
``numpy.linalg.eigvalsh``, as the SDP solver does for its own linear
algebra.  Both are deterministic for identical inputs.

Random subspaces are drawn with ``numpy.random.default_rng`` (PCG64); every
stochastic routine takes an explicit integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-12
PROJ_TOL = 1e-10
PSD_TOL = 1e-9


def check_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate that m is a square Hermitian matrix; return it as complex128."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return a


def hermitianize(m) -> np.ndarray:
    """Project onto the Hermitian part, (m + m†)/2."""
    a = np.asarray(m, dtype=complex)
    return (a + a.conj().T) / 2


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending,
    eigenvectors as orthonormal columns of a complex matrix, with
    m = V diag(w) V† within 1e-10.
    """
    vals, vecs = np.linalg.eigh(check_hermitian(m))
    return vals[::-1], vecs[:, ::-1]


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix (LAPACK eigvalsh)."""
    return float(np.linalg.eigvalsh(check_hermitian(m))[0])


def is_psd(m, tol: float = PSD_TOL) -> bool:
    return min_eigenvalue(m) >= -tol


def partial_trace(m, dims, traced_side: str = "A") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^dA x C^dB."""
    da, db = dims
    a = check_hermitian(m)
    if a.shape[0] != da * db:
        raise ValueError(f"dimension mismatch: {a.shape[0]} != {da}*{db}")
    r = a.reshape(da, db, da, db)
    if traced_side == "A":
        return np.einsum("ijil->jl", r)
    if traced_side == "B":
        return np.einsum("ijlj->il", r)
    raise ValueError("traced_side must be 'A' or 'B'")


def partial_transpose(m, dims, side: str = "A") -> np.ndarray:
    """Transpose one tensor factor of an operator on C^dA x C^dB."""
    da, db = dims
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != da * db:
        raise ValueError(f"dimension mismatch: {a.shape} vs {da}*{db}")
    r = a.reshape(da, db, da, db)
    if side == "A":
        return r.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    if side == "B":
        return r.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    raise ValueError("side must be 'A' or 'B'")


@dataclass(eq=False)
class Projector:
    """Rank-n orthogonal projector with an explicit orthonormal range basis."""

    dim: int
    rank: int
    matrix: np.ndarray
    basis: np.ndarray = field(repr=False)  # dim x rank, orthonormal columns

    def __post_init__(self):
        p = check_hermitian(self.matrix, tol=1e-10)
        if np.abs(p @ p - p).max() > PROJ_TOL:
            raise ValueError("matrix is not idempotent")
        if abs(np.trace(p).real - self.rank) > PROJ_TOL:
            raise ValueError("trace does not match rank")
        b = np.asarray(self.basis, dtype=complex)
        if b.shape != (self.dim, self.rank):
            raise ValueError("basis shape mismatch")
        gram = b.conj().T @ b
        if np.abs(gram - np.eye(self.rank)).max() > PROJ_TOL:
            raise ValueError("basis is not orthonormal")


def projector_from_basis(vectors) -> Projector:
    """Build a Projector from orthonormal spanning vectors (rows or list)."""
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    d = vs[0].size
    b = np.column_stack(vs)
    p = b @ b.conj().T
    return Projector(dim=d, rank=len(vs), matrix=hermitianize(p), basis=b)


def _mgs(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt orthonormalisation of the columns."""
    b = np.array(columns, dtype=complex)
    for k in range(b.shape[1]):
        for j in range(k):
            b[:, k] -= b[:, j] * (b[:, j].conj() @ b[:, k])
        nrm = np.linalg.norm(b[:, k])
        if nrm < 1e-12:
            raise ValueError("vectors are numerically dependent")
        b[:, k] /= nrm
    return b


def haar_subspace(d: int, n: int, seed: int) -> Projector:
    """Haar-random rank-n projector in dimension d (deterministic per seed).

    Draws n complex standard Gaussian d-vectors (real parts first, then
    imaginary parts) from PCG64 and orthonormalises them by modified
    Gram-Schmidt; the span is then Haar-distributed on the Grassmannian.
    """
    if not 1 <= n < d:
        raise ValueError(f"need 1 <= n < d, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    b = _mgs(g)
    p = b @ b.conj().T
    return Projector(dim=d, rank=n, matrix=hermitianize(p), basis=b)
