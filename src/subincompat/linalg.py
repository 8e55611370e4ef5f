"""Deterministic complex-Hermitian linear algebra kernel.

Everything downstream (POVM validation, the SDP modelling layer, Haar
sampling of subspaces) sits on the helpers in this module.  Matrices are plain complex
numpy arrays; Hermiticity is validated, not assumed.  Eigenvectors, which
feed results (Kraus-like decompositions, subspace bases),
come from ``eig_hermitian`` (LAPACK ``numpy.linalg.eigh``, descending);
PSD checks need only the smallest eigenvalue and take it from
``numpy.linalg.eigvalsh`` (``min_eigenvalue``), one call for a whole
stack of matrices, as the SDP solver does for its own linear algebra.
Both are deterministic for identical inputs.

Random subspaces are drawn with ``numpy.random.default_rng`` (PCG64); every
stochastic routine takes an explicit integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
PROJ_TOL = 1e-10


def as_square(m) -> np.ndarray:
    """m as a complex128 array, checked to be a square matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate that m is a square Hermitian matrix; return it as complex128."""
    a = as_square(m)
    check_hermitian_stack(a[None], tol)
    return a


def check_hermitian_stack(m, tol: float = HERM_TOL) -> np.ndarray:
    """Validate that m is an (n, d, d) stack of Hermitian matrices; return it
    as complex128.  A non-finite or non-Hermitian stack fails with
    ``check_hermitian``'s message for its first such matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    dev = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        raise ValueError(f"matrix is not Hermitian (deviation {dev[bad[0]]:.3e} > {tol:.1e})")
    return a


def hermitianize(m, out=None) -> np.ndarray:
    """The Hermitian part (m + m†)/2 over the last two axes, written into
    ``out`` when given."""
    a = np.asarray(m, dtype=complex)
    out = np.add(a, a.conj().swapaxes(-1, -2), out=out)
    out /= 2
    return out


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending,
    eigenvectors as orthonormal columns of a complex matrix, with
    m = V diag(w) V† within 1e-10.
    """
    vals, vecs = np.linalg.eigh(check_hermitian(m))
    return vals[::-1], vecs[:, ::-1]


def min_eigenvalue(m):
    """Smallest eigenvalue of a Hermitian matrix, or of each matrix of an
    (n, d, d) stack: one validation (``check_hermitian`` or
    ``check_hermitian_stack``) and one LAPACK eigvalsh."""
    a = np.asarray(m, dtype=complex)
    a = check_hermitian_stack(a) if a.ndim == 3 else check_hermitian(a)
    return np.linalg.eigvalsh(a)[..., 0]


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


def orthonormal_columns(vectors) -> np.ndarray:
    """The vectors (rows of an array, or a list) as the columns of a d x n
    complex array, checked to be a basis of their span: at least one
    vector, equal lengths, and orthonormal within PROJ_TOL."""
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not vs:
        raise ValueError("no basis vectors given")
    lengths = sorted({v.size for v in vs})
    if len(lengths) > 1:
        raise ValueError(f"basis vectors have unequal lengths {lengths}")
    b = np.column_stack(vs)
    dev = np.abs(b.conj().T @ b - np.eye(len(vs))).max()
    if not dev <= PROJ_TOL:  # also refuses NaN
        raise ValueError(f"basis vectors are not orthonormal (deviation {dev:.3e} > {PROJ_TOL:.1e})")
    return b


def compress(stack, w) -> np.ndarray:
    """The compression w^H S w of one matrix S, or of every matrix of an
    (n, d, d) stack, made exactly Hermitian.  With w a subspace basis this is
    truncation onto the subspace, read on that basis."""
    return hermitianize(w.conj().T @ np.asarray(stack, dtype=complex) @ w)


@dataclass(eq=False)
class Projector:
    """Orthogonal projector onto the span of an orthonormal basis."""

    basis: np.ndarray  # dim x rank, orthonormal columns

    def __post_init__(self):
        self.basis = orthonormal_columns(np.asarray(self.basis).T)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        b = self.basis
        return hermitianize(b @ b.conj().T)


def projector_from_basis(vectors) -> Projector:
    """The projector onto the span of orthonormal vectors (rows or list)."""
    return Projector(orthonormal_columns(vectors))


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
    return Projector(_mgs(g))
