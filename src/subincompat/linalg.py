"""Deterministic complex-Hermitian linear algebra kernel.

Everything downstream (POVM validation, the SDP modelling layer, Haar
sampling of subspaces) sits on the helpers in this module.  Matrices are plain complex
numpy arrays; Hermiticity is validated, not assumed.  Eigenvectors, which
feed results (Kraus-like decompositions, subspace bases, projector ranges),
come from ``eig_hermitian``: a cyclic Jacobi iteration on the real symmetric
embedding with a fixed sweep order, exact enough for the small dense
operators used here (d <= ~50).  PSD checks need only the smallest
eigenvalue and take it from LAPACK (``numpy.linalg.eigvalsh``), as the SDP
solver does for its own linear algebra; both paths are deterministic for
identical inputs.

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


def real_embedding(m) -> np.ndarray:
    """Embed a Hermitian d x d matrix as a real symmetric 2d x 2d matrix.

    H = A + iB maps to [[A, -B], [B, A]].  The embedding is linear, preserves
    positive semidefiniteness in both directions and doubles every eigenvalue's
    multiplicity.
    """
    a = check_hermitian(m)
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def unembed(w) -> np.ndarray:
    """Inverse of real_embedding on the invariant subspace.

    For a general symmetric w the result is the Hermitian matrix whose
    embedding is the J-invariant average of w (J the embedded multiplication
    by i); for w = real_embedding(h) it returns h exactly.
    """
    w = np.asarray(w, dtype=float)
    d2 = w.shape[0]
    if d2 % 2:
        raise ValueError("embedded matrix must have even dimension")
    d = d2 // 2
    w11, w12 = w[:d, :d], w[:d, d:]
    w21, w22 = w[d:, :d], w[d:, d:]
    return (w11 + w22) / 2 + 1j * (w21 - w12) / 2


def _jacobi_sym(s: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Cyclic Jacobi diagonalisation of a real symmetric matrix.

    Returns (eigenvalues, eigenvector columns), unsorted.  Deterministic:
    fixed sweep order, no pivot heuristics.
    """
    a = np.array(s, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.array([a[0, 0]]), v
    scale = max(1.0, np.abs(np.diag(a)).max())
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * apq)
                if abs(theta) > 1e150:  # theta**2 would overflow; use 1/2theta
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0:
                    t = 1.0
                c = 1 / np.sqrt(t * t + 1)
                sn = t * c
                # rotate columns p, q of a (and rows, by symmetry), then v
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - sn * aq
                a[:, q] = sn * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - sn * aq
                a[q, :] = sn * ap + c * aq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    return np.diag(a).copy(), v


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending,
    eigenvectors as orthonormal columns of a complex matrix, with
    m = V diag(w) V† within 1e-10.

    Runs Jacobi on the real embedding; each eigenvalue of m appears twice
    there, and the doubled eigenvectors are mapped back to complex vectors
    (top half + i * bottom half) with a Gram-Schmidt pass selecting one
    complex representative per doubled pair.
    """
    a = check_hermitian(m)
    d = a.shape[0]
    emb = real_embedding(a)
    w2, v2 = _jacobi_sym(emb)
    order = np.argsort(-w2, kind="stable")
    w2 = w2[order]
    v2 = v2[:, order]
    # embedded eigenvalues come in equal pairs; average consecutive pairs
    vals = (w2[0::2] + w2[1::2]) / 2
    scale = max(1.0, np.abs(vals).max())
    # cluster nearby eigenvalues, then pick d complex vectors cluster by cluster
    vecs = np.zeros((d, d), dtype=complex)
    col = 0
    i = 0
    while i < d:
        j = i + 1
        while j < d and vals[j - 1] - vals[j] <= 1e-11 * scale:
            j += 1
        k = j - i  # complex multiplicity of this cluster
        cand = v2[:, 2 * i : 2 * j]
        zs = cand[:d, :] + 1j * cand[d:, :]
        kept: list[np.ndarray] = []
        resid: list[tuple[float, np.ndarray]] = []
        for t in range(zs.shape[1]):
            z = zs[:, t].copy()
            for u in kept:
                z -= u * (u.conj() @ z)
            nz = np.linalg.norm(z)
            resid.append((nz, z))
            if nz > 1e-6 and len(kept) < k:
                kept.append(z / nz)
        while len(kept) < k:  # numerical fallback: take largest residuals
            resid.sort(key=lambda rz: -rz[0])
            nz, z = resid.pop(0)
            for u in kept:
                z -= u * (u.conj() @ z)
            kept.append(z / np.linalg.norm(z))
        for u in kept:
            vecs[:, col] = u
            col += 1
        i = j
    return vals, vecs


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


def projector_from_matrix(p) -> Projector:
    """Build a Projector (with recovered basis) from an idempotent matrix."""
    a = check_hermitian(p, tol=1e-10)
    vals, vecs = eig_hermitian(a)
    rank = int(np.sum(vals > 0.5))
    return Projector(dim=a.shape[0], rank=rank, matrix=a, basis=vecs[:, :rank])


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
