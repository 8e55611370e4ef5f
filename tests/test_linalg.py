import numpy as np
import pytest

from subincompat import linalg

from helpers import real_embedding


def test_eig_hermitian_descending_and_reconstructs():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = g[:, 0] / np.linalg.norm(g[:, 0])
    degenerate = np.eye(4) + 0.5 * np.outer(v, v.conj())  # eigenvalue 1, three times
    for m in ((g + g.conj().T) / 2, degenerate):
        vals, vecs = linalg.eig_hermitian(m)
        assert np.all(np.diff(vals) <= 1e-12)  # descending
        assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12
        assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - m).max() < 1e-12
    assert np.allclose(vals, [1.5, 1.0, 1.0, 1.0])


def test_eig_hermitian_pauli_z():
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    vals, _ = linalg.eig_hermitian(sz)
    assert np.allclose(vals, [1.0, -1.0])


def test_hermitianize_and_check():
    m = np.array([[1.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]])
    checked = linalg.check_hermitian(m)
    assert checked.dtype == complex and np.array_equal(checked, m)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = linalg.hermitianize(m + 1e-13 * np.array([[0, 1j], [0, 0]]))
    assert np.abs(h - h.conj().T).max() == 0.0


def test_min_eigenvalue_of_a_matrix_and_of_a_stack():
    assert linalg.min_eigenvalue(np.diag([1.0, 0.0]).astype(complex)) >= 0.0
    assert linalg.min_eigenvalue(np.diag([1.0, -1e-3]).astype(complex)) < -1e-9
    assert abs(linalg.min_eigenvalue(np.diag([3.0, -2.0]).astype(complex)) + 2.0) < 1e-12
    rng = np.random.default_rng(2)
    g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stack = linalg.hermitianize(g)
    got = linalg.min_eigenvalue(stack)
    assert got.shape == (5,)
    assert all(got[k] == linalg.min_eigenvalue(m) for k, m in enumerate(stack))
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.min_eigenvalue(g)


def test_partial_trace_of_product():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a + a.conj().T
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b + b.conj().T
    m = np.kron(a, b)
    # tracing side A of A (x) B leaves tr(A) * B, and vice versa
    assert np.abs(linalg.partial_trace(m, (2, 3), "A") - np.trace(a) * b).max() < 1e-12
    assert np.abs(linalg.partial_trace(m, (2, 3), "B") - np.trace(b) * a).max() < 1e-12


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.kron(a, b)
    pt = linalg.partial_transpose(m, (2, 3), side="A")
    assert np.abs(pt - np.kron(a.T, b)).max() < 1e-12
    assert np.abs(linalg.partial_transpose(pt, (2, 3), side="A") - m).max() < 1e-12


def test_projector_from_basis_invariants():
    v0 = np.array([1, 0, 0], dtype=complex)
    v1 = np.array([0, 1, 1], dtype=complex) / np.sqrt(2)
    p = linalg.projector_from_basis([v0, v1])
    assert p.rank == 2 and p.dim == 3
    assert np.abs(p.matrix @ p.matrix - p.matrix).max() < 1e-12
    assert np.abs(p.matrix - p.matrix.conj().T).max() < 1e-12
    assert p.basis.shape == (3, 2)
    assert np.abs(p.basis.conj().T @ p.basis - np.eye(2)).max() < 1e-12


def test_projector_from_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        linalg.projector_from_basis(
            [np.array([1, 1, 0], dtype=complex), np.array([0, 1, 0], dtype=complex)]
        )


def test_projector_is_its_basis():
    p = linalg.haar_subspace(4, 2, seed=7)
    b = p.basis
    assert (p.dim, p.rank) == b.shape == (4, 2)
    assert np.array_equal(p.matrix, linalg.hermitianize(b @ b.conj().T))
    with pytest.raises(ValueError, match="basis vectors are not orthonormal"):
        linalg.Projector(2 * b)


def test_orthonormal_columns_names_the_basis_vectors():
    e = np.eye(3, dtype=complex)
    b = linalg.orthonormal_columns([e[0], e[2]])
    assert np.array_equal(b, e[:, [0, 2]])
    with pytest.raises(ValueError, match=r"basis vectors have unequal lengths \[2, 3\]"):
        linalg.orthonormal_columns([e[0], e[1, :2]])
    with pytest.raises(ValueError, match="basis vectors are not orthonormal"):
        linalg.orthonormal_columns([*e, e[0]])  # four vectors in C^3
    with pytest.raises(ValueError, match="basis vectors are not orthonormal"):
        linalg.orthonormal_columns([e[0] * np.nan])
    with pytest.raises(ValueError, match="no basis vectors"):
        linalg.orthonormal_columns([])


def test_compress_is_the_sandwich():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    els = list(linalg.hermitianize(g))
    b = linalg.haar_subspace(4, 2, seed=3).basis
    bh = b.conj().T
    assert np.array_equal(linalg.compress(els, b), linalg.hermitianize(bh @ np.array(els) @ b))
    w = b * np.array([0.5, 2.0])  # scaled columns, as the pretty-good map uses
    one = linalg.compress(els[0], w)
    assert one.shape == (2, 2)
    assert np.abs(one - w.conj().T @ els[0] @ w).max() < 1e-14


def test_haar_subspace_deterministic_and_valid():
    p1 = linalg.haar_subspace(4, 2, seed=7)
    p2 = linalg.haar_subspace(4, 2, seed=7)
    p3 = linalg.haar_subspace(4, 2, seed=8)
    assert np.array_equal(p1.matrix, p2.matrix)
    assert np.abs(p1.matrix - p3.matrix).max() > 1e-3
    assert p1.rank == 2
    assert np.abs(p1.matrix @ p1.matrix - p1.matrix).max() < 1e-12
    assert abs(np.trace(p1.matrix).real - 2.0) < 1e-12


def test_real_embedding_round_trip():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (g + g.conj().T) / 2
    e = real_embedding(h)
    assert e.shape == (6, 6)
    assert np.abs(e - e.T).max() < 1e-12  # hermitian -> symmetric
    # embedding preserves eigenvalues (doubled)
    ev_h = np.sort(np.linalg.eigvalsh(h))
    ev_e = np.sort(np.linalg.eigvalsh(e))
    assert np.abs(np.repeat(ev_h, 2) - ev_e).max() < 1e-10
