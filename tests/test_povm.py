import numpy as np
import pytest

from subincompat import coexist, corpus, linalg
from subincompat.povm import (
    Assemblage,
    Povm,
    coarse_grain,
    depolarise,
    from_basis,
    nonzero_outcomes,
    random_povm,
    repair,
    truncate,
)

from helpers import sigma_xz_pair


def test_povm_constructor_validation():
    eye = np.eye(2, dtype=complex)
    Povm(2, [eye / 2, eye / 2])  # valid
    with pytest.raises(ValueError):
        Povm(2, [eye, eye])  # sums to 2*I
    with pytest.raises(ValueError):
        Povm(2, [np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)])
    with pytest.raises(ValueError):
        Povm(2, [np.array([[0.5, 0.5], [0.0, 0.5]]), eye / 2])  # not hermitian


def test_assemblage_requires_common_dimension():
    eye2 = np.eye(2, dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        Assemblage(2, [Povm(2, [eye2 / 2, eye2 / 2]), Povm(3, [eye3 / 2, eye3 / 2])])


def test_parent_povm_marginals():
    par = corpus.build("parent-four-outcome")
    noisy = corpus.build("sigma-xz-noisy")
    for x in range(2):
        marg = par.marginal(x)
        for k in range(2):
            assert np.abs(marg.elements[k] - noisy.measurements[x].elements[k]).max() < 1e-14


def test_binarisations_count_and_effects():
    # one effect E_S per complementary pair of subsets of the nonzero
    # outcomes, S holding the first of them
    rng = np.random.default_rng(10)
    els = random_povm(3, 4, rng).elements
    m = Povm(3, els[:2] + [np.zeros((3, 3))] + els[2:])
    keep = nonzero_outcomes(m.elements)
    bins = coexist._binarisation_effects(m)
    assert len(keep) == 4 and len(bins) == 2 ** (len(keep) - 1) - 1
    for subset, eff in bins:
        assert 0 in subset and set(subset) <= set(keep)
        assert np.abs(eff - sum(m.elements[i] for i in subset)).max() < 1e-12


def test_coarse_grain_validates_partition():
    rng = np.random.default_rng(11)
    m = random_povm(2, 4, rng)
    c = coarse_grain(m, [[0, 1], [2], [3]])
    assert c.n_outcomes == 3
    assert np.abs(c.elements[0] - (m.elements[0] + m.elements[1])).max() < 1e-12
    with pytest.raises(ValueError):
        coarse_grain(m, [[0, 1], [1, 2], [3]])  # overlap
    with pytest.raises(ValueError):
        coarse_grain(m, [[0, 1], [2]])  # missing outcome


def test_depolarise_limits_and_bounds():
    a = sigma_xz_pair()
    same = depolarise(a, 1.0)
    for x in range(2):
        for k in range(2):
            assert np.abs(same.measurements[x].elements[k] - a.measurements[x].elements[k]).max() < 1e-14
    flat = depolarise(a, 0.0)
    for m in flat.measurements:
        for e in m.elements:
            assert np.abs(e - np.trace(e).real * np.eye(2) / 2).max() < 1e-14
    with pytest.raises(ValueError):
        depolarise(a, 1.5)
    with pytest.raises(ValueError):
        depolarise(a, -0.1)


def test_truncate_keeps_zero_elements_and_dimension():
    a = corpus.build("qutrit-pair")
    p = linalg.projector_from_basis(
        [np.eye(3, dtype=complex)[:, 0], np.eye(3, dtype=complex)[:, 1]]
    )
    t = truncate(a, p)
    assert t.dim == 2
    assert t.outcome_counts() == a.outcome_counts()  # zero elements preserved
    # conjugation rule: B^dag E B on the subspace basis
    e = a.measurements[1].elements[0]
    expected = p.basis.conj().T @ e @ p.basis
    assert np.abs(t.measurements[1].elements[0] - expected).max() < 1e-12


def test_truncate_by_identity_is_identity():
    a = sigma_xz_pair()
    p = linalg.projector_from_basis([np.eye(2, dtype=complex)[:, k] for k in range(2)])
    t = truncate(a, p)
    for x in range(2):
        for k in range(2):
            assert np.abs(t.measurements[x].elements[k] - a.measurements[x].elements[k]).max() < 1e-14


def test_from_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        from_basis([np.array([1, 0], dtype=complex), np.array([1, 1], dtype=complex) / np.sqrt(2)])
    m = from_basis([np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)])
    assert m.n_outcomes == 2
    for e in m.elements:
        assert np.abs(e @ e - e).max() < 1e-12  # projective


def test_random_povm_valid_and_deterministic():
    m1 = random_povm(3, 4, np.random.default_rng(13))
    m2 = random_povm(3, 4, np.random.default_rng(13))
    assert all(np.array_equal(a, b) for a, b in zip(m1.elements, m2.elements))
    assert np.abs(sum(m1.elements) - np.eye(3)).max() < 1e-12
    for e in m1.elements:
        assert linalg.min_eigenvalue(e) > -1e-12


def test_repair_clips_and_renormalises():
    # a slightly non-PSD element and a sum of (1 + 1e-9) * identity, as a
    # solver may return them
    u = from_basis([np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)])
    p0, p1 = u.elements
    e0 = -1e-12 * p0 + 0.3 * p1
    els = repair([e0, (1 + 1e-9) * np.eye(2) - e0])
    for e in els:
        assert np.abs(e - e.conj().T).max() == 0.0
        assert linalg.min_eigenvalue(e) >= -1e-15  # PSD up to rounding
    assert np.abs(sum(els) - np.eye(2)).max() <= 1e-12


def test_zero_element_detection():
    eye = np.eye(2, dtype=complex)
    m = Povm(2, [eye / 2, eye / 2, np.zeros((2, 2), dtype=complex)])
    assert 2 not in nonzero_outcomes(m.elements)
    assert 0 in nonzero_outcomes(m.elements)
    assert nonzero_outcomes(m.elements) == [0, 1]
    # either side of ZERO_ELEMENT_TOL = 1e-12
    near = Povm(2, [eye / 2, (0.5 - 3e-12) * eye, 1e-13 * eye, 2.9e-12 * eye])
    assert nonzero_outcomes(near.elements) == [0, 1, 3]


_EYE2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("elements, message", [
    ([np.ones((2, 3)), _EYE2 / 2], "expected a square matrix, got shape (2, 3)"),
    ([_EYE2 / 2, np.eye(3) / 2], "element 1 has dimension 3 != 2"),
    ([np.diag([np.nan, 0.5]), _EYE2 / 2], "matrix has non-finite entries"),
    ([_EYE2 / 2, np.array([[0.5, 0.5], [0.0, 0.5]])],
     "matrix is not Hermitian (deviation 5.000e-01 > 1.0e-12)"),
    ([_EYE2 / 2, np.diag([0.7, -0.1]), np.diag([-0.2, 0.6])], "element 1 is not PSD (min eig -1.00e-01)"),
    ([_EYE2, _EYE2], "elements sum to identity only within 1.00e+00"),
])
def test_povm_rejections_keep_their_messages(elements, message):
    with pytest.raises(ValueError) as exc:
        Povm(2, elements)
    assert str(exc.value) == message


def _assemblages():
    return [corpus.build(k) for k in corpus.builtin_keys() if corpus.kind_of(k) == "assemblage"]


def test_truncate_equals_the_per_matrix_formula_bitwise():
    for i, a in enumerate(_assemblages()):
        for rank in range(1, a.dim):
            p = linalg.haar_subspace(a.dim, rank, 40 + i)
            b = p.basis
            t = truncate(a, p)
            for m, tm in zip(a.measurements, t.measurements):
                for e, te in zip(m.elements, tm.elements):
                    assert te.tobytes() == linalg.hermitianize(b.conj().T @ e @ b).tobytes()


def _repair_reference(elements):
    clipped = []
    for e in elements:
        vals, vecs = np.linalg.eigh(e)
        clipped.append(vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.conj().T)
    vals, vecs = np.linalg.eigh(sum(clipped))
    isq = vecs @ np.diag(1.0 / np.sqrt(np.clip(vals, 1e-14, None))) @ vecs.conj().T
    return [linalg.hermitianize(isq @ e @ isq) for e in clipped]


def test_repair_equals_the_per_matrix_formula_bitwise():
    # as given, and pushed slightly off the PSD cone and off normalisation,
    # as solver output is
    for a in _assemblages():
        for m in a.measurements:
            shift = 1e-9 * np.eye(a.dim)
            for els in (m.elements, [e - shift for e in m.elements]):
                got = repair(els)
                assert [g.tobytes() for g in got] == [r.tobytes() for r in _repair_reference(els)]
