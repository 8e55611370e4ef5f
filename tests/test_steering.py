import numpy as np
import pytest

from subincompat import corpus, incompat, linalg, steering
from subincompat.povm import Assemblage, from_basis, random_povm
from subincompat.steering import (
    BipartiteState,
    StateAssemblage,
    assemblage_from_state,
    choi_apply,
    filter_bob,
    lhs_feasible,
    lhs_slack,
    peres_mubs,
    peres_scan,
    peres_state,
    pretty_good,
    truncate_bob,
    truncate_state_assemblage,
)

from helpers import haar_basis, random_mixed_state, steering_instance


def _max_entangled(d):
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        psi[k * d + k] = 1.0
    psi /= np.sqrt(d)
    return BipartiteState(d, d, np.outer(psi, psi.conj()))


def test_state_validation():
    with pytest.raises(ValueError):
        BipartiteState(2, 2, np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        BipartiteState(2, 2, np.diag([1.5, -0.5, 0, 0]).astype(complex))
    with pytest.raises(ValueError):
        BipartiteState(2, 3, np.eye(4, dtype=complex) / 4)  # wrong shape


@pytest.mark.parametrize("args, message", [
    ((2, 3, np.eye(4) / 4), "matrix dimension 4 != dA*dB = 6"),
    ((2, 2, np.diag([1.5, -0.5, 0.0, 0.0])), "state is not PSD"),
    ((2, 2, np.eye(4)), "state trace 4.0 != 1"),
])
def test_state_rejections_keep_their_messages(args, message):
    with pytest.raises(ValueError) as exc:
        BipartiteState(*args)
    assert str(exc.value) == message


_EYE2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("sigmas, message", [
    ([[_EYE2 / 4, _EYE2 / 4], [_EYE2 / 4, np.eye(3) / 4]], "sigma[1][1] dimension mismatch"),
    ([[_EYE2 / 4, _EYE2 / 4], [np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])]], "sigma[1][0] is not PSD"),
    ([[_EYE2 / 4, _EYE2 / 4], [_EYE2 / 4, _EYE2 / 2]], "no-signalling violated at setting 1: 2.50e-01"),
])
def test_state_assemblage_rejections_keep_their_messages(sigmas, message):
    with pytest.raises(ValueError) as exc:
        StateAssemblage(2, sigmas, _EYE2 / 2)
    assert str(exc.value) == message


def test_assemblage_from_state_marginals():
    rho = random_mixed_state(2, 3, np.random.default_rng(30))
    alice = Assemblage(2, [random_povm(2, 2, np.random.default_rng(31)),
                           random_povm(2, 3, np.random.default_rng(32))])
    sa = assemblage_from_state(rho, alice)
    rb = rho.reduced_b()
    for x in range(sa.n_settings):
        tot = sum(sa.sigmas[x])
        assert np.abs(tot - rb).max() < 1e-12


def test_assemblage_from_product_state_is_uncorrelated():
    rng = np.random.default_rng(33)
    a1 = random_mixed_state(1, 2, rng).matrix  # 2x2 density matrix
    b1 = random_mixed_state(1, 3, rng).matrix
    rho = BipartiteState(2, 3, linalg.hermitianize(np.kron(a1, b1)))
    alice = Assemblage(2, [random_povm(2, 2, rng)])
    sa = assemblage_from_state(rho, alice)
    for a in range(2):
        e = alice.measurements[0].elements[a]
        expected = np.trace(e @ a1) * b1
        assert np.abs(sa.sigmas[0][a] - expected).max() < 1e-12


def test_no_signalling_validation():
    rho = random_mixed_state(2, 2, np.random.default_rng(34))
    alice = Assemblage(2, [random_povm(2, 2, np.random.default_rng(35)),
                           random_povm(2, 2, np.random.default_rng(36))])
    sa = assemblage_from_state(rho, alice)
    bad = [list(row) for row in sa.sigmas]
    bad[0] = [m * 0.9 for m in bad[0]]  # break the common marginal
    with pytest.raises(ValueError):
        StateAssemblage(2, bad, sa.reduced)


def test_lhs_on_steerable_corpus_point():
    sa = corpus.build("peres-steerable")
    unsteerable, model = lhs_feasible(sa)
    assert not unsteerable and model is None
    assert lhs_slack(sa) < -1e-5


def test_lhs_model_reconstructs_assemblage():
    rho, alice = steering_instance(0)  # noisy instance: unsteerable
    sa = assemblage_from_state(rho, alice)
    unsteerable, model = lhs_feasible(sa)
    assert unsteerable and model is not None
    counts = sa.outcome_counts()
    for x in range(sa.n_settings):
        for a in range(counts[x]):
            tot = sum(state for vec, state in model if vec[x] == a)
            assert np.abs(tot - sa.sigmas[x][a]).max() < 1e-6
    for _, state in model:
        assert linalg.min_eigenvalue(state) > -1e-6


def test_lhs_guard():
    rng = np.random.default_rng(37)
    rho = random_mixed_state(2, 2, rng)
    alice = Assemblage(2, [random_povm(2, 2, rng) for _ in range(13)])  # 2^13 strategies
    sa = assemblage_from_state(rho, alice)
    with pytest.raises(ValueError):
        lhs_feasible(sa)


def test_lhs_drops_strategies_of_zero_states():
    # on the edge m1 = 0 the second MUB's first outcome leaves Bob in the
    # zero state: the model keeps the 3 x 2 strategies that avoid it
    rho, _ = peres_state(0.0, 0.3)
    sa = assemblage_from_state(rho, peres_mubs())
    assert np.abs(sa.sigmas[1][0]).max() == 0.0
    unsteerable, model = lhs_feasible(sa)
    assert unsteerable
    assert [vec for vec, _ in model] == [(a, b) for a in range(3) for b in (1, 2)]
    for x, row in enumerate(sa.sigmas):
        for a, sigma in enumerate(row):
            tot = sum((state for vec, state in model if vec[x] == a), np.zeros((3, 3)))
            assert np.abs(tot - sigma).max() < 1e-8
    assert abs(lhs_slack(sa)) < 1e-8


def test_pretty_good_of_maximally_entangled_is_transpose():
    rho = _max_entangled(3)
    alice = Assemblage(3, [random_povm(3, 2, np.random.default_rng(38)),
                           from_basis(haar_basis(3, np.random.default_rng(39)))])
    sa = assemblage_from_state(rho, alice)
    pg = pretty_good(sa)
    # sigma_{a|x} = A^T / d and the reduced state is I/d, so the
    # pretty-good measurements are exactly the transposed POVMs (up to the
    # support eigenbasis, which the maximally mixed reduced state leaves
    # ambiguous; compare via robustness instead of elementwise)
    r1 = incompat.depolarising_robustness(pg)
    transposed = Assemblage(3, [
        type(m)(3, [e.T.copy() for e in m.elements]) for m in alice.measurements
    ])
    r2 = incompat.depolarising_robustness(transposed)
    assert abs(r1.eta - r2.eta) < 1e-6


def test_choi_apply_max_entangled_is_identity_channel():
    rho = _max_entangled(2)
    alice = Assemblage(2, [random_povm(2, 3, np.random.default_rng(40))])
    out = choi_apply(rho, alice)
    # the induced channel is the identity map in the reduced eigenbasis;
    # for the maximally entangled state the images equal the inputs up to
    # a global basis; check spectra match elementwise
    for e_in, e_out in zip(alice.measurements[0].elements, out.measurements[0].elements):
        v_in = np.sort(np.linalg.eigvalsh(e_in))
        v_out = np.sort(np.linalg.eigvalsh(e_out))
        assert np.abs(v_in - v_out).max() < 1e-10


def test_choi_apply_unital():
    for i in range(20):
        rng = np.random.default_rng(1700 + i)
        d = 2 if i % 2 else 3
        rho = random_mixed_state(d, d, rng)
        alice = Assemblage(d, [random_povm(d, 2, rng), random_povm(d, 3, rng)])
        out = choi_apply(rho, alice)
        for m in out.measurements:
            assert np.abs(sum(m.elements) - np.eye(m.dim)).max() < 1e-8


def test_filter_bob_maximally_mixes_the_marginal():
    rho, _ = peres_state(0.18, 0.46)
    filt, support = filter_bob(rho)
    assert support == 3
    assert np.abs(filt.reduced_b() - np.eye(3) / 3).max() < 1e-12
    # filtering preserves the PT-invariance of this family
    pt = linalg.partial_transpose(filt.matrix, (3, 3), side="A")
    assert np.abs(pt - filt.matrix).max() < 1e-12


def test_truncate_bob_trace_and_normalisation():
    rho, _ = peres_state(0.18, 0.46)
    filt, _ = filter_bob(rho)
    p = linalg.haar_subspace(3, 2, seed=500)
    trunc, trace = truncate_bob(filt, p)
    # Bob marginal of the filtered state is I/3, so any rank-2 cut keeps 2/3
    assert abs(trace - 2.0 / 3.0) < 1e-12
    assert abs(np.trace(trunc.matrix).real - 1.0) < 1e-12
    assert trunc.dB == 2


def test_peres_qubit_truncations_ppt_and_unsteerable():
    rho, _ = peres_state(0.18, 0.46)
    filt, _ = filter_bob(rho)
    sa = corpus.build("peres-steerable")
    for k in range(4):
        p = linalg.haar_subspace(3, 2, seed=500 + k)
        trunc, _ = truncate_bob(filt, p)
        pt = linalg.partial_transpose(trunc.matrix, (3, 2), side="A")
        assert linalg.min_eigenvalue(pt) > -1e-10  # PPT survives Bob cuts
        sat = truncate_state_assemblage(sa, p)
        unsteerable, _ = lhs_feasible(sat)
        assert unsteerable
        pg = pretty_good(sat)
        assert incompat.depolarising_robustness(pg).eta >= 1 - 1e-6


def test_peres_state_parameters():
    rho, params = peres_state(0.18, 0.46)
    den = 4 - 2 * 0.18**2 + 0.18 * 0.46 - 2 * 0.46**2
    assert abs(params.l3 - 1.0 / den) < 1e-12
    assert abs(params.l1 - 0.374541) < 1e-6
    assert abs(params.l2 - 0.069100) < 1e-6
    assert abs(params.l1 + params.l2 + 2 * params.l3 - 1.0) < 1e-12
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_peres_state_domain_errors_name_the_quantity():
    with pytest.raises(ValueError, match="m3"):
        peres_state(0.9, 0.9)
    with pytest.raises(ValueError, match="lambda1"):
        peres_state(0.7, 0.7)
    # NaN passes every comparison of the domain checks: it is refused first
    for m1, m2 in ((np.nan, 0.1), (0.1, np.inf), (-np.inf, 0.2)):
        with pytest.raises(ValueError, match=r"^m1 and m2 must be finite, got \("):
            peres_state(m1, m2)


def test_peres_mubs_are_mubs():
    mubs = peres_mubs()
    assert mubs.n_settings == 2
    b1, b2 = mubs.measurements
    for m in (b1, b2):
        for e in m.elements:
            assert np.abs(e @ e - e).max() < 1e-12  # rank-one projectors
    for e1 in b1.elements:
        for e2 in b2.elements:
            ov = np.trace(e1 @ e2).real
            assert abs(ov - 1.0 / 3.0) < 1e-12  # unbiased


def test_peres_scan_explicit_points():
    pts = peres_scan([(0.18, 0.46), (0.9, 0.9), (np.nan, 0.1)])
    assert pts[0].admissible and pts[0].steerable
    assert not pts[1].admissible and "m3" in pts[1].reason
    assert not pts[2].admissible and pts[2].reason == "m1 and m2 must be finite, got (nan, 0.1)"
    with pytest.raises(ValueError):
        peres_scan([(0.9, 0.9)])  # no admissible point


def test_peres_scan_rejects_bad_step():
    with pytest.raises(ValueError):
        peres_scan(1.5)
