import logging

import numpy as np
import pytest

from subincompat import corpus, incompat, linalg, sdp
from subincompat.povm import Assemblage, depolarise, from_basis

from helpers import sigma_xz_pair


def test_trivial_lp_max_x_below_one():
    bld = sdp.Builder()
    x = bld.free()
    s = bld.rblock()
    bld.eq_scalar([(s, 1.0)], [(x, 1.0)], 1.0)  # x + s = 1, s >= 0
    bld.objective([], [(x, 1.0)], "max")
    sol = bld.solve()
    assert sol.status == "Optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7


def test_largest_eigenvalue_sdp():
    # max <M, X> with tr X = 1, X >= 0 equals the top eigenvalue of M
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = (g + g.conj().T) / 2
    bld = sdp.Builder()
    x = bld.cblock(3)
    bld.eq_scalar([(x, np.eye(3, dtype=complex))], [], 1.0)
    bld.objective([(x, m)], [], "max")
    sol = bld.solve()
    top = np.linalg.eigvalsh(m).max()
    assert sol.status == "Optimal"
    assert abs(sol.primal_value - top) < 1e-7
    xm = bld.extract(sol.primal_blocks, x)
    assert abs(np.trace(xm).real - 1.0) < 1e-7


def test_random_instances_with_known_optimum():
    # Build problems from a constructed primal-dual optimal pair:
    # X* = V diag(1,1,0) V^T, Z* = V diag(0,0,g) V^T (complementary),
    # C = sum_i y*_i A_i + Z*, b_i = <A_i, X*>.  Strong duality gives
    # optimal value <C, X*> for min <C,X> s.t. <A_i,X> = b_i, X >= 0.
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        d, m = 3, 3
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        xstar = q @ np.diag([1.0, 1.0, 0.0]) @ q.T
        zstar = q @ np.diag([0.0, 0.0, 1.0 + rng.random()]) @ q.T
        ystar = rng.standard_normal(m)
        amats = []
        for _ in range(m):
            g = rng.standard_normal((d, d))
            amats.append((g + g.T) / 2)
        c = sum(y * a for y, a in zip(ystar, amats)) + zstar
        prob = sdp.SdpProblem(
            blocks=[d],
            objective=({0: c}, {}),
            constraints=[({0: a}, {}, float(np.tensordot(a, xstar))) for a in amats],
            sense="min",
        )
        sol = sdp.solve(prob)
        target = float(np.tensordot(c, xstar))
        assert sol.status == "Optimal"
        assert abs(sol.primal_value - target) <= 1e-6 * (1 + abs(target))
        assert sol.gap <= 1e-8 * (1 + abs(sol.primal_value))


def test_inconsistent_rows_detected_infeasible():
    bld = sdp.Builder()
    y = bld.cblock(2)
    bld.eq_scalar([(y, np.eye(2, dtype=complex))], [], 1.0)
    bld.eq_scalar([(y, np.eye(2, dtype=complex))], [], 2.0)
    feasible, slack, cert = bld.feasibility()
    assert feasible is False
    assert cert is None


def test_feasibility_positive_slack_certificate():
    # tr X = 2 on a 2x2 block admits X = I with unit slack to spare
    bld = sdp.Builder()
    x = bld.cblock(2)
    bld.eq_scalar([(x, np.eye(2, dtype=complex))], [], 2.0)
    feasible, slack, cert = bld.feasibility()
    assert feasible and slack > 0.1
    xm = bld.extract(cert, x)
    assert abs(np.trace(xm).real - 2.0) < 1e-6
    assert np.linalg.eigvalsh(xm).min() > -1e-8


def test_eq_matrix_with_free_terms():
    # X + t*F = T with X >= 0 free t: pins X = T - t F; maximising t under
    # X >= 0 gives the largest shift keeping T - t F PSD.
    t_mat = np.diag([2.0, 1.0]).astype(complex)
    f = np.eye(2, dtype=complex)
    bld = sdp.Builder()
    x = bld.cblock(2)
    t = bld.free()
    bld.eq_matrix([(x, 1.0)], t_mat, free_terms=[(t, f)])
    bld.objective([], [(t, 1.0)], "max")
    sol = bld.solve()
    assert abs(sol.primal_value - 1.0) < 1e-6  # limited by the smaller eigenvalue


def test_deterministic_reruns_bitwise():
    a = sigma_xz_pair()
    r1 = incompat.depolarising_robustness(a)
    r2 = incompat.depolarising_robustness(a)
    assert r1.eta == r2.eta
    assert all(
        np.array_equal(x, y) for x, y in zip(r1.parent.elements, r2.parent.elements)
    )
    assert r1.solution.iterations == r2.solution.iterations


def test_solver_error_on_iteration_cap():
    with pytest.raises(sdp.SolverError):
        incompat.depolarising_robustness(sigma_xz_pair(), sdp.SolveOptions(max_iters=1))


def test_complex_hermitian_block_round_trip():
    # a genuinely complex constraint matrix exercises the imaginary hvec
    # coordinates and a complex Hermitian solver block
    h = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    bld = sdp.Builder()
    x = bld.cblock(2)
    bld.eq_matrix([(x, 1.0)], h)
    feasible, slack, cert = bld.feasibility()
    assert feasible
    xm = bld.extract(cert, x)
    assert np.abs(xm - h).max() < 1e-7


# ---------------------------------------------------------------------------
# solver kernels against plain reference implementations


def _random_sym(rng, d):
    g = rng.standard_normal((d, d))
    return (g + g.T) / 2


def _random_pd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T + 0.5 * np.eye(d)


def _random_problem(rng, dims=(3, 1, 4, 2, 4), n_free=2, m=30):
    """Rows mention a random subset of blocks and free variables."""
    cons = []
    for _ in range(m):
        picked = [b for b in range(len(dims)) if rng.random() < 0.5] or [0]
        bc = {b: _random_sym(rng, dims[b]) for b in picked}
        fc = {j: float(rng.standard_normal()) for j in range(n_free) if rng.random() < 0.5}
        cons.append((bc, fc, float(rng.standard_normal())))
    return sdp.SdpProblem(blocks=list(dims), n_free=n_free, constraints=cons)


def _dense_stacks(p, rows):
    """Dense (len(rows), d, d) coefficient stack per block."""
    out = [np.zeros((len(rows), d, d)) for d in p.blocks]
    for i, k in enumerate(rows):
        for b, mat in p.constraints[k][0].items():
            out[b][i] = mat
    return out


def test_schur_per_block_matches_dense_einsum():
    rng = np.random.default_rng(11)
    p = _random_problem(rng)
    c = sdp._Compiled(p)
    kept = [k for k in range(c.m) if k % 3]  # drop every third row
    c.restrict(kept)
    X = [_random_pd(rng, d) for d in p.blocks]
    Zi = [np.linalg.inv(_random_pd(rng, d)) for d in p.blocks]
    ref = np.zeros((len(kept), len(kept)))
    for ab, xb, zib in zip(_dense_stacks(p, kept), X, Zi):
        t1 = np.einsum("lij,jk->lik", ab, zib)
        t2 = np.einsum("ij,ljk->lik", xb, t1)
        ref += np.einsum("kij,lji->kl", ab, t2)
    got = c.schur(c.stack(X), c.stack(Zi))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # the row products agree with the dense stacks too
    y = rng.standard_normal(len(kept))
    dense = _dense_stacks(p, kept)
    ref_apply = sum(np.einsum("kij,ij->k", a, x) for a, x in zip(dense, X))
    assert np.abs(c.apply(c.stack(X)) - ref_apply).max() <= 1e-12 * np.abs(ref_apply).max()
    for got_b, a in zip(c.unstack(c.adjoint(y)), dense):
        ref_b = np.einsum("kij,k->ij", a, y)
        assert np.abs(got_b - ref_b).max() <= 1e-12 * max(1.0, np.abs(ref_b).max())


def _random_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def _random_hpd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T + 0.5 * np.eye(d)


def test_hvec_is_the_coordinate_map_of_the_hermitian_basis():
    rng = np.random.default_rng(21)
    for d in range(1, 6):
        basis = sdp._hermitian_basis(d)
        coords = sdp.hvec(np.array(basis))  # order and sign
        assert np.abs(coords - np.eye(d * d)).max() <= 1e-15
        a, b = _random_herm(rng, d), _random_herm(rng, d)
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ref = [np.trace(h @ t).real for h in basis]
        assert np.abs(sdp.hvec(t) - ref).max() <= 1e-12 * np.abs(t).max()
        # isometry, inverse on Hermitian input, Hermitian part otherwise
        assert abs(sdp.hvec(a) @ sdp.hvec(b) - np.trace(a @ b).real) <= 1e-12 * d * d
        assert np.abs(sdp.hvec_inv(sdp.hvec(a)) - a).max() <= 1e-15 * max(1.0, np.abs(a).max())
        v = rng.standard_normal(d * d)
        assert np.abs(sdp.hvec(sdp.hvec_inv(v)) - v).max() <= 1e-15 * max(1.0, np.abs(v).max())
        assert np.abs(sdp.hvec(t) - sdp.hvec(linalg.hermitianize(t))).max() <= 1e-15 * np.abs(t).max()
        stack = np.array([[a, t], [b, a]])
        assert np.array_equal(sdp.hvec(stack)[1, 0], sdp.hvec(b))


def _random_complex_problem(rng, dims=(3, 1, 4, 2, 1), n_free=2, m=40):
    """Rows mention a random subset of Hermitian blocks and free variables."""
    cons = []
    for _ in range(m):
        picked = [b for b in range(len(dims)) if rng.random() < 0.5] or [0]
        bc = {b: _random_herm(rng, dims[b]) for b in picked}
        fc = {j: float(rng.standard_normal()) for j in range(n_free) if rng.random() < 0.5}
        cons.append((bc, fc, float(rng.standard_normal())))
    return sdp.SdpProblem(blocks=list(dims), n_free=n_free, constraints=cons)


def test_complex_kernels_match_the_real_embedding():
    # the same kernels on the real embedding: coefficients A~ = emb(A)/2,
    # iterates X~ = emb(X) and Z~^-1 = 2 emb(Z^-1)
    rng = np.random.default_rng(12)
    p = _random_complex_problem(rng)
    c = sdp._Compiled(p)
    kept = [k for k in range(c.m) if k % 4 != 1]
    c.restrict(kept)
    X = [_random_hpd(rng, d) for d in p.blocks]
    Zi = [linalg.hermitianize(np.linalg.inv(_random_hpd(rng, d))) for d in p.blocks]
    emb = [np.zeros((len(kept), 2 * d, 2 * d)) for d in p.blocks]
    for i, k in enumerate(kept):
        for b, mat in p.constraints[k][0].items():
            emb[b][i] = linalg.real_embedding(mat) / 2
    xe = [linalg.real_embedding(x) for x in X]
    zie = [2 * linalg.real_embedding(z) for z in Zi]
    ref = sum(
        np.einsum("kij,lji->kl", a, np.einsum("ij,ljk,kn->lin", x, a, z))
        for a, x, z in zip(emb, xe, zie)
    )
    got = c.schur(c.stack(X), c.stack(Zi))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    ref_apply = sum(np.einsum("kij,ij->k", a, x) for a, x in zip(emb, xe))
    assert np.abs(c.apply(c.stack(X)) - ref_apply).max() <= 1e-12 * np.abs(ref_apply).max()
    y = rng.standard_normal(len(kept))
    for got_b, a in zip(c.unstack(c.adjoint(y)), emb):
        ref_b = np.einsum("kij,k->ij", a, y)
        assert np.abs(linalg.real_embedding(got_b) / 2 - ref_b).max() <= 1e-12 * np.abs(ref_b).max()


def test_complex_sdp_native_and_embedded_reach_the_same_optimum():
    # min <C,X> + c's over Hermitian blocks from a constructed optimal pair:
    # X*_b, Z*_b complementary, C_b = sum_k y*_k A_kb + Z*_b, c = E'y*.
    rng = np.random.default_rng(31)
    dims, m = (3, 2, 1), 7
    xs, zs = [], []
    for d in dims:
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        lam_x = np.array([1.0] * (d - 1) + [0.0]) if d > 1 else np.array([0.0])
        xs.append(q @ np.diag(lam_x) @ q.conj().T)
        zs.append(q @ np.diag((1.0 - np.sign(lam_x)) * (1 + rng.random(d))) @ q.conj().T)
    ystar, sstar = rng.standard_normal(m), 0.7
    e = rng.standard_normal(m)
    cons, coefs = [], []
    for k in range(m):
        bc = {b: _random_herm(rng, d) for b, d in enumerate(dims)}
        rhs = sum(np.trace(a @ x).real for a, x in zip(bc.values(), xs)) + e[k] * sstar
        cons.append((bc, {0: float(e[k])}, float(rhs)))
        coefs.append(bc)
    cmat = [sum(ystar[k] * coefs[k][b] for k in range(m)) + zs[b] for b in range(len(dims))]
    cfree = float(e @ ystar)
    target = sum(np.trace(c @ x).real for c, x in zip(cmat, xs)) + cfree * sstar
    native = sdp.SdpProblem(
        blocks=list(dims), n_free=1, objective=(dict(enumerate(cmat)), {0: cfree}),
        constraints=cons, sense="min",
    )
    half = lambda h: linalg.real_embedding(h) / 2  # noqa: E731
    embedded = sdp.SdpProblem(
        blocks=[2 * d for d in dims], n_free=1,
        objective=({b: half(c) for b, c in enumerate(cmat)}, {0: cfree}),
        constraints=[({b: half(a) for b, a in bc.items()}, fc, r) for bc, fc, r in cons],
        sense="min",
    )
    sol_n, sol_e = sdp.solve(native), sdp.solve(embedded)
    assert sol_n.status == sol_e.status == sdp.STATUS_OPTIMAL
    assert abs(sol_n.primal_value - sol_e.primal_value) <= 1e-7
    assert abs(sol_n.primal_value - target) <= 1e-6 * (1 + abs(target))
    assert sol_n.lstsq_fallbacks == sol_e.lstsq_fallbacks == 0


def test_lstsq_fallback_is_counted_and_logged(monkeypatch, caplog):
    with caplog.at_level(logging.DEBUG, logger="subincompat.sdp"):
        x, fell_back = sdp._lin_solve(np.zeros((2, 2)), np.ones(2))
    assert fell_back and np.array_equal(x, np.zeros(2))
    assert "least-squares fallback" in caplog.text
    # every Newton system of a solve made singular: each one is counted
    real = np.linalg.solve

    def singular(a, b):
        if b.ndim == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="subincompat.sdp"):
        bld = sdp.Builder()
        x = bld.cblock(2)
        bld.eq_scalar([(x, np.eye(2))], [], 1.0)
        bld.objective([(x, np.diag([2.0, 1.0]))], [], "max")
        sol = bld.solve()
    assert sol.status == sdp.STATUS_OPTIMAL
    assert sol.lstsq_fallbacks == 2 * (sol.iterations - 1) > 0
    assert len(caplog.records) == sol.lstsq_fallbacks


def test_corpus_robustness_solves_take_no_lstsq_fallback():
    for k in corpus.builtin_keys():
        if corpus.kind_of(k) == "assemblage":
            assert incompat.depolarising_robustness(corpus.build(k)).solution.lstsq_fallbacks == 0


def _presolve_mgs(rows, b, feas_tol):
    """Row-by-row modified Gram-Schmidt presolve, the reference for the
    stacked CGS2 presolve: same acceptance rule and messages."""
    scale = 1.0 + np.abs(b).max(initial=0.0)
    kept, qs, betas = [], [], []
    for k in range(rows.shape[0]):
        r = rows[k].copy()
        beta = b[k]
        nrm0 = np.linalg.norm(r)
        if nrm0 == 0.0:
            if abs(beta) > feas_tol * scale:
                return None, f"row {k} is 0 = {beta:g}"
            continue
        for q, bq in zip(qs, betas):
            coef = q @ r
            r -= coef * q
            beta -= coef * bq
        nrm = np.linalg.norm(r)
        if nrm > 1e-10 * max(1.0, nrm0):
            qs.append(r / nrm)
            betas.append(beta / nrm)
            kept.append(k)
        elif abs(beta) > feas_tol * scale * 10:
            return None, f"inconsistent affine constraints (row {k}, residual {beta:g})"
    return kept, None


def _fourier_pair(d):
    w = np.exp(2j * np.pi / d)
    f = np.array([[w ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)
    return Assemblage(d, [from_basis(np.eye(d, dtype=complex)), from_basis(list(f.T))])


def test_presolve_keeps_the_rows_of_the_mgs_reference(monkeypatch):
    seen = []
    real = sdp._presolve

    def recording(c, feas_tol):
        rows, b = c.row_vectors(), c.b.copy()
        out = real(c, feas_tol)
        seen.append((out, _presolve_mgs(rows, b, feas_tol)))
        return out

    monkeypatch.setattr(sdp, "_presolve", recording)
    targets = [corpus.build(k) for k in corpus.builtin_keys() if corpus.kind_of(k) == "assemblage"]
    for a in targets + [_fourier_pair(5)]:
        incompat.depolarising_robustness(a)
    assert len(seen) == len(targets) + 1
    for got, ref in seen:
        assert got[1] is None and ref[1] is None
        assert got[0] == ref[0]


def test_presolve_reports_both_inconsistencies():
    eye = np.eye(2)
    zero_row = sdp.SdpProblem(blocks=[2], constraints=[({0: eye}, {}, 1.0), ({}, {}, 3.0)])
    sol = sdp.solve(zero_row)
    assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
    assert sol.message == "row 1 is 0 = 3"
    clash = sdp.SdpProblem(
        blocks=[2, 1], constraints=[({0: eye, 1: np.ones((1, 1))}, {}, 1.0),
                                    ({0: 2 * eye, 1: 2 * np.ones((1, 1))}, {}, 3.0)]
    )
    sol = sdp.solve(clash)
    assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
    assert sol.message.startswith("inconsistent affine constraints (row 1, residual")
    c = sdp._Compiled(clash)
    assert sdp._presolve(c, 1e-8) == _presolve_mgs(c.row_vectors(), c.b, 1e-8)


def _max_step(x, d):
    """Per-block step length: largest alpha with x + alpha*d >= 0."""
    if x.shape[0] == 1:
        return np.inf if d[0, 0] >= 0 else x[0, 0] / (-d[0, 0])
    l = np.linalg.cholesky(x)
    w = np.linalg.solve(l, d)
    w = np.linalg.solve(l, w.T).T
    lam = np.linalg.eigvalsh((w + w.T) / 2).min()
    return np.inf if lam >= -1e-14 else -1.0 / lam


def test_batched_step_length_equals_per_block_minimum_bitwise():
    rng = np.random.default_rng(5)
    dims = [4, 1, 2, 4, 1, 3, 2, 1, 4]

    def stacks(mats):  # per-group stacks, one group per block size
        return [np.stack([x for x, d in zip(mats, dims) if d == n]) for n in sorted(set(dims))]

    for trial in range(40):
        M = [_random_pd(rng, d) for d in dims]
        D = [_random_sym(rng, d) for d in dims]
        if trial % 4 == 0:  # only a few blocks limit the step
            D = [dd @ dd + np.eye(len(dd)) if b % 3 else dd for b, dd in enumerate(D)]
        ref = min(_max_step(x, d) for x, d in zip(M, D))
        assert sdp._step_length(sdp._factor(stacks(M)), stacks(D)) == ref
    psd = stacks([_random_pd(rng, d) for d in dims])
    assert sdp._step_length(sdp._factor(psd), psd) == np.inf


def test_robustness_of_a_fourier_mub_pair_at_d5():
    # two mutually unbiased bases: eta = (1 + (sqrt d - 1)/(d - 1))/2
    d = 5
    a = _fourier_pair(d)
    res = incompat.depolarising_robustness(a)
    assert abs(res.eta - (1 + (np.sqrt(d) - 1) / (d - 1)) / 2) < 1e-6
    assert res.verdict == incompat.VERDICT_INCOMPATIBLE
    noisy = depolarise(a, res.eta)
    for x in range(2):
        marg = res.parent.marginal(x)
        for k in range(d):
            assert np.abs(marg.elements[k] - noisy.measurements[x].elements[k]).max() <= 1e-7
    again = incompat.depolarising_robustness(a)
    assert again.eta == res.eta
    assert again.solution.iterations == res.solution.iterations
    assert all(np.array_equal(g, h) for g, h in zip(res.parent.elements, again.parent.elements))
