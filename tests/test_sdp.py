import itertools
import logging

import numpy as np
import pytest

from subincompat import coexist, corpus, incompat, linalg, sdp, steering
from subincompat.povm import Assemblage, depolarise, from_basis, random_povm

from helpers import real_embedding, sigma_xz_pair


def test_trivial_lp_max_x_below_one():
    bld = sdp.Builder()
    x = bld.free()
    s = bld.cblock(1)
    bld.eq_scalar([(s, np.eye(1))], [(x, 1.0)], 1.0)  # x + s = 1, s >= 0
    bld.objective([], [(x, 1.0)])
    sol = sdp.solve(bld.prob)
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
    bld.objective([(x, m)], [])
    sol = sdp.solve(bld.prob)
    top = np.linalg.eigvalsh(m).max()
    assert sol.status == "Optimal"
    assert abs(sol.primal_value - top) < 1e-7
    xm = bld.extract(sol.primal_blocks, x)
    assert abs(np.trace(xm).real - 1.0) < 1e-7


def test_random_instances_with_known_optimum():
    # Build problems from a constructed primal-dual optimal pair:
    # X* = V diag(1,1,0) V^T, Z* = V diag(0,0,g) V^T (complementary),
    # C = sum_i y*_i A_i + Z*, b_i = <A_i, X*>.  Strong duality gives
    # optimal value <C, X*> for min <C,X> s.t. <A_i,X> = b_i, X >= 0, so
    # max <-C,X> reaches -<C, X*>.
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
            objective=({0: -c}, {}),
            constraints=[({0: a}, {}, float(np.tensordot(a, xstar))) for a in amats],
        )
        sol = sdp.solve(prob)
        target = float(np.tensordot(c, xstar))
        assert sol.status == "Optimal"
        assert abs(-sol.primal_value - target) <= 1e-6 * (1 + abs(target))
        assert sol.gap <= 1e-8 * (1 + abs(sol.primal_value))


def test_inconsistent_rows_detected_infeasible():
    bld = sdp.Builder()
    y = bld.cblock(2)
    bld.eq_scalar([(y, np.eye(2, dtype=complex))], [], 1.0)
    bld.eq_scalar([(y, np.eye(2, dtype=complex))], [], 2.0)
    feasible, slack, cert = sdp.feasibility(bld.prob)
    assert feasible is False
    assert cert is None


def test_feasibility_positive_slack_certificate():
    # tr X = 2 on a 2x2 block admits X = I with unit slack to spare
    bld = sdp.Builder()
    x = bld.cblock(2)
    bld.eq_scalar([(x, np.eye(2, dtype=complex))], [], 2.0)
    feasible, slack, cert = sdp.feasibility(bld.prob)
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
    bld.objective([], [(t, 1.0)])
    sol = sdp.solve(bld.prob)
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


def test_solver_error_on_iteration_cap(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)
    with pytest.raises(sdp.SolverError):
        incompat.depolarising_robustness(sigma_xz_pair())


def test_a_capped_feasibility_solve_decides_nothing(monkeypatch):
    # four iterates are not the optimum: the slack of the last one is no
    # verdict, so jm_parent raises instead of reporting it
    monkeypatch.setattr(sdp, "MAX_ITERS", 4)
    with pytest.raises(sdp.SolverError, match="feasibility solve failed: NumericalFailure"):
        incompat.jm_parent(corpus.build("sigma-xz-sharp"))


def test_complex_hermitian_block_round_trip():
    # a genuinely complex constraint matrix exercises the imaginary hvec
    # coordinates and a complex Hermitian solver block
    h = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    bld = sdp.Builder()
    x = bld.cblock(2)
    bld.eq_matrix([(x, 1.0)], h)
    feasible, slack, cert = sdp.feasibility(bld.prob)
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


def _random_problem(rng, d=3, nb=5, n_free=2, m=30):
    """Rows mention a random subset of nb blocks of dimension d and of the
    free variables."""
    cons = []
    for _ in range(m):
        picked = [b for b in range(nb) if rng.random() < 0.5] or [0]
        bc = {b: _random_sym(rng, d) for b in picked}
        fc = {j: float(rng.standard_normal()) for j in range(n_free) if rng.random() < 0.5}
        cons.append((bc, fc, float(rng.standard_normal())))
    return sdp.SdpProblem(blocks=[d] * nb, n_free=n_free, constraints=cons)


def _dense_stack(p, rows):
    """Dense (len(rows), nb, d, d) coefficient stack of the given rows."""
    out = np.zeros((len(rows), len(p.blocks), p.blocks[0], p.blocks[0]), dtype=complex)
    for i, k in enumerate(rows):
        for b, mat in p.constraints[k][0].items():
            out[i, b] = mat
    return out


def _structure(p, kept):
    """p's structure over an arbitrary row subset (no row basis: the kernels
    never read the weights), every row a border row."""
    d, T, *_ = sdp._dense(p)
    weights = np.zeros((len(p.constraints) - len(kept), len(kept)))
    return sdp._Structure(d, np.zeros((0, len(p.blocks))), T[kept], p.n_free, kept, weights)


def _kernels(st, X, Zi, y):
    """The structure's row products, adjoint and Schur matrix at (X, Zi, y)."""
    return st.apply(X), st.adjoint(y), st.schur(X, Zi, np.empty((st.m, st.m)))


def _dense_kernels(A, X, Zi, y):
    """The same from the dense coefficient stack A (rows, nb, d, d):
    sum_b <A_kb, X_b>, sum_k y_k A_kb and sum_b Re tr(A_kb X_b A_lb Zi_b)."""
    xaz = X @ (A @ Zi)
    return (np.einsum("kbij,bji->k", A, X).real, np.einsum("kbij,k->bij", A, y),
            np.einsum("kbij,lbji->kl", A, xaz).real)


def _assert_close(got, ref, floor=0.0):
    assert np.abs(got - ref).max() <= 1e-12 * max(floor, np.abs(ref).max())


def test_schur_per_block_matches_dense_einsum():
    rng = np.random.default_rng(11)
    p = _random_problem(rng)
    kept = [k for k in range(len(p.constraints)) if k % 3]  # drop every third row
    c = _structure(p, kept)
    X = np.array([_random_pd(rng, 3) for _ in p.blocks])
    Zi = np.array([np.linalg.inv(_random_pd(rng, 3)) for _ in p.blocks])
    y = rng.standard_normal(len(kept))
    refs = _dense_kernels(_dense_stack(p, kept), X, Zi, y)
    for got, ref, floor in zip(_kernels(c, X, Zi, y), refs, (0.0, 1.0, 0.0)):
        _assert_close(got, ref, floor)


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


def test_hvec_rows_are_cached_read_only():
    for d in range(1, 5):
        rows = sdp._hvec_rows(d)
        assert sdp._hvec_rows(d) is rows and rows.shape == (d * d, 2 * d * d)
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


def _random_complex_problem(rng, d=3, nb=5, n_free=2, m=40):
    """Rows mention a random subset of nb Hermitian blocks of dimension d
    and of the free variables."""
    cons = []
    for _ in range(m):
        picked = [b for b in range(nb) if rng.random() < 0.5] or [0]
        bc = {b: _random_herm(rng, d) for b in picked}
        fc = {j: float(rng.standard_normal()) for j in range(n_free) if rng.random() < 0.5}
        cons.append((bc, fc, float(rng.standard_normal())))
    return sdp.SdpProblem(blocks=[d] * nb, n_free=n_free, constraints=cons)


def test_complex_kernels_match_the_real_embedding():
    # the same kernels on the real embedding: coefficients A~ = emb(A)/2,
    # iterates X~ = emb(X) and Z~^-1 = 2 emb(Z^-1)
    rng = np.random.default_rng(12)
    p = _random_complex_problem(rng)
    kept = [k for k in range(len(p.constraints)) if k % 4 != 1]
    c = _structure(p, kept)
    X = np.array([_random_hpd(rng, 3) for _ in p.blocks])
    Zi = np.array([linalg.hermitianize(np.linalg.inv(_random_hpd(rng, 3))) for _ in p.blocks])
    emb = np.zeros((len(kept), len(p.blocks), 6, 6))
    for i, k in enumerate(kept):
        for b, mat in p.constraints[k][0].items():
            emb[i, b] = real_embedding(mat) / 2
    xe = np.array([real_embedding(x) for x in X])
    zie = np.array([2 * real_embedding(z) for z in Zi])
    y = rng.standard_normal(len(kept))
    ref_apply, ref_adj, ref = _dense_kernels(emb, xe, zie, y)
    got_apply, got_adj, got = _kernels(c, X, Zi, y)
    _assert_close(got, ref)
    _assert_close(got_apply, ref_apply)
    _assert_close(np.array([real_embedding(g) / 2 for g in got_adj]), ref_adj)


def _padded(p):
    """p as a program over one block dimension D, the largest of p's: each
    smaller block becomes the leading corner of a D x D block.  Rows pin the
    real and imaginary parts of the padding's off-diagonal entries to 0, and
    a cost-free row fixes the trace of the spare diagonal corner to its
    size, so both sides keep interior points.  The rewrite is exact: a
    padded block is PSD iff its corner is."""
    D = max(p.blocks)

    def pad(bc):
        out = {}
        for b, mat in bc.items():
            out[b] = np.zeros((D, D), dtype=complex)
            out[b][:p.blocks[b], :p.blocks[b]] = mat
        return out

    cons = [(pad(bc), fc, rhs) for bc, fc, rhs in p.constraints]
    for b, d in enumerate(p.blocks):
        if d == D:
            continue
        for i in range(D):
            for j in range(max(d, i + 1), D):
                for part in (0.5, 0.5j):
                    e = np.zeros((D, D), dtype=complex)
                    e[i, j], e[j, i] = part, np.conj(part)
                    cons.append(({b: e}, {}, 0.0))
        spare = np.diag([0.0] * d + [1.0] * (D - d))
        cons.append(({b: spare}, {}, float(D - d)))
    return sdp.SdpProblem(blocks=[D] * len(p.blocks), n_free=p.n_free,
                          objective=(pad(p.objective[0]), p.objective[1]), constraints=cons)


def test_complex_sdp_native_and_embedded_reach_the_same_optimum():
    # min <C,X> + c's over Hermitian blocks from a constructed optimal pair,
    # solved as max <-C,X> - c's: X*_b, Z*_b complementary,
    # C_b = sum_k y*_k A_kb + Z*_b, c = E'y*.  Both programs are padded to
    # one block dimension (``_padded``).
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
        blocks=list(dims), n_free=1, objective=({b: -c for b, c in enumerate(cmat)}, {0: -cfree}),
        constraints=cons,
    )
    half = lambda h: real_embedding(h) / 2  # noqa: E731
    embedded = sdp.SdpProblem(
        blocks=[2 * d for d in dims], n_free=1,
        objective=({b: -half(c) for b, c in enumerate(cmat)}, {0: -cfree}),
        constraints=[({b: half(a) for b, a in bc.items()}, fc, r) for bc, fc, r in cons],
    )
    sol_n, sol_e = sdp.solve(_padded(native)), sdp.solve(_padded(embedded))
    assert sol_n.status == sol_e.status == sdp.STATUS_OPTIMAL
    assert abs(sol_n.primal_value - sol_e.primal_value) <= 1e-7
    assert abs(-sol_n.primal_value - target) <= 1e-6 * (1 + abs(target))
    assert sol_n.lstsq_fallbacks == sol_e.lstsq_fallbacks == 0


def test_mixed_block_dimensions_are_rejected():
    eye = np.eye(2)
    p = sdp.SdpProblem(blocks=[2, 1], constraints=[({0: eye, 1: np.ones((1, 1))}, {}, 1.0)])
    for call in (sdp.compile_program, sdp.solve, sdp.feasibility):
        with pytest.raises(ValueError, match="blocks of one dimension"):
            call(p)
    assert sdp.compile_program(_padded(p)).blocks == [2, 2]


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
        bld.objective([(x, np.diag([2.0, 1.0]))], [])
        sol = sdp.solve(bld.prob)
    assert sol.status == sdp.STATUS_OPTIMAL
    assert sol.lstsq_fallbacks == 2 * (sol.iterations - 1) > 0
    assert len(caplog.records) == sol.lstsq_fallbacks


def test_lin_solve_never_returns_a_solution_worse_than_zero():
    # rhs along the null direction of a rank-deficient matrix: LU meets a
    # pivot at rounding level and returns x ~ 1e13, whose residual mostly
    # exceeds rhs itself; such a solve falls back to least squares (x ~ 0)
    falls = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(rng.standard_normal((6, 6)))[0] for _ in range(2))
        a = u @ np.diag([1e3, 1e2, 10, 1, 1e-1, 0.0]) @ v.T
        x, fell_back = sdp._lin_solve(a, u[:, 5])
        if fell_back:
            falls += 1
            assert np.abs(x).max() < 1e-9
        else:
            assert np.abs(a @ x - u[:, 5]).max() <= np.abs(u[:, 5]).max()
    assert falls > 0


def test_corpus_robustness_solves_take_no_lstsq_fallback():
    for k in corpus.builtin_keys():
        if corpus.kind_of(k) == "assemblage":
            assert incompat.depolarising_robustness(corpus.build(k)).solution.lstsq_fallbacks == 0


def _rows(p):
    """Fresh presolve input of p: its dense rows [hvec(A_k1)|...|E_k] and rhs."""
    _, T, E, b, *_ = sdp._dense(p)
    return np.hstack([T.reshape(len(T), -1), E]), b


def _presolved(p):
    """(kept, message) of p in the form of ``_presolve_mgs``: the presolve's
    kept rows, or None and the message of p compiled, which binding p's
    data to its structure sets."""
    message = sdp.compile_program(p).message
    return (None, message) if message else (sdp._presolve(_rows(p)[0])[0], None)


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
    # the robustness programs written out in full, every row
    seen = []
    real = incompat.parent_program

    def recording(d, kernel, rhs, noise=None, objective=None):
        p = _parent_problem(d, np.asarray(kernel, dtype=float), rhs, noise)
        seen.append((_presolved(p), _presolve_mgs(*_rows(p), 1e-8)))
        return real(d, kernel, rhs, noise, objective)

    monkeypatch.setattr(incompat, "parent_program", recording)
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
    clash = _padded(sdp.SdpProblem(
        blocks=[2, 1], constraints=[({0: eye, 1: np.ones((1, 1))}, {}, 1.0),
                                    ({0: 2 * eye, 1: 2 * np.ones((1, 1))}, {}, 3.0)]
    ))
    sol = sdp.solve(clash)
    assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
    assert sol.message.startswith("inconsistent affine constraints (row 1, residual")
    assert _presolved(clash) == _presolve_mgs(*_rows(clash), 1e-8)
    assert _presolved(zero_row) == _presolve_mgs(*_rows(zero_row), 1e-8)


def test_bind_checks_the_rows_a_structure_leaves_out():
    # row 2 = row 0 + 2 * row 1, free coefficients included; row 3 is zero
    rng = np.random.default_rng(41)
    a0, a1 = _random_herm(rng, 2), _random_herm(rng, 2)

    def problem(b, e):
        coefs = [{0: a0}, {0: a1}, {0: a0 + 2 * a1}, {}]
        return sdp.SdpProblem(blocks=[2], n_free=1, constraints=[
            (bc, {0: ej} if ej else {}, bj) for bc, ej, bj in zip(coefs, e, b)])

    e = [0.3, -0.2, -0.1, 0.0]
    good = [1.0, 0.5, 2.0, 0.0]
    prog = sdp.compile_program(problem(good, e))
    assert prog.message == "" and prog.structure.kept.tolist() == [0, 1]
    assert prog.structure.left_out.tolist() == [2, 3]
    assert np.abs(prog.structure.weights - [[1.0, 2.0], [0.0, 0.0]]).max() <= 1e-12
    for b, message in (([1.0, 0.5, 2.5, 0.0], "inconsistent affine constraints (row 2, residual 0.5)"),
                       ([1.0, 0.5, 2.0, 0.25], "row 3 is 0 = 0.25"),
                       ([1.0, 0.5, 2.5, 0.25], "inconsistent affine constraints (row 2, residual 0.5)")):
        rebound = prog.bind(b=b)
        assert rebound.message == message
        assert sdp.compile_program(problem(b, e)).message == message
        assert _presolve_mgs(*_rows(problem(b, e)), 1e-8) == (None, message)
        assert sdp.solve(rebound).status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert rebound.bind(b=good).message == ""
    # within the tolerances: FEAS_TOL * scale on the zero row, 10x on row 2
    assert prog.bind(b=[1.0, 0.5, 2.0 + 2e-8, 0.9e-8]).message == ""
    assert prog.bind(b=[1.0, 0.5, 2.0, 1.1e-8 * 3]).message == "row 3 is 0 = 3.3e-08"
    # free coefficients that break the relations are an error, not data
    with pytest.raises(ValueError, match="row relations"):
        prog.bind(E=[[0.3], [-0.2], [0.5], [0.0]])
    with pytest.raises(ValueError, match="row relations"):
        prog.bind(E=[[0.3], [-0.2], [-0.1], [0.1]])
    assert sdp.solve(prog.bind(E=[[0.6], [-0.4], [-0.2], [0.0]])).status == sdp.STATUS_OPTIMAL
    # compiling checks only the rhs: the presolve reads the free coefficients,
    # and drops a row whose free coefficient is 1e-11 of its norm
    h = np.diag([1.0, 2.0])
    scaled = sdp.compile_program(sdp.SdpProblem(blocks=[2], n_free=1, constraints=[
        ({0: h}, {}, 1.0), ({0: 1e6 * h}, {0: 1e-5}, 1e6)]))
    assert scaled.structure.kept.tolist() == [0] and scaled.message == ""


def _max_step(x, d):
    """Per-block step length: largest alpha with x + alpha*d >= 0."""
    if x.shape[0] == 1:
        return np.inf if d[0, 0] >= 0 else x[0, 0] / (-d[0, 0])
    l = np.linalg.cholesky(x)
    w = np.linalg.solve(l, d)
    w = np.linalg.solve(l, w.T).T
    lam = np.linalg.eigvalsh((w + w.T) / 2).min()
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _step_ref(x, d):
    """Per-block step length by the shared-factor formula of the solver."""
    f = np.linalg.inv(np.linalg.cholesky(x))
    lam = np.linalg.eigvalsh(f @ d @ f.conj().T).min()
    return np.inf if lam >= -1e-14 else -1.0 / lam


def test_batched_step_length_equals_per_block_minimum_bitwise():
    rng = np.random.default_rng(5)
    dims = [4, 1, 2, 4, 1, 3, 2, 1, 4]

    def stacks(mats):  # the blocks of each size, one stack (one solver call) per size
        return {n: [x for x, d in zip(mats, dims) if d == n] for n in sorted(set(dims))}

    for trial in range(40):
        MX, MZ = ([_random_pd(rng, d) for d in dims] for _ in range(2))
        DX, DZ = ([_random_sym(rng, d) for d in dims] for _ in range(2))
        if trial % 4 == 0:  # only a few blocks limit the step
            DX, DZ = ([dd @ dd + np.eye(len(dd)) if b % 3 else dd for b, dd in enumerate(D)]
                      for D in (DX, DZ))
        for n, mx in stacks(MX).items():
            mz, dx, dz = stacks(MZ)[n], stacks(DX)[n], stacks(DZ)[n]
            F = sdp._factor(np.concatenate([mx, mz]))
            got = sdp._step_lengths(F, F.conj().transpose(0, 2, 1), np.concatenate([dx, dz]))
            for alpha, M, D in zip(got, (mx, mz), (dx, dz)):
                assert alpha == min(_step_ref(x, d) for x, d in zip(M, D))
                ref = min(_max_step(x, d) for x, d in zip(M, D))
                assert abs(alpha - ref) <= 1e-12 * ref or alpha == ref == np.inf
    for psd in stacks([_random_pd(rng, d) for d in dims]).values():
        S = np.concatenate([psd, psd])
        F = sdp._factor(S)
        assert sdp._step_lengths(F, F.conj().transpose(0, 2, 1), S) == (np.inf, np.inf)


def test_step_fraction_tends_to_one_but_never_reaches_it():
    # STEP_FRAC while the predictor cuts mu by at most 50x, 1 - mu_aff/mu
    # below that, and the floor 1 - GAP_TOL however far mu_aff falls
    mu = 0.37
    for ratio in (1.0, 0.5, 0.02):
        assert sdp._step_fraction(ratio * mu, mu) == sdp.STEP_FRAC
    for ratio in (0.019, 1e-3, 1e-6):
        assert sdp._step_fraction(ratio * mu, mu) == 1.0 - ratio * mu / mu
    for mu_aff in (0.0, 1e-20 * mu):
        assert sdp._step_fraction(mu_aff, mu) == 1.0 - sdp.GAP_TOL
    assert sdp._step_fraction(-1e-18, mu) == 1.0 - sdp.GAP_TOL < 1.0


def test_shared_factor_gives_the_inverse_of_z():
    # the solver factors [X; Z] per block size and takes Z^-1 = F_Z^H F_Z
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 5):
        X = np.array([_random_hpd(rng, d) for _ in range(3)])
        Z = np.array([_random_hpd(rng, d) for _ in range(4)])
        fz = sdp._factor(np.concatenate([X, Z]))[len(X):]
        ref = np.linalg.inv(Z)
        assert np.abs(fz.conj().transpose(0, 2, 1) @ fz - ref).max() <= 1e-12 * np.abs(ref).max()


def test_several_free_variables_reach_the_recorded_optimum():
    # min <C,X> + c's with three free variables from a constructed optimal
    # pair, solved as max <-C,X> - c's, as in
    # test_complex_sdp_native_and_embedded_reach_the_same_optimum, padded to
    # one block dimension; RECORDED is this solve's optimum, 5.0e-9 from the
    # constructed optimum 3.6939622349693844, inside GAP_TOL * (1 + |optimum|).
    RECORDED = 3.693962229969793
    rng = np.random.default_rng(51)
    dims, m, nf = (3, 2, 1, 1), 9, 3
    xs, zs = [], []
    for d in dims:
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        lam_x = np.array([1.0] * (d - 1) + [0.0]) if d > 1 else np.array([0.0])
        xs.append(q @ np.diag(lam_x) @ q.conj().T)
        zs.append(q @ np.diag((1.0 - np.sign(lam_x)) * (1 + rng.random(d))) @ q.conj().T)
    ystar, sstar = rng.standard_normal(m), rng.standard_normal(nf)
    e = rng.standard_normal((m, nf))
    cons = []
    for k in range(m):
        bc = {b: _random_herm(rng, d) for b, d in enumerate(dims)}
        rhs = sum(np.trace(a @ x).real for a, x in zip(bc.values(), xs)) + e[k] @ sstar
        cons.append((bc, {j: float(e[k, j]) for j in range(nf)}, float(rhs)))
    cmat = [sum(ystar[k] * cons[k][0][b] for k in range(m)) + zs[b] for b in range(len(dims))]
    cfree = e.T @ ystar
    target = sum(np.trace(c @ x).real for c, x in zip(cmat, xs)) + cfree @ sstar
    p = sdp.SdpProblem(
        blocks=list(dims), n_free=nf, constraints=cons,
        objective=({b: -c for b, c in enumerate(cmat)}, {j: -float(v) for j, v in enumerate(cfree)}),
    )
    sol = sdp.solve(_padded(p))
    assert sol.status == sdp.STATUS_OPTIMAL
    assert abs(sol.primal_value - RECORDED) <= 1e-9
    assert abs(-sol.primal_value - target) <= 1e-6 * (1 + abs(target))
    assert np.abs(sol.scalar_vars - sstar).max() <= 1e-3


def test_presolve_panels_match_the_mgs_reference():
    # rows over more than three blocks of 32: dependent rows in later blocks
    # than the rows they combine, zero and inconsistent rows at the first and
    # at the last position of a block; 83 columns (nine 3 x 3 solver blocks
    # and two free variables), so the last rows depend on earlier ones as well
    P = 32
    rng = np.random.default_rng(61)
    dims, nf, m = (3,) * 9, 2, 3 * P + 5
    point = [_random_hpd(rng, d) for d in dims], rng.standard_normal(nf)

    def row():  # random coefficients, rhs consistent with the point
        bc = {b: _random_herm(rng, dims[b]) for b in range(len(dims)) if b == 0 or rng.random() < 0.6}
        fc = {j: float(rng.standard_normal()) for j in range(nf) if rng.random() < 0.5}
        rhs = sum(np.trace(a @ point[0][b]).real for b, a in bc.items())
        return bc, fc, float(rhs + sum(v * point[1][j] for j, v in fc.items()))

    def combo(cons, ks, ws, shift=0.0):
        bc, fc = {}, {}
        for k, w in zip(ks, ws):
            for b, a in cons[k][0].items():
                bc[b] = bc.get(b, 0.0) + w * a
            for j, v in cons[k][1].items():
                fc[j] = fc.get(j, 0.0) + w * v
        return bc, fc, sum(w * cons[k][2] for k, w in zip(ks, ws)) + shift

    base = [row() for _ in range(m)]
    base[P + 5] = combo(base, [2, 7], [0.5, -1.5])
    base[2 * P + 3] = combo(base, [1, P + 2, 2 * P], [1.0, 2.0, -0.25])
    base[P] = base[2 * P - 1] = ({}, {}, 0.0)
    # large and dependent up to 1e-5: dropped, as 1e-5 < 1e-10*|row|
    big = combo(base + [row()], [4, 40, m], [1e6, -2e6, 1e-5])
    cases = [(base[:2 * P + 10] + [big] + base[2 * P + 11:], None)]
    for k in (P, 2 * P - 1):
        cases.append((base[:k] + [({}, {}, 3.0)] + base[k + 1:], f"row {k} is 0 = 3"))
        bad = combo(base, [0, 3], [1.0, 1.0], shift=1.0)
        cases.append((base[:k] + [bad] + base[k + 1:], f"inconsistent affine constraints (row {k},"))
    for cons, message in cases:
        prob = sdp.SdpProblem(blocks=list(dims), n_free=nf, constraints=cons)
        rows, b = _rows(prob)
        got = _presolved(prob)
        assert got == _presolve_mgs(rows, b, 1e-8)
        if message is None:
            assert len(got[0]) == rows.shape[1] < m - 4
            assert not {P, P + 5, 2 * P - 1, 2 * P + 3, 2 * P + 10} & set(got[0])
        else:
            assert got[0] is None and got[1].startswith(message)


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


def _parent_args(settings, noisy):
    """(d, kernel, rhs, noise) of the JM (noisy=False) or robustness parent
    program of the given settings' elements, built as incompat builds them."""
    d = settings[0][0].shape[0]
    labels = list(itertools.product(*[range(len(els)) for els in settings]))
    rows = [(x, k) for x, els in enumerate(settings) for k in range(len(els))]
    kernel = incompat.marginal_kernel(labels, rows)
    els = [settings[x][k] for x, k in rows]
    if not noisy:
        return d, kernel, els, None
    rhs = [np.trace(e).real / d * np.eye(d) for e in els]
    return d, kernel, rhs, [e - t for e, t in zip(els, rhs)]


def _parent_problem(d: int, kernel, rhs, noise=None) -> sdp.SdpProblem:
    """The parent program written out in full: every row, as the Builder
    expands it, in the row layout of ``incompat.parent_program``.  With
    noise the last row is eta + tr S = 1 over a d x d PSD slack S after the
    G blocks."""
    bld = sdp.Builder()
    for _ in range(kernel.shape[1]):
        bld.cblock(d)
    if noise is not None:
        eta, slack = bld.free(), bld.cblock(d)
    for r, row in enumerate(kernel):
        free_terms = [(eta, -noise[r])] if noise is not None else ()
        cols = np.flatnonzero(row).tolist()
        bld.eq_matrix([(k, float(row[k])) for k in cols], rhs[r], free_terms=free_terms)
    if noise is not None:
        bld.eq_scalar(block_terms=[(slack, np.eye(d))], free_terms=[(eta, 1.0)], rhs=1.0)
        bld.objective(free_terms=[(eta, 1.0)])
    return bld.prob


def _full_program(d, kernel, rhs, noise=None, objective=None):
    """A parent program written out in full, as the presolve sees it."""
    p = _parent_problem(d, np.asarray(kernel, dtype=float), rhs, noise)
    return sdp.with_slack(p) if noise is None and objective is None else p


def test_cached_and_cold_solves_are_bitwise_equal():
    rng = np.random.default_rng(71)
    a, b = (Assemblage(3, [random_povm(3, 3, rng) for _ in range(2)]) for _ in range(2))

    def run(x):
        r = incompat.depolarising_robustness(x)
        j = incompat.jm_parent(x)
        w = incompat.witness(*x.measurements)
        return (r.eta.hex(), r.solution.iterations, r.solution.scalar_vars.tobytes(),
                b"".join(g.tobytes() for g in r.solution.primal_blocks + r.parent.elements),
                j.feasible, j.slack.hex(), w.value.hex(),
                b"".join(g.tobytes() for g in w.X + w.Y + [w.N]))

    first, other, third = run(a), run(b), run(a)
    assert third == first and other != first
    incompat._parent_structure.cache_clear()
    incompat._witness_structure.cache_clear()
    assert run(a) == first
    # one structure per shape, shared by every call, and nothing in it writable
    prog, other = (incompat.parent_program(*_parent_args([m.elements for m in x.measurements], False))
                   for x in (a, b))
    assert other.structure is prog.structure
    st = prog.structure
    for arr in (st.kept, st.left_out, st.weights, st.K, st.KK, st.T, prog.b, prog.E, prog.C, prog.c):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_dropped_rows_are_checked_per_call():
    # setting 0 sums to the identity, setting 1 to 1.01 times it
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x0, x1 = np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])
    good, bad = [[z0, z1], [x0, x1]], [[z0, z1], [1.01 * x0, 1.01 * x1]]
    for noisy in (False, True):
        ok = sdp.solve(incompat.parent_program(*_parent_args(good, noisy)))
        assert ok.status == sdp.STATUS_OPTIMAL
        prog = incompat.parent_program(*_parent_args(bad, noisy))
        assert prog.message.startswith("inconsistent affine constraints (row 12, residual")
        sol = sdp.solve(prog)
        ref = sdp.solve(_full_program(*_parent_args(bad, noisy)))
        assert ref.status == sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert ref.message.startswith("inconsistent affine constraints (row 12, residual")
        assert sol.message.split(", residual")[0] == ref.message.split(", residual")[0]
    assert sdp.feasibility(incompat.parent_program(*_parent_args(bad, False))) == (False, -np.inf, None)
    # noise that breaks the row relations would make a dropped row independent
    d, kernel, rhs, noise = _parent_args(good, True)
    with pytest.raises(ValueError, match="row relations"):
        incompat.parent_program(d, kernel, rhs, noise[:-1] + [2 * noise[-1]])


def test_zero_kernel_rows_are_checked_like_any_other():
    # G0 + G1 = 1, 0 = Z, G0 = diag(3/4, 1/4): a zero row with nonzero rhs is
    # infeasible, as the presolve reports it; with rhs 0 it changes nothing
    kernel = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    eye, g0 = np.eye(2), np.diag([0.75, 0.25])
    bad = [eye, np.diag([0.0, 0.5]), g0]
    prog = incompat.parent_program(2, kernel, bad)
    sol = sdp.solve(prog)
    assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
    assert sol.message == "row 5 is 0 = 0.5" == sdp.solve(_full_program(2, kernel, bad)).message
    assert sdp.feasibility(prog) == (False, -np.inf, None)
    with_row = sdp.feasibility(incompat.parent_program(2, kernel, [eye, np.zeros((2, 2)), g0]))
    without = sdp.feasibility(incompat.parent_program(2, kernel[[0, 2]], [eye, g0]))
    assert with_row[:2] == without[:2]
    assert with_row[0] and abs(with_row[1] - 0.25) < 1e-6


def test_parent_programs_emit_full_rank_rows(monkeypatch):
    # the rows a parent program leaves out are those the presolve drops
    # from the program written out in full
    seen = []
    real = incompat.parent_program

    def recording(*args, **kwargs):
        prog = real(*args, **kwargs)
        seen.append((_full_program(*args, **kwargs), prog))
        return prog

    monkeypatch.setattr(incompat, "parent_program", recording)
    for k in corpus.builtin_keys():
        if corpus.kind_of(k) == "assemblage":
            incompat.depolarising_robustness(corpus.build(k))
            incompat.jm_parent(corpus.build(k))
    rho, _ = steering.peres_state(0.2, 0.4)
    steering.lhs_feasible(steering.assemblage_from_state(rho, steering.peres_mubs()))
    coexist.coexistent_parent(*corpus.build("sigma-xz-sharp").measurements)
    coexist.seesaw(3, 2, 3, 1)
    qutrit = corpus.build("qutrit-pair").measurements
    coexist.coexistent_parent(*qutrit, candidate=qutrit[1])
    dropped = []
    for full, prog in seen:
        kept, message = _presolved(full)
        assert message is None
        assert prog.structure.kept.tolist() == kept
        dropped.append(len(full.constraints) - len(kept))
    n = 2 * len([k for k in corpus.builtin_keys() if corpus.kind_of(k) == "assemblage"])
    assert all(dropped[:n]) and dropped[n] == 9  # the second setting's last row


def test_parent_programs_keep_one_iterate_stack(monkeypatch):
    # every program the package solves is compiled from its kernel, so each
    # runs one (nb, d, d) iterate stack over kernel rows: robustness (noise:
    # the d x d eta slack and its border row), JM and LHS (feasibility: the
    # slack column), the seesaw parent (objective), the witness (its tr N = 1
    # border row) and the coexistence candidate (d = 1)
    seen = []
    real = sdp.solve

    def recording(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(sdp, "solve", recording)
    a = corpus.build("qutrit-pair")
    incompat.depolarising_robustness(a)
    incompat.jm_parent(a)
    incompat.witness(*a.measurements)
    rho, _ = steering.peres_state(0.2, 0.4)
    steering.lhs_feasible(steering.assemblage_from_state(rho, steering.peres_mubs()))
    coexist.seesaw(3, 2, 3, 1)
    coexist.coexistent_parent(*a.measurements, candidate=a.measurements[1])
    assert all(isinstance(p, sdp.Program) and len(p.structure.K) for p in seen)
    forms = {(p.structure.g, p.structure.nf, p.structure.d) for p in seen}
    assert {(1, 1, 3), (0, 1, 3), (0, 0, 3), (1, 0, 3), (0, 1, 1)} <= forms


def _witness_problem(d, na, nb):
    """The witness program written out in full with the Builder, blocks in
    the order of ``incompat._witness_structure``."""
    bld = sdp.Builder()
    xs = [bld.cblock(d) for _ in range(na)]
    ys = [bld.cblock(d) for _ in range(nb)]
    nn = bld.cblock(d)
    for x in xs:
        for y in ys:
            bld.eq_matrix([(x, 1.0), (y, 1.0), (bld.cblock(d), 1.0), (nn, -1.0)], np.zeros((d, d)))
    bld.eq_scalar(block_terms=[(nn, np.eye(d))], rhs=1.0)
    return bld.prob


def test_witness_structure_keeps_the_rows_of_the_full_presolve():
    for d, na, nb in ((2, 2, 2), (3, 2, 3), (3, 3, 3)):
        full = _witness_problem(d, na, nb)
        prog = incompat._witness_structure(d, na, nb)
        kept, message = _presolved(full)
        assert message is None and prog.structure.kept.tolist() == kept
        assert np.array_equal(prog.b, np.array([rhs for *_, rhs in full.constraints])[kept])


@pytest.mark.parametrize("kind", ["noise", "feasibility", "witness"])
def test_kernels_match_the_program_written_out_in_full(kind):
    # row products, adjoint and Schur matrix of a compiled structure against
    # the dense coefficients of its kept rows in the program written out in
    # full: a robustness parent (kernel rows and the eta border row), a
    # feasibility parent (slack column) and the witness; general rows only
    # are test_schur_per_block_matches_dense_einsum's
    rng = np.random.default_rng(81)
    settings = [random_povm(3, 3, rng).elements, random_povm(3, 2, rng).elements]
    if kind == "witness":
        full, st = _witness_problem(3, 3, 2), incompat._witness_structure(3, 3, 2).structure
    else:
        args = _parent_args(settings, kind == "noise")
        full, st = _full_program(*args), incompat.parent_program(*args).structure
    assert len(st.K) == len(st.kept) // 9 > 0
    X = np.array([_random_hpd(rng, 3) for _ in full.blocks])
    Zi = np.array([linalg.hermitianize(np.linalg.inv(_random_hpd(rng, 3))) for _ in full.blocks])
    y = rng.standard_normal(st.m)
    refs = _dense_kernels(_dense_stack(full, st.kept), X, Zi, y)
    for got, ref, floor in zip(_kernels(st, X, Zi, y), refs, (0.0, 1.0, 0.0)):
        _assert_close(got, ref, floor)


def test_a_capped_solve_reports_the_residual_of_the_iterate_it_returns(monkeypatch):
    # the last pass measures its iterate and stops without stepping, so the
    # blocks a capped solve returns are the ones its residuals describe
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    a = corpus.build("qutrit-pair")
    prog = incompat.parent_program(*_parent_args([m.elements for m in a.measurements], True))
    sol = sdp.solve(prog)
    assert sol.status == sdp.STATUS_NUMERICAL_FAILURE and sol.iterations == 3
    st = prog.structure
    r_p = prog.b - (st.apply(np.array(sol.primal_blocks)) + prog.E @ sol.scalar_vars)
    assert abs(np.abs(r_p).max() - sol.residual_primal) <= 1e-14


@pytest.mark.parametrize("bmax", [0.25, 20.0])
def test_the_start_point_is_at_the_scale_of_the_data(monkeypatch, bmax):
    # a capped solve returns the only iterate it measured: X0 = (1 + max|b|) I
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)
    bld = sdp.Builder()
    x, w = bld.cblock(2), bld.cblock(2)
    bld.eq_scalar([(x, np.eye(2))], [], bmax)
    bld.eq_scalar([(w, np.diag([1.0, -1.0]))], [], -0.1)
    bld.objective([(x, np.diag([1.0, 0.0])), (w, np.eye(2))], [])
    sol = sdp.solve(bld.prob)
    assert sol.status == sdp.STATUS_NUMERICAL_FAILURE and sol.iterations == 1
    assert (np.array(sol.primal_blocks) == (1.0 + bmax) * np.eye(2)).all()


def test_two_solves_of_one_program_share_no_memory(monkeypatch):
    a = corpus.build("qutrit-pair")
    prog = incompat.parent_program(*_parent_args([m.elements for m in a.measurements], True))
    for cap in (sdp.MAX_ITERS, 3):
        monkeypatch.setattr(sdp, "MAX_ITERS", cap)
        one, two = sdp.solve(prog), sdp.solve(prog)
        for x in (one.scalar_vars, *one.primal_blocks):
            for y in (two.scalar_vars, *two.primal_blocks):
                assert not np.shares_memory(x, y)
