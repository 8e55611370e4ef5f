"""Block-diagonal semidefinite programming: primal-dual interior point solver.

Standard form (maximisation):

    max  sum_b <C_b, X_b> + c's
    s.t. sum_b <A_kb, X_b> + (E s)_k = b_k     k = 1..m
         X_b >= 0  (real symmetric blocks),  s free.

The solver uses the HKM search direction with a Mehrotra predictor-corrector
and an augmented system for the free scalar variables.  In the physics
programs each block appears in only a few of the rows, so the data are kept
per block: the rows that mention block b and their flattened coefficients.
The Schur complement B[k,l] = sum_b tr(A_kb X_b A_lb Z_b^-1) is assembled
block by block over those rows only (a row-sparse, per-block Schur formula),
each term one batched matrix product and one GEMM.  Step lengths run one
batched Cholesky/eigvalsh per block size.  A presolve scans the rows in
order, removes those linearly dependent on earlier ones by two classical
Gram-Schmidt passes (CGS2), and detects inconsistent affine systems.
Everything is plain numpy and fully deterministic: identical inputs produce
identical iterate sequences.

Complex Hermitian physics blocks enter through ``Builder``, which maps each
Hermitian variable to its real symmetric embedding (linalg.real_embedding)
and expands matrix equalities in an orthonormal basis of Hermitian matrices.
Feasibility questions are answered by ``feasibility``, which maximises a
uniform slack t with every block shifted to X - t*I >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

STATUS_OPTIMAL = "Optimal"
STATUS_PRIMAL_INFEASIBLE = "PrimalInfeasible"
STATUS_DUAL_INFEASIBLE = "DualInfeasible"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

FEAS_SLACK_TOL = 1e-7  # feasibility margin: feasible <=> slack >= -1e-7


@dataclass
class SolveOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iters: int = 200
    step_frac: float = 0.98
    unbounded_cutoff: float = 1e10


@dataclass
class SdpProblem:
    """Block-diagonal SDP data.

    constraints: list of (block_coeffs, free_coeffs, rhs) with block_coeffs a
    dict {block index -> symmetric coefficient matrix} and free_coeffs a dict
    {free var index -> float}.  objective likewise: (block dict, free dict).
    """

    blocks: list[int]
    n_free: int = 0
    objective: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))
    constraints: list[tuple[dict, dict, float]] = field(default_factory=list)
    sense: str = "max"

    def validate(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError(f"bad sense {self.sense!r}")
        for b, dim in enumerate(self.blocks):
            if dim < 1:
                raise ValueError(f"block {b} has dimension {dim}")
        for which, (bc, fc) in [("objective", self.objective)] + [
            (f"constraint {k}", (c[0], c[1])) for k, c in enumerate(self.constraints)
        ]:
            for b, mat in bc.items():
                m = np.asarray(mat, dtype=float)
                d = self.blocks[b]
                if m.shape != (d, d):
                    raise ValueError(f"{which}: block {b} coefficient shape {m.shape}")
                if np.abs(m - m.T).max() > 1e-10:
                    raise ValueError(f"{which}: block {b} coefficient not symmetric")
            for j in fc:
                if not 0 <= j < self.n_free:
                    raise ValueError(f"{which}: free index {j} out of range")
        for k, (_, _, rhs) in enumerate(self.constraints):
            if not np.isfinite(rhs):
                raise ValueError(f"constraint {k}: non-finite rhs")


@dataclass
class SdpSolution:
    status: str
    primal_blocks: list[np.ndarray]
    scalar_vars: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    residual_primal: float
    residual_dual: float
    message: str = ""


class _Compiled:
    """Compact per-block data for one problem.

    For block b, ``supp[b]`` holds the indices of the rows whose coefficient
    dict mentions b (ascending) and ``A[b]`` their coefficients, symmetrised
    and flattened to a (len(supp[b]), d_b^2) array.  Rows that never mention
    b cost nothing in any product over b.
    """

    def __init__(self, p: SdpProblem):
        p.validate()
        self.blocks = list(p.blocks)
        self.nf = p.n_free
        m = len(p.constraints)
        self.m = m
        rows: list[list[int]] = [[] for _ in self.blocks]
        mats: list[list] = [[] for _ in self.blocks]
        self.E = np.zeros((m, self.nf))
        self.b = np.zeros(m)
        for k, (bc, fc, rhs) in enumerate(p.constraints):
            for bi, mat in bc.items():
                rows[bi].append(k)
                mats[bi].append(mat)
            for j, v in fc.items():
                self.E[k, j] = v
            self.b[k] = rhs
        self.supp = [np.array(r, dtype=np.intp) for r in rows]
        self.A = []
        for d, ms in zip(self.blocks, mats):
            a = np.array(ms, dtype=float).reshape(len(ms), d, d)
            self.A.append(((a + a.transpose(0, 2, 1)) / 2).reshape(len(ms), d * d))
        sign = 1.0 if p.sense == "max" else -1.0
        self.sign = sign
        self.C = [np.zeros((d, d)) for d in self.blocks]
        self.c = np.zeros(self.nf)
        for bi, mat in p.objective[0].items():
            self.C[bi] = sign * np.asarray(mat, dtype=float)
        for j, v in p.objective[1].items():
            self.c[j] = sign * v

    def row_vectors(self) -> np.ndarray:
        """Constraints flattened to dense rows [vec(A_k1)|...|E_k] for presolve."""
        out = np.zeros((self.m, sum(d * d for d in self.blocks) + self.nf))
        off = 0
        for d, sp, a in zip(self.blocks, self.supp, self.A):
            out[sp, off : off + d * d] = a
            off += d * d
        out[:, off:] = self.E
        return out

    def restrict(self, kept) -> None:
        """Keep only the rows ``kept`` (ascending), renumbered 0..len-1."""
        pos = np.full(self.m, -1, dtype=np.intp)
        pos[kept] = np.arange(len(kept))
        for bi, sp in enumerate(self.supp):
            new = pos[sp]
            mask = new >= 0
            self.supp[bi] = new[mask]
            self.A[bi] = self.A[bi][mask]
        self.E = self.E[kept]
        self.b = self.b[kept]
        self.m = len(kept)

    def apply(self, X: list[np.ndarray]) -> np.ndarray:
        """Block part of the row values, sum_b <A_kb, X_b>."""
        out = np.zeros(self.m)
        for sp, a, x in zip(self.supp, self.A, X):
            out[sp] += a @ x.ravel()
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Blocks sum_k y_k A_kb."""
        return [(y[sp] @ a).reshape(d, d) for d, sp, a in zip(self.blocks, self.supp, self.A)]

    def schur(self, X: list[np.ndarray], Zi: list[np.ndarray]) -> np.ndarray:
        """B[k,l] = sum_b tr(A_kb X_b A_lb Zi_b), block by block over supp[b].

        Each A_kb is symmetric, so tr(A_kb X A_lb Zi) = <A_kb, X A_lb Zi>:
        one batched product per block and one GEMM over its rows."""
        B = np.zeros((self.m, self.m))
        for d, sp, a, xb, zib in zip(self.blocks, self.supp, self.A, X, Zi):
            t = (xb @ a.reshape(-1, d, d) @ zib).reshape(len(sp), d * d)
            B[np.ix_(sp, sp)] += a @ t.T
        return B


def _presolve(c: _Compiled, feas_tol: float):
    """Gram-Schmidt row reduction with rhs companion.

    Rows are scanned in order; row k is kept when its residual against the
    rows kept so far exceeds 1e-10*max(1, |row k|).  Each residual is taken
    by two classical Gram-Schmidt passes (CGS2) against the stacked kept
    directions.  Returns (kept_row_indices, None) or (None, message) when
    the affine system is inconsistent (a vanishing row combination with
    nonzero rhs).
    """
    rows = c.row_vectors()
    m, ncols = rows.shape
    scale = 1.0 + np.abs(c.b).max(initial=0.0)
    Q = np.empty((min(m, ncols), ncols))
    betas = np.empty(len(Q))
    n = 0
    kept: list[int] = []
    for k in range(m):
        r = rows[k]
        beta = c.b[k]
        nrm0 = np.linalg.norm(r)
        if nrm0 == 0.0:
            if abs(beta) > feas_tol * scale:
                return None, f"row {k} is 0 = {beta:g}"
            continue
        for _ in range(2):
            coef = Q[:n] @ r
            r -= coef @ Q[:n]
            beta -= coef @ betas[:n]
        nrm = np.linalg.norm(r)
        if nrm > 1e-10 * max(1.0, nrm0):
            Q[n] = r / nrm
            betas[n] = beta / nrm
            n += 1
            kept.append(k)
        elif abs(beta) > feas_tol * scale * 10:
            return None, f"inconsistent affine constraints (row {k}, residual {beta:g})"
    return kept, None


def _size_groups(dims) -> list[list[int]]:
    """Block indices grouped by block dimension, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for b, d in enumerate(dims):
        groups.setdefault(d, []).append(b)
    return list(groups.values())


def _step_length(M: list[np.ndarray], D: list[np.ndarray], groups) -> float:
    """Largest alpha with M_b + alpha*D_b >= 0 for every block, given every
    M_b symmetric positive definite (inf when no block limits the step).

    One batched Cholesky / triangular solve / eigvalsh per block size; the
    1x1 blocks take the ratio x/(-d) where d < 0.
    """
    best = np.inf
    for g in groups:
        x = np.stack([M[b] for b in g])
        d = np.stack([D[b] for b in g])
        if x.shape[1] == 1:
            xv, dv = x[:, 0, 0], d[:, 0, 0]
            neg = dv < 0
            if neg.any():
                best = min(best, (xv[neg] / -dv[neg]).min())
            continue
        l = np.linalg.cholesky(x)
        w = np.linalg.solve(l, d)
        w = np.linalg.solve(l, w.transpose(0, 2, 1)).transpose(0, 2, 1)
        lam = np.linalg.eigvalsh((w + w.transpose(0, 2, 1)) / 2).min(axis=1)
        lam = lam[~(lam >= -1e-14)]
        if lam.size:
            best = min(best, (-1.0 / lam).min())
    return best


def _lin_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a*x = rhs; fall back to least squares when the system turns
    singular near a degenerate optimum."""
    try:
        x = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(x)):
            return x
    except np.linalg.LinAlgError:
        pass
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x


def solve(p: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve an SdpProblem with the interior-point method described above."""
    opts = opts or SolveOptions()
    c = _Compiled(p)
    kept, bad = _presolve(c, opts.feas_tol)
    if bad is not None:
        return SdpSolution(
            status=STATUS_PRIMAL_INFEASIBLE,
            primal_blocks=[np.zeros((d, d)) for d in c.blocks],
            scalar_vars=np.zeros(c.nf),
            primal_value=np.nan,
            dual_value=np.nan,
            gap=np.nan,
            iterations=0,
            residual_primal=np.inf,
            residual_dual=np.inf,
            message=bad,
        )
    c.restrict(kept)
    m = c.m
    nf = c.nf
    dims = c.blocks
    groups = _size_groups(dims)
    nu = float(sum(dims))
    Ek = c.E
    bk = c.b

    # starting point: identity-scaled interior iterates
    bscale = 1.0 + np.abs(bk).max(initial=0.0)
    cscale = 1.0 + max(
        [np.abs(cb).max(initial=0.0) for cb in c.C] + [np.abs(c.c).max(initial=0.0)]
    )
    X = [max(10.0, bscale) * np.eye(d) for d in dims]
    Z = [max(10.0, cscale) * np.eye(d) for d in dims]
    y = np.zeros(m)
    s = np.zeros(nf)

    def pval():
        v = sum(np.einsum("ij,ij->", cb, xb) for cb, xb in zip(c.C, X))
        return v + c.c @ s

    def residuals():
        r_p = bk - (c.apply(X) + Ek @ s)
        ay = c.adjoint(y)
        r_d = [cb + zb - ab for cb, zb, ab in zip(c.C, Z, ay)]
        r_f = c.c - Ek.T @ y if nf else np.zeros(0)
        return r_p, r_d, r_f

    best = None
    best_err = np.inf
    status = STATUS_NUMERICAL_FAILURE
    message = "iteration cap exceeded"
    it = 0
    for it in range(1, opts.max_iters + 1):
        r_p, r_d, r_f = residuals()
        mu = sum(np.einsum("ij,ij->", xb, zb) for xb, zb in zip(X, Z)) / nu
        pv = pval()
        dv = bk @ y
        gap = abs(pv - dv)
        rp_inf = np.abs(r_p).max(initial=0.0)
        rd_inf = max(np.abs(rd).max(initial=0.0) for rd in r_d)
        rf_inf = np.abs(r_f).max(initial=0.0)
        err = max(rp_inf, rd_inf, rf_inf, gap / (1.0 + abs(pv)))
        if err < best_err:
            best_err = err
            best = ([xb.copy() for xb in X], s.copy(), pv, dv, gap, rp_inf, rd_inf)
        if (
            rp_inf <= opts.feas_tol
            and rd_inf <= opts.feas_tol
            and rf_inf <= opts.feas_tol
            and gap <= opts.gap_tol * (1.0 + abs(pv))
        ):
            status = STATUS_OPTIMAL
            message = ""
            break
        if pv > opts.unbounded_cutoff and rp_inf <= 1e-6:
            status = STATUS_DUAL_INFEASIBLE
            message = "primal objective diverging: dual infeasible"
            break
        if dv < -opts.unbounded_cutoff and rd_inf <= 1e-6:
            status = STATUS_PRIMAL_INFEASIBLE
            message = "dual objective diverging: primal infeasible"
            break

        try:
            Zi = [np.linalg.inv(zb) for zb in Z]
            B = c.schur(X, Zi)
            if nf:
                aug = np.zeros((m + nf, m + nf))
                aug[:m, :m] = B
                aug[:m, m:] = -Ek
                aug[m:, :m] = Ek.T
            else:
                aug = B

            def hkm_rhs(R):
                sb = [
                    rb @ zib + xb @ rdb @ zib
                    for rb, xb, rdb, zib in zip(R, X, r_d, Zi)
                ]
                h = c.apply(sb) - r_p
                return np.concatenate([h, r_f]) if nf else h

            def hkm_dirs(sol_vec, R):
                dy = sol_vec[:m]
                ds = sol_vec[m:] if nf else np.zeros(0)
                ay = c.adjoint(dy)
                dZ = [a - rdb for a, rdb in zip(ay, r_d)]
                dX = []
                for rb, xb, dzb, zib in zip(R, X, dZ, Zi):
                    dxb = rb @ zib - xb @ dzb @ zib
                    dX.append((dxb + dxb.T) / 2)
                return dX, ds, dy, dZ

            # predictor (affine scaling)
            R_aff = [-(xb @ zb) for xb, zb in zip(X, Z)]
            sol_aff = _lin_solve(aug, hkm_rhs(R_aff))
            dX_a, ds_a, dy_a, dZ_a = hkm_dirs(sol_aff, R_aff)
            ap = min(1.0, _step_length(X, dX_a, groups))
            ad = min(1.0, _step_length(Z, dZ_a, groups))
            mu_aff = sum(
                np.einsum("ij,ij->", xb + ap * dxb, zb + ad * dzb)
                for xb, dxb, zb, dzb in zip(X, dX_a, Z, dZ_a)
            ) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # corrector
            R_cor = [
                sigma * mu * np.eye(d) - xb @ zb - dxb @ dzb
                for d, xb, zb, dxb, dzb in zip(dims, X, Z, dX_a, dZ_a)
            ]
            sol = _lin_solve(aug, hkm_rhs(R_cor))
            dX, ds, dy, dZ = hkm_dirs(sol, R_cor)
            if not all(np.all(np.isfinite(dxb)) for dxb in dX + dZ):
                message = "non-finite search direction"
                break
        except np.linalg.LinAlgError as exc:
            message = f"linear algebra failure: {exc}"
            break

        tau = opts.step_frac
        ap = min(1.0, tau * _step_length(X, dX, groups))
        ad = min(1.0, tau * _step_length(Z, dZ, groups))
        if ap < 1e-12 and ad < 1e-12:
            message = "step sizes collapsed"
            break
        X = [xb + ap * dxb for xb, dxb in zip(X, dX)]
        s = s + ap * ds
        y = y + ad * dy
        Z = [zb + ad * dzb for zb, dzb in zip(Z, dZ)]

    if status == STATUS_OPTIMAL:
        xs, sv, pv, dv, gap, rp_inf, rd_inf = (
            X,
            s,
            pval(),
            bk @ y,
            abs(pval() - bk @ y),
            np.abs(residuals()[0]).max(initial=0.0),
            max(np.abs(rd).max(initial=0.0) for rd in residuals()[1]),
        )
    elif best is not None:
        xs, sv, pv, dv, gap, rp_inf, rd_inf = best
    else:  # pragma: no cover - loop always records one iterate
        xs, sv, pv, dv, gap, rp_inf, rd_inf = X, s, np.nan, np.nan, np.nan, np.inf, np.inf
    sgn = c.sign
    return SdpSolution(
        status=status,
        primal_blocks=xs,
        scalar_vars=sv,
        primal_value=sgn * pv,
        dual_value=sgn * dv,
        gap=gap,
        iterations=it,
        residual_primal=rp_inf,
        residual_dual=rd_inf,
        message=message,
    )


def feasibility(p: SdpProblem, opts: SolveOptions | None = None):
    """Maximise a uniform slack t with every block shifted: X - t*I >= 0.

    Returns (feasible, slack, certificate_blocks).  The problem's objective is
    ignored.  feasible <=> optimal slack >= -1e-7; the certificate blocks are
    the unshifted variables X = X~ + t*I, which satisfy the affine rows
    exactly and are PSD up to the reported slack.
    """
    q = SdpProblem(
        blocks=list(p.blocks),
        n_free=p.n_free + 1,
        objective=({}, {p.n_free: 1.0}),
        constraints=[],
        sense="max",
    )
    for bc, fc, rhs in p.constraints:
        fc2 = dict(fc)
        tr = sum(np.trace(np.asarray(mat, dtype=float)) for mat in bc.values())
        if tr != 0.0:
            fc2[p.n_free] = fc2.get(p.n_free, 0.0) + tr
        q.constraints.append((bc, fc2, rhs))
    sol = solve(q, opts)
    if sol.status == STATUS_PRIMAL_INFEASIBLE:
        return False, -np.inf, None
    t = float(sol.scalar_vars[p.n_free])
    if sol.status not in (STATUS_OPTIMAL, STATUS_DUAL_INFEASIBLE):
        # Degenerate optima can stall the iteration; the best iterate may
        # still decide the question.  A near-feasible primal point with
        # t clear of the threshold certifies feasibility; a near-feasible
        # dual point bounds t* from above (weak duality) and certifies
        # infeasibility.  Anything murkier is an error.
        if sol.residual_primal <= 1e-7 and t >= -FEAS_SLACK_TOL / 2:
            cert = [xb + t * np.eye(xb.shape[0]) for xb in sol.primal_blocks]
            return True, t, cert
        if sol.residual_dual <= 1e-7 and sol.dual_value <= -10 * FEAS_SLACK_TOL:
            return False, float(sol.dual_value), None
        raise SolverError(f"feasibility solve failed: {sol.status} {sol.message}")
    cert = [xb + t * np.eye(xb.shape[0]) for xb in sol.primal_blocks]
    return t >= -FEAS_SLACK_TOL, t, cert


class SolverError(RuntimeError):
    """Raised when the interior-point method cannot certify a result."""


# ---------------------------------------------------------------------------
# complex Hermitian front end


def _hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of d x d Hermitian matrices (trace inner product)."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return basis


_EMB_BASIS_CACHE: dict[int, list[np.ndarray]] = {}


def _embedded_basis(d: int) -> list[np.ndarray]:
    if d not in _EMB_BASIS_CACHE:
        _EMB_BASIS_CACHE[d] = [linalg.real_embedding(h) for h in _hermitian_basis(d)]
    return _EMB_BASIS_CACHE[d]


class Builder:
    """Assemble SDPs over complex Hermitian blocks and real scalars.

    Hermitian variables are embedded as real symmetric blocks of doubled
    dimension; matrix equalities are expanded against an orthonormal
    Hermitian basis, so each d x d constraint contributes d^2 real rows.
    The embedded problem has the same optimal value, and solutions project
    back to complex matrices via linalg.unembed.
    """

    def __init__(self):
        self.prob = SdpProblem(blocks=[], n_free=0)
        self._cdim: dict[int, int] = {}  # block index -> complex dim (embedded)

    def cblock(self, d: int) -> int:
        """New complex Hermitian PSD variable of dimension d."""
        idx = len(self.prob.blocks)
        self.prob.blocks.append(2 * d)
        self._cdim[idx] = d
        return idx

    def rblock(self) -> int:
        """New scalar variable constrained nonnegative (1x1 block)."""
        idx = len(self.prob.blocks)
        self.prob.blocks.append(1)
        return idx

    def free(self) -> int:
        """New free scalar variable."""
        idx = self.prob.n_free
        self.prob.n_free += 1
        return idx

    def _expand(self, terms, free_terms, rhs_mat, d):
        rows = []
        for h, he in zip(_hermitian_basis(d), _embedded_basis(d)):
            bc = {}
            for blk, coef in terms:
                if blk in self._cdim:
                    if self._cdim[blk] != d:
                        raise ValueError("block dimension mismatch in matrix equality")
                    mat = (coef / 2.0) * he
                else:
                    raise ValueError("matrix equality over a scalar block")
                if blk in bc:
                    bc[blk] = bc[blk] + mat
                else:
                    bc[blk] = mat
            fc = {}
            for j, fmat in free_terms:
                v = float(np.real(np.trace(h @ fmat)))
                if v != 0.0:
                    fc[j] = fc.get(j, 0.0) + v
            rhs = float(np.real(np.trace(h @ rhs_mat)))
            rows.append((bc, fc, rhs))
        return rows

    def eq_matrix(self, terms, rhs_mat, free_terms=()):
        """Add sum_v coef_v * X_v + sum_j s_j * F_j = T (Hermitian d x d).

        terms: [(cblock, real coef)]; free_terms: [(free idx, Hermitian F)];
        rhs_mat: Hermitian T.
        """
        t = linalg.check_hermitian(rhs_mat, tol=1e-9)
        d = t.shape[0]
        fts = [(j, linalg.check_hermitian(f, tol=1e-9)) for j, f in free_terms]
        self.prob.constraints.extend(self._expand(terms, fts, t, d))

    def eq_scalar(self, block_terms=(), free_terms=(), rhs=0.0):
        """Add sum_v <K_v, X_v> + sum_j c_j s_j = rhs (one real row).

        block_terms: [(block, K)] with K Hermitian for cblocks, a float for
        scalar blocks.
        """
        bc = {}
        for blk, k in block_terms:
            if blk in self._cdim:
                mat = linalg.real_embedding(linalg.check_hermitian(k, tol=1e-9)) / 2.0
            else:
                mat = np.array([[float(k)]])
            if blk in bc:
                bc[blk] = bc[blk] + mat
            else:
                bc[blk] = mat
        fc = {}
        for j, v in free_terms:
            fc[j] = fc.get(j, 0.0) + float(v)
        self.prob.constraints.append((bc, fc, float(rhs)))

    def objective(self, block_terms=(), free_terms=(), sense="max"):
        """Set objective sum_v <O_v, X_v> + sum_j c_j s_j."""
        bo = {}
        for blk, o in block_terms:
            if blk in self._cdim:
                bo[blk] = linalg.real_embedding(linalg.check_hermitian(o, tol=1e-9)) / 2.0
            else:
                bo[blk] = np.array([[float(o)]])
        fo = {j: float(v) for j, v in free_terms}
        self.prob.objective = (bo, fo)
        self.prob.sense = sense

    def extract(self, blocks: list[np.ndarray], blk: int) -> np.ndarray:
        """Complex Hermitian matrix (or scalar) from solver blocks."""
        w = blocks[blk]
        if blk in self._cdim:
            return linalg.hermitianize(linalg.unembed(w))
        return float(w[0, 0])

    def solve(self, opts: SolveOptions | None = None) -> SdpSolution:
        return solve(self.prob, opts)

    def feasibility(self, opts: SolveOptions | None = None):
        return feasibility(self.prob, opts)
