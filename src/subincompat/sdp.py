"""Block-diagonal semidefinite programming: primal-dual interior point solver.

Standard form (maximisation), with <A, X> = Re tr(AX):

    max  sum_b <C_b, X_b> + c's
    s.t. sum_b <A_kb, X_b> + (E s)_k = b_k     k = 1..m
         X_b >= 0  (complex Hermitian blocks; real symmetric data too),  s free.

The solver uses the HKM search direction with a Mehrotra predictor-corrector
and an augmented system for the free scalar variables.  Each block keeps
only the rows that mention it, as the coordinates hvec(A_kb) of their
coefficients in an orthonormal Hermitian basis (d^2 reals for a d x d
block); blocks of equal dimension and row count are stacked into one group,
so every per-iteration kernel runs once per group.  The Schur complement
B[k,l] = sum_b Re tr(A_kb X_b A_lb Z_b^-1) is assembled over those rows
only (the row-sparse formula of Fujisawa, Kojima & Nakata).  Step lengths
run one batched Cholesky/eigvalsh per block size.  A presolve scans the
rows in order, removes those linearly dependent on earlier ones by two
classical Gram-Schmidt passes (CGS2), and detects inconsistent affine
systems.  Everything is plain numpy and fully deterministic: identical
inputs produce identical iterate sequences.

``Builder`` declares Hermitian variables and expands each d x d matrix
equality in the Hermitian basis into d^2 real rows.  Feasibility questions
are answered by ``feasibility``, which maximises a uniform slack t with
every block shifted to X - t*I >= 0.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg

STATUS_OPTIMAL = "Optimal"
STATUS_PRIMAL_INFEASIBLE = "PrimalInfeasible"
STATUS_DUAL_INFEASIBLE = "DualInfeasible"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

FEAS_SLACK_TOL = 1e-7  # feasibility margin: feasible <=> slack >= -1e-7

_log = logging.getLogger(__name__)


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
    dict {block index -> Hermitian coefficient matrix} and free_coeffs a dict
    {free var index -> float}.  objective likewise: (block dict, free dict).
    """

    blocks: list[int]
    n_free: int = 0
    objective: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))
    constraints: list[tuple[dict, dict, float]] = field(default_factory=list)
    sense: str = "max"

    def validate(self) -> dict:
        """Check the data.  Returns the block coefficients by dimension d:
        {d: (rows, blocks, (n, d, d) complex stack)}, row -1 the objective."""
        if self.sense not in ("max", "min"):
            raise ValueError(f"bad sense {self.sense!r}")
        for b, dim in enumerate(self.blocks):
            if dim < 1:
                raise ValueError(f"block {b} has dimension {dim}")

        def where(k):
            return "objective" if k < 0 else f"constraint {k}"

        entries: dict[int, list] = {}
        for k, (bc, fc, *_) in enumerate([self.objective] + self.constraints, -1):
            for b, mat in bc.items():
                d = self.blocks[b]
                if np.shape(mat) != (d, d):
                    raise ValueError(f"{where(k)}: block {b} coefficient shape {np.shape(mat)}")
                entries.setdefault(d, []).append((k, b, mat))
            for j in fc:
                if not 0 <= j < self.n_free:
                    raise ValueError(f"{where(k)}: free index {j} out of range")
        out = {}
        for d, items in entries.items():
            ks, bs, mats = zip(*items)
            a = np.array(mats, dtype=complex).reshape(len(mats), d, d)
            bad = np.flatnonzero(np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10)
            if bad.size:
                k, b = ks[bad[0]], bs[bad[0]]
                raise ValueError(f"{where(k)}: block {b} coefficient not Hermitian")
            out[d] = (np.array(ks, dtype=np.intp), np.array(bs, dtype=np.intp), a)
        for k, (_, _, rhs) in enumerate(self.constraints):
            if not np.isfinite(rhs):
                raise ValueError(f"constraint {k}: non-finite rhs")
        return out


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
    lstsq_fallbacks: int = 0  # Newton systems solved by least squares


@lru_cache(maxsize=64)
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices (trace inner product):
    the diagonal units, then per pair i < j the symmetric and antisymmetric
    elements.  A read-only (d^2, d, d) stack, cached per d."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[range(d), range(d), range(d)] = 1.0
    iu, ju = np.triu_indices(d, 1)
    k = d + 2 * np.arange(len(iu))
    basis[k, iu, ju] = basis[k, ju, iu] = 1 / np.sqrt(2)
    basis[k + 1, iu, ju] = -1j / np.sqrt(2)
    basis[k + 1, ju, iu] = 1j / np.sqrt(2)
    basis.setflags(write=False)
    return basis


def _hvec_rows(d: int) -> np.ndarray:
    """The basis as (d^2, 2d^2) rows of (re, im) floats.  For Hermitian h,
    Re tr(hT) is the dot product of h's row with the floats of T, so hvec is
    one matrix product with these rows and the transposed product inverts it."""
    return _hermitian_basis(d).view(float).reshape(d * d, 2 * d * d)


def hvec(t) -> np.ndarray:
    """Coordinates hvec(T)[k] = Re tr(h_k T), h_k = _hermitian_basis(d)[k],
    over the last two axes of T: d^2 reals per d x d matrix, those of the
    Hermitian part of T.  For Hermitian A, B: Re tr(AB) = hvec(A) @ hvec(B)."""
    t = np.ascontiguousarray(t, dtype=complex)
    d = t.shape[-1]
    out = t.view(float).reshape(-1, 2 * d * d) @ _hvec_rows(d).T
    return out.reshape(t.shape[:-2] + (d * d,))


def hvec_inv(v) -> np.ndarray:
    """Inverse of hvec: the Hermitian matrices sum_k v[k] h_k, over the last
    axis of v."""
    v = np.asarray(v, dtype=float)
    d = math.isqrt(v.shape[-1])
    out = v.reshape(-1, d * d) @ _hvec_rows(d)
    return out.view(complex).reshape(v.shape[:-1] + (d, d))


def _herm(w: np.ndarray) -> np.ndarray:
    return (w + w.conj().transpose(0, 2, 1)) / 2


# Blocks of dimension d that share their row count r after presolve:
# ``blocks`` (nb,) their indices, ``idx`` (nb, r) their rows (ascending) and
# ``A`` (nb, r, d^2) the hvec coordinates of their coefficients.
_Group = namedtuple("_Group", "d blocks idx A")


class _Compiled:
    """Compact problem data: one dense row of hvec coordinates per
    constraint (block b in columns off[b]:off[b+1]) and, after ``restrict``,
    the blocks stacked into ``_Group``s.  Iterates are per-group stacks;
    rows that never mention a block cost nothing in any product over it.
    """

    def __init__(self, p: SdpProblem):
        coeffs = p.validate()
        self.blocks = list(p.blocks)
        self.nf = p.n_free
        m = len(p.constraints)
        self.m = m
        self.sign = sign = 1.0 if p.sense == "max" else -1.0
        dims = np.array(self.blocks, dtype=np.intp)
        self.off = np.concatenate([[0], np.cumsum(dims * dims)])
        self.H = np.zeros((m, self.off[-1]))
        self.mentions = np.zeros((m, len(dims)), dtype=bool)
        self.C = [np.zeros((d, d), dtype=complex) for d in self.blocks]
        for d, (ks, bs, mats) in coeffs.items():
            for b, mat in zip(bs[ks < 0], mats[ks < 0]):
                self.C[b] = sign * mat
            ks, bs, mats = ks[ks >= 0], bs[ks >= 0], mats[ks >= 0]
            self.H[ks[:, None], self.off[bs][:, None] + np.arange(d * d)] = hvec(mats)
            self.mentions[ks, bs] = True
        self.E = np.zeros((m, self.nf))
        self.b = np.zeros(m)
        for k, (_, fc, rhs) in enumerate(p.constraints):
            for j, v in fc.items():
                self.E[k, j] = v
            self.b[k] = rhs
        self.c = np.zeros(self.nf)
        for j, v in p.objective[1].items():
            self.c[j] = sign * v

    def row_vectors(self) -> np.ndarray:
        """Constraints as fresh dense rows [hvec(A_k1)|...|E_k] for presolve."""
        return np.hstack([self.H, self.E])

    def restrict(self, kept) -> None:
        """Keep only the rows ``kept`` (ascending), renumbered 0..len-1, and
        group the blocks by (dimension, row count), in order of first block."""
        kept = np.asarray(kept, dtype=np.intp)
        H, men = self.H[kept], self.mentions[kept]
        self.E, self.b, self.m = self.E[kept], self.b[kept], len(kept)
        keys: dict[tuple[int, int], list[int]] = {}
        for b, key in enumerate(zip(self.blocks, men.sum(axis=0).tolist())):
            keys.setdefault(key, []).append(b)
        self.groups = []
        for (d, r), bs in keys.items():
            bs = np.array(bs, dtype=np.intp)
            idx = np.nonzero(men[:, bs].T)[1].reshape(len(bs), r)
            a = H[idx[:, :, None], (self.off[bs][:, None] + np.arange(d * d))[:, None, :]]
            self.groups.append(_Group(d, bs, idx, a))
        m = self.m
        self.apply_at = np.concatenate([g.idx.ravel() for g in self.groups])
        self.schur_at = np.concatenate(
            [(g.idx[:, :, None] * m + g.idx[:, None, :]).ravel() for g in self.groups]
        )

    def stack(self, mats) -> list[np.ndarray]:
        """Per-block d x d matrices -> per-group (nb, d, d) complex stacks."""
        return [np.array([mats[b] for b in g.blocks], dtype=complex) for g in self.groups]

    def unstack(self, stacks) -> list[np.ndarray]:
        """Per-group stacks -> per-block matrices, in block order."""
        out = [None] * len(self.blocks)
        for g, s in zip(self.groups, stacks):
            for b, x in zip(g.blocks.tolist(), s):
                out[b] = x
        return out

    def apply(self, X: list[np.ndarray]) -> np.ndarray:
        """Block part of the row values, sum_b <A_kb, X_b>."""
        vals = [(g.A @ hvec(x)[:, :, None]).ravel() for g, x in zip(self.groups, X)]
        return np.bincount(self.apply_at, np.concatenate(vals), minlength=self.m)

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Per-group stacks of sum_k y_k A_kb."""
        return [hvec_inv((y[g.idx][:, None, :] @ g.A)[:, 0]) for g in self.groups]

    def schur(self, X: list[np.ndarray], Zi: list[np.ndarray]) -> np.ndarray:
        """B[k,l] = sum_b Re tr(A_kb X_b A_lb Zi_b) = hvec(A_kb) . T_lb with the
        Schur term T_lb = hvec(X_b A_lb Zi_b).

        T is linear in A_lb: T_b = A_b N_b with N_b[q] = hvec(X_b h_q Zi_b),
        the basis images (HKM's symmetrised Kronecker product X (*) Zi),
        combined from the outer products X E_ij Zi = X[:, i] Zi[j, :].  Per
        group: one broadcast product, three GEMMs; the groups share one
        scatter-add into B."""
        parts = []
        for g, x, zi in zip(self.groups, X, Zi):
            nb, d = x.shape[:2]
            e = x.transpose(0, 2, 1)[:, :, None, :, None] * zi[:, None, :, None, :]
            images = _hermitian_basis(d).reshape(d * d, d * d) @ e.reshape(nb, d * d, d * d)
            t = g.A @ hvec(images.reshape(nb, d * d, d, d))
            parts.append((g.A @ t.transpose(0, 2, 1)).ravel())
        m = self.m
        return np.bincount(self.schur_at, np.concatenate(parts), minlength=m * m).reshape(m, m)


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


def _factor(M: list[np.ndarray]) -> list[np.ndarray]:
    """Per positive definite stack: its 1x1 values or its Cholesky factors."""
    return [x[:, 0, 0].real if x.shape[1] == 1 else np.linalg.cholesky(x) for x in M]


def _step_length(F: list[np.ndarray], D: list[np.ndarray]) -> float:
    """Largest alpha with M_b + alpha*D_b >= 0 for every block, given the
    factors F = _factor(M) of the stacks M (inf when no block limits the
    step).

    Per stack two batched triangular solves and one eigvalsh; the 1x1
    blocks take the ratio x/(-d) where d < 0.
    """
    best = np.inf
    for f, d in zip(F, D):
        if f.ndim == 1:
            dv = d[:, 0, 0].real
            neg = dv < 0
            if neg.any():
                best = min(best, (f[neg] / -dv[neg]).min())
            continue
        w = np.linalg.solve(f, d)
        w = np.linalg.solve(f, w.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(_herm(w)).min(axis=1)
        lam = lam[~(lam >= -1e-14)]
        if lam.size:
            best = min(best, (-1.0 / lam).min())
    return best


def _lin_solve(a: np.ndarray, rhs: np.ndarray):
    """Solve a*x = rhs.  Returns (x, fell_back): when the system turns
    singular near a degenerate optimum, x comes from least squares, the
    event is logged at DEBUG and fell_back is True."""
    try:
        x = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(x)):
            return x, False
    except np.linalg.LinAlgError:
        pass
    _log.debug("singular %d x %d Newton system: least-squares fallback", *a.shape)
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x, True


def solve(p: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve an SdpProblem with the interior-point method described above."""
    opts = opts or SolveOptions()
    c = _Compiled(p)
    kept, bad = _presolve(c, opts.feas_tol)
    if bad is not None:
        return SdpSolution(
            status=STATUS_PRIMAL_INFEASIBLE,
            primal_blocks=[np.zeros((d, d), dtype=complex) for d in c.blocks],
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
    nu = float(sum(c.blocks))
    Ek = c.E
    bk = c.b
    Cg = c.stack(c.C)
    eyes = [np.tile(np.eye(g.d, dtype=complex), (len(g.blocks), 1, 1)) for g in c.groups]
    sizes: dict[int, list[int]] = {}
    for i, g in enumerate(c.groups):
        sizes.setdefault(g.d, []).append(i)

    def by_size(S):  # step lengths stack the groups of one block size
        return [np.concatenate([S[i] for i in ix]) for ix in sizes.values()]

    def inner(P, Q):  # sum_b Re tr(P_b Q_b) over Hermitian per-group stacks
        return sum(np.vdot(pg, qg).real for pg, qg in zip(P, Q))

    # starting point: identity-scaled interior iterates
    bscale = 1.0 + np.abs(bk).max(initial=0.0)
    cscale = 1.0 + max([np.abs(cg).max(initial=0.0) for cg in Cg] + [np.abs(c.c).max(initial=0.0)])
    X = [max(10.0, bscale) * e for e in eyes]
    Z = [max(10.0, cscale) * e for e in eyes]
    y = np.zeros(m)
    s = np.zeros(nf)
    fallbacks = 0

    best = None
    best_err = np.inf
    status = STATUS_NUMERICAL_FAILURE
    message = "iteration cap exceeded"
    it = 0
    for it in range(1, opts.max_iters + 1):
        r_p = bk - (c.apply(X) + Ek @ s)
        r_d = [cg + zg - ag for cg, zg, ag in zip(Cg, Z, c.adjoint(y))]
        r_f = c.c - Ek.T @ y
        mu = inner(X, Z) / nu
        pv = inner(Cg, X) + c.c @ s
        dv = bk @ y
        gap = abs(pv - dv)
        rp_inf = np.abs(r_p).max(initial=0.0)
        rd_inf = max((np.abs(rd).max(initial=0.0) for rd in r_d), default=0.0)
        rf_inf = np.abs(r_f).max(initial=0.0)
        err = max(rp_inf, rd_inf, rf_inf, gap / (1.0 + abs(pv)))
        if err < best_err:
            best_err = err
            best = (X, s, pv, dv, gap, rp_inf, rd_inf)
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
            Zi = [np.linalg.inv(zg) for zg in Z]
            LX, LZ = _factor(by_size(X)), _factor(by_size(Z))
            aug = c.schur(X, Zi)
            if nf:
                aug = np.block([[aug, -Ek], [Ek.T, np.zeros((nf, nf))]])
            Xrd = [xg @ rd for xg, rd in zip(X, r_d)]

            def hkm_direction(R):
                nonlocal fallbacks
                h = c.apply([(rg + xr) @ zi for rg, xr, zi in zip(R, Xrd, Zi)]) - r_p
                sol, fell_back = _lin_solve(aug, np.concatenate([h, r_f]))
                fallbacks += fell_back
                dy, ds = sol[:m], sol[m:]
                dZ = [a - rd for a, rd in zip(c.adjoint(dy), r_d)]
                dX = [_herm((rg - xg @ dz) @ zi) for rg, xg, dz, zi in zip(R, X, dZ, Zi)]
                return dX, ds, dy, dZ

            # predictor (affine scaling)
            R_aff = [-(xg @ zg) for xg, zg in zip(X, Z)]
            dX_a, ds_a, dy_a, dZ_a = hkm_direction(R_aff)
            ap = min(1.0, _step_length(LX, by_size(dX_a)))
            ad = min(1.0, _step_length(LZ, by_size(dZ_a)))
            mu_aff = inner(
                [xg + ap * dx for xg, dx in zip(X, dX_a)],
                [zg + ad * dz for zg, dz in zip(Z, dZ_a)],
            ) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # corrector
            R_cor = [ra + sigma * mu * e - dx @ dz
                     for ra, e, dx, dz in zip(R_aff, eyes, dX_a, dZ_a)]
            dX, ds, dy, dZ = hkm_direction(R_cor)
            if not all(np.all(np.isfinite(v)) for v in dX + dZ):
                message = "non-finite search direction"
                break
        except np.linalg.LinAlgError as exc:
            message = f"linear algebra failure: {exc}"
            break

        tau = opts.step_frac
        ap = min(1.0, tau * _step_length(LX, by_size(dX)))
        ad = min(1.0, tau * _step_length(LZ, by_size(dZ)))
        if ap < 1e-12 and ad < 1e-12:
            message = "step sizes collapsed"
            break
        X = [xg + ap * dx for xg, dx in zip(X, dX)]
        s = s + ap * ds
        y = y + ad * dy
        Z = [zg + ad * dz for zg, dz in zip(Z, dZ)]

    if status == STATUS_OPTIMAL:  # the exit test just measured this iterate
        best = (X, s, pv, dv, gap, rp_inf, rd_inf)
    elif best is None:  # no iterate measured: max_iters < 1 or non-finite data
        best = (X, s, np.nan, np.nan, np.nan, np.inf, np.inf)
    xs, sv, pv, dv, gap, rp_inf, rd_inf = best
    sgn = c.sign
    return SdpSolution(
        status=status,
        primal_blocks=c.unstack(xs),
        scalar_vars=sv,
        primal_value=sgn * pv,
        dual_value=sgn * dv,
        gap=gap,
        iterations=it,
        residual_primal=rp_inf,
        residual_dual=rd_inf,
        message=message,
        lstsq_fallbacks=fallbacks,
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
        tr = sum(np.trace(np.asarray(mat)).real for mat in bc.values())
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


class Builder:
    """Assemble SDPs over complex Hermitian blocks and real scalars.

    A Hermitian variable of dimension d is a d x d solver block, and its
    coefficients are the Hermitian matrices themselves.  Matrix equalities
    are expanded against the orthonormal basis ``_hermitian_basis(d)``, so
    each d x d constraint contributes d^2 real rows, row k taking the
    coordinates hvec(T)[k] of the right-hand side.
    """

    def __init__(self):
        self.prob = SdpProblem(blocks=[], n_free=0)
        self._cdim: dict[int, int] = {}  # block index -> dimension of a Hermitian block

    def cblock(self, d: int) -> int:
        """New complex Hermitian PSD variable of dimension d."""
        idx = len(self.prob.blocks)
        self.prob.blocks.append(d)
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
        for blk, _ in terms:
            if blk not in self._cdim:
                raise ValueError("matrix equality over a scalar block")
            if self._cdim[blk] != d:
                raise ValueError("block dimension mismatch in matrix equality")
        rhs = hvec(rhs_mat).tolist()
        fvecs = [(j, hvec(f).tolist()) for j, f in free_terms]
        rows = []
        for k, h in enumerate(_hermitian_basis(d)):
            bc = {}
            for blk, coef in terms:
                mat = coef * h
                bc[blk] = bc[blk] + mat if blk in bc else mat
            fc = {}
            for j, fv in fvecs:
                if fv[k] != 0.0:
                    fc[j] = fc.get(j, 0.0) + fv[k]
            rows.append((bc, fc, rhs[k]))
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

    def _coef(self, blk, k) -> np.ndarray:
        if blk in self._cdim:
            return linalg.check_hermitian(k, tol=1e-9)
        return np.array([[float(k)]])

    def eq_scalar(self, block_terms=(), free_terms=(), rhs=0.0):
        """Add sum_v <K_v, X_v> + sum_j c_j s_j = rhs (one real row).

        block_terms: [(block, K)] with K Hermitian for cblocks, a float for
        scalar blocks.
        """
        bc = {}
        for blk, k in block_terms:
            mat = self._coef(blk, k)
            bc[blk] = bc[blk] + mat if blk in bc else mat
        fc = {}
        for j, v in free_terms:
            fc[j] = fc.get(j, 0.0) + float(v)
        self.prob.constraints.append((bc, fc, float(rhs)))

    def objective(self, block_terms=(), free_terms=(), sense="max"):
        """Set objective sum_v <O_v, X_v> + sum_j c_j s_j."""
        bo = {blk: self._coef(blk, o) for blk, o in block_terms}
        fo = {j: float(v) for j, v in free_terms}
        self.prob.objective = (bo, fo)
        self.prob.sense = sense

    def extract(self, blocks: list[np.ndarray], blk: int) -> np.ndarray:
        """Complex Hermitian matrix (or scalar) from solver blocks."""
        w = blocks[blk]
        if blk in self._cdim:
            return linalg.hermitianize(w)
        return float(w[0, 0].real)

    def solve(self, opts: SolveOptions | None = None) -> SdpSolution:
        return solve(self.prob, opts)

    def feasibility(self, opts: SolveOptions | None = None):
        return feasibility(self.prob, opts)
