"""Block-diagonal semidefinite programming: primal-dual interior point solver.

Standard form (maximisation), with <A, X> = Re tr(AX):

    max  sum_b <C_b, X_b> + c's
    s.t. sum_b <A_kb, X_b> + (E s)_k = b_k     k = 1..m
         X_b >= 0  (complex Hermitian blocks; real symmetric data too),  s free.

The solver uses the HKM search direction with a Mehrotra predictor-corrector
and an augmented system for the free scalar variables.  Each block keeps
only the rows that mention it, as the coordinates hvec(A_kb) of their
coefficients in an orthonormal Hermitian basis (d^2 reals for a d x d
block); blocks of equal dimension and row count form a group, iterates are
stacked per dimension, and each kernel runs once per group or dimension.
The Schur complement B[k,l] = sum_b Re tr(A_kb X_b A_lb Z_b^-1) is
assembled over those rows only (the row-sparse formula of Fujisawa, Kojima
& Nakata).  Per iteration and dimension one factor F = inv(cholesky([X; Z]))
gives Z^-1 = F_Z^H F_Z and all four step lengths (one eigvalsh of F D F^H
each).  A presolve finds a row basis: it keeps the rows independent of
earlier ones and gives the weights that build every other row from them,
by classical Gram-Schmidt with reorthogonalisation (CGS2), one row at a
time.  It looks at the rows only, never at their data.  Everything is
plain numpy and fully deterministic: identical inputs produce identical
iterate sequences.  The tolerances are the module constants below;
``SolveOptions`` holds only the iteration cap.

Compile and solve are separate steps.  ``compile_program`` turns a
problem's structure (block dimensions, the row basis and the block
coefficients of the kept rows) into a read-only ``_Compiled`` and binds
the problem's data to it as a ``Program``; ``Program.bind`` swaps in
another call's data (rhs, free columns, objective) without compiling
again, so a caller that caches a structure solves many programs of one
shape for the cost of their data.  Binding is the one place that checks
data: the rows the structure leaves out must still match the kept rows.
``solve`` accepts an ``SdpProblem``, compiled on the spot, or a Program.

``Builder`` declares Hermitian variables, one block kind (a nonnegative
scalar is a 1 x 1 block), and expands each d x d matrix equality in the
Hermitian basis into d^2 real rows.  Feasibility questions
are answered by ``feasibility``, which maximises a uniform slack t with
every block shifted to X - t*I >= 0 (the rewrite ``with_slack``).
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import linalg

STATUS_OPTIMAL = "Optimal"
STATUS_PRIMAL_INFEASIBLE = "PrimalInfeasible"
STATUS_DUAL_INFEASIBLE = "DualInfeasible"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

FEAS_SLACK_TOL = 1e-7  # feasibility margin: feasible <=> slack >= -1e-7
FEAS_TOL = 1e-8  # residual bound of an optimal iterate; tolerance of the data check
GAP_TOL = 1e-8  # relative duality gap of an optimal iterate
STEP_FRAC = 0.98  # share of the largest feasible step taken
UNBOUNDED_CUTOFF = 1e10  # |objective| beyond which a side is taken to diverge

# the data check's reports of a zero row with nonzero rhs, and of a row
# whose rhs contradicts the kept rows
ZERO_ROW = "row {} is 0 = {:g}"
INCONSISTENT = "inconsistent affine constraints (row {}, residual {:g})"

_log = logging.getLogger(__name__)


@dataclass
class SolveOptions:
    max_iters: int = 200


@dataclass
class SdpProblem:
    """Block-diagonal SDP data.

    constraints: list of (block_coeffs, free_coeffs, rhs) with block_coeffs a
    dict {block index -> Hermitian coefficient matrix} and free_coeffs a dict
    {free var index -> float}.  objective likewise, maximised: (block dict,
    free dict).
    """

    blocks: list[int]
    n_free: int = 0
    objective: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))
    constraints: list[tuple[dict, dict, float]] = field(default_factory=list)

    def validate(self) -> dict:
        """Check the data.  Returns the block coefficients by dimension d:
        {d: (rows, blocks, (n, d, d) complex stack)}, row -1 the objective."""
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


# nb blocks of dimension d that share their row count r after presolve:
# ``idx`` (nb, r) their rows (ascending), ``A`` (nb, r, d^2) the hvec
# coordinates of their coefficients and ``sl`` their slice of the iterate
# stack number ``size``.
_Group = namedtuple("_Group", "idx A size sl")

# A problem's rows as dense data: ``H`` one row of hvec coordinates per
# constraint (block b in columns off[b]:off[b+1]), ``mentions`` which blocks
# each row mentions, free coefficients ``E``, rhs ``b``, per-block objective
# matrices ``C`` and free objective ``c``.
_Dense = namedtuple("_Dense", "H mentions E b C c off")


def _dense(p: SdpProblem) -> _Dense:
    coeffs = p.validate()
    m, nf = len(p.constraints), p.n_free
    dims = np.array(p.blocks, dtype=np.intp)
    off = np.concatenate([[0], np.cumsum(dims * dims)])
    H = np.zeros((m, off[-1]))
    mentions = np.zeros((m, len(dims)), dtype=bool)
    C = [np.zeros((d, d), dtype=complex) for d in p.blocks]
    for d, (ks, bs, mats) in coeffs.items():
        for b, mat in zip(bs[ks < 0], mats[ks < 0]):
            C[b] = mat
        ks, bs, mats = ks[ks >= 0], bs[ks >= 0], mats[ks >= 0]
        H[ks[:, None], off[bs][:, None] + np.arange(d * d)] = hvec(mats)
        mentions[ks, bs] = True
    E = np.zeros((m, nf))
    b = np.zeros(m)
    for k, (_, fc, rhs) in enumerate(p.constraints):
        for j, v in fc.items():
            E[k, j] = v
        b[k] = rhs
    c = np.zeros(nf)
    for j, v in p.objective[1].items():
        c[j] = v
    return _Dense(H, mentions, E, b, C, c, off)


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class _Compiled:
    """A program's structure: its blocks grouped into ``_Group``s over the
    rows ``kept`` (ids in the full program, ascending, renumbered 0..m-1),
    by (dimension, row count) in order of first block, and the row basis:
    the other rows ``left_out`` (ascending) are ``weights @`` the kept rows
    (a zero row's weights are 0).  Iterates are stacks of the blocks
    ``order[i]`` of one dimension; rows that never mention a block cost
    nothing in any product over it.  The dense rows it was built from are
    not kept, and every array is read-only, so one structure serves any
    number of solves.
    """

    def __init__(self, p: SdpProblem, dense: _Dense, kept, weights):
        self.blocks = list(p.blocks)
        self.nf = p.n_free
        self.kept = _frozen(np.array(kept, dtype=np.intp))
        self.m = m = len(self.kept)
        out = np.ones(len(dense.b), dtype=bool)
        out[self.kept] = False
        self.left_out = _frozen(np.flatnonzero(out))
        self.weights = _frozen(np.array(weights, dtype=float).reshape(len(self.left_out), m))
        H, men = dense.H[self.kept], dense.mentions[self.kept]
        keys: dict[tuple[int, int], list[int]] = {}
        for b, key in enumerate(zip(self.blocks, men.sum(axis=0).tolist())):
            keys.setdefault(key, []).append(b)
        order: dict[int, list[int]] = {}
        self.groups = []
        for (d, r), bs in keys.items():
            stack = order.setdefault(d, [])
            sl = slice(len(stack), len(stack) + len(bs))
            stack.extend(bs)
            bs = np.array(bs, dtype=np.intp)
            idx = np.nonzero(men[:, bs].T)[1].reshape(len(bs), r)
            a = H[idx[:, :, None], (dense.off[bs][:, None] + np.arange(d * d))[:, None, :]]
            self.groups.append(_Group(_frozen(idx), _frozen(a), list(order).index(d), sl))
        self.order = list(order.values())
        self.eyes = [_frozen(np.tile(np.eye(self.blocks[bs[0]], dtype=complex), (len(bs), 1, 1)))
                     for bs in self.order]
        self.apply_at = _frozen(np.concatenate([g.idx.ravel() for g in self.groups]))
        self.schur_at = _frozen(np.concatenate(
            [(g.idx[:, :, None] * m + g.idx[:, None, :]).ravel() for g in self.groups]
        ))

    def stack(self, mats) -> list[np.ndarray]:
        """Per-block d x d matrices -> per-dimension (nb, d, d) complex stacks."""
        return [np.array([mats[b] for b in bs], dtype=complex) for bs in self.order]

    def unstack(self, stacks) -> list[np.ndarray]:
        """Per-dimension stacks -> per-block matrices, in block order."""
        out = [None] * len(self.blocks)
        for bs, s in zip(self.order, stacks):
            for b, x in zip(bs, s):
                out[b] = x
        return out

    def apply(self, X: list[np.ndarray]) -> np.ndarray:
        """Block part of the row values, sum_b <A_kb, X_b>."""
        hx = [hvec(x)[:, :, None] for x in X]
        vals = [(g.A @ hx[g.size][g.sl]).ravel() for g in self.groups]
        return np.bincount(self.apply_at, np.concatenate(vals), minlength=self.m)

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """Per-dimension stacks of sum_k y_k A_kb."""
        parts: list[list[np.ndarray]] = [[] for _ in self.order]
        for g in self.groups:
            parts[g.size].append((y[g.idx][:, None, :] @ g.A)[:, 0])
        return [hvec_inv(np.concatenate(p)) for p in parts]

    def schur(self, X: list[np.ndarray], Zi: list[np.ndarray]) -> np.ndarray:
        """B[k,l] = sum_b Re tr(A_kb X_b A_lb Zi_b) = hvec(A_kb) . T_lb with the
        Schur term T_lb = hvec(X_b A_lb Zi_b).

        T is linear in A_lb: T_b = A_b N_b with N_b[q] = hvec(X_b h_q Zi_b),
        the basis images (HKM's symmetrised Kronecker product X (*) Zi),
        combined from the outer products X E_ij Zi = X[:, i] Zi[j, :].  Per
        dimension one broadcast product and two GEMMs give N, per group two
        GEMMs give its terms; the groups share one scatter-add into B."""
        images = []
        for x, zi in zip(X, Zi):
            nb, d = x.shape[:2]
            e = x.transpose(0, 2, 1)[:, :, None, :, None] * zi[:, None, :, None, :]
            n = _hermitian_basis(d).reshape(d * d, d * d) @ e.reshape(nb, d * d, d * d)
            images.append(hvec(n.reshape(nb, d * d, d, d)))
        parts = []
        for g in self.groups:
            t = g.A @ images[g.size][g.sl]
            parts.append((g.A @ t.transpose(0, 2, 1)).ravel())
        m = self.m
        return np.bincount(self.schur_at, np.concatenate(parts), minlength=m * m).reshape(m, m)


def _presolve(rows: np.ndarray):
    """Gram-Schmidt row basis.

    Rows are scanned in order; row k is kept when its residual against the
    rows kept so far exceeds 1e-10*max(1, |row k|).  The residual comes from
    two classical Gram-Schmidt passes (CGS2) against those rows.  ``rows``
    (the dense rows [hvec(A_k1)|...|E_k]) is overwritten.
    Returns (kept, weights): the kept row ids, ascending, and per other row
    in order the weights that build it from the kept rows, a
    (rows - len(kept), len(kept)) array whose rows are 0 for zero rows.
    """
    m, ncols = rows.shape
    Q = np.empty((min(m, ncols), ncols))
    T = np.zeros((len(Q), len(Q)))  # Q[:n] = T[:n, :n] @ (the kept rows)
    W = np.zeros((m, len(Q)))  # row i: the weights of the i-th other row
    kept: list[int] = []
    for k, r in enumerate(rows):
        nk = np.linalg.norm(r)
        n = len(kept)
        coef = np.zeros(n)
        for _ in range(2):
            c = Q[:n] @ r
            r -= c @ Q[:n]
            coef += c
        nrm = np.linalg.norm(r)
        if nrm > 1e-10 * max(1.0, nk):
            Q[n] = r / nrm
            T[n, :n], T[n, n] = -(coef @ T[:n, :n]) / nrm, 1.0 / nrm
            kept.append(k)
        else:  # a zero row stays 0 and gets weights 0
            W[k - n, :n] = coef @ T[:n, :n]
    return kept, W[:m - len(kept), :len(kept)]


@dataclass(frozen=True)
class Program:
    """A compiled structure bound to one call's data: what ``solve`` runs.

    ``b`` and ``E`` are the rhs and free coefficients of the kept rows,
    ``C`` the objective's block coefficients as per-dimension stacks and
    ``c`` its free coefficients, and ``message`` the first left-out row
    whose rhs the kept rows contradict, found by ``bind``, which ``solve``
    reports as PrimalInfeasible without iterating.
    """

    structure: _Compiled
    b: np.ndarray
    E: np.ndarray
    C: list
    c: np.ndarray
    message: str = ""

    @property
    def blocks(self) -> list[int]:
        return self.structure.blocks

    @property
    def constraints(self) -> np.ndarray:
        """One entry per row the solver sees: its right-hand side."""
        return self.b

    def bind(self, b=None, E=None, C=None) -> Program:
        """This structure with new data (None keeps this program's): ``b``
        (m,) and ``E`` (m, n_free) for every row of the program and ``C``
        the objective's block coefficients as {block: Hermitian matrix}
        (other blocks 0).

        The one check of a program's data: a left-out row must equal its
        weights times the kept rows.  Free coefficients that miss by more
        than 10*FEAS_TOL*(1 + max|E|) raise ValueError.  A rhs may miss by
        FEAS_TOL*scale on a zero row and by ten times that on any other,
        scale = 1 + max|b|; the first row in row order that misses sets
        ``message`` (ZERO_ROW or INCONSISTENT, with its row id).
        """
        st = self.structure
        data = {}
        if E is not None:
            E = np.asarray(E, dtype=float)
            data["E"] = _frozen(E[st.kept])
            off = E[st.left_out] - st.weights @ data["E"]
            if np.abs(off).max(initial=0.0) > 10 * FEAS_TOL * (1.0 + np.abs(E).max(initial=0.0)):
                raise ValueError("free coefficients do not obey the program's row relations")
        if b is not None:
            b = np.asarray(b, dtype=float)
            data["b"] = _frozen(b[st.kept])
            residual = b[st.left_out] - st.weights @ data["b"]
            zero = ~st.weights.any(axis=1)
            tol = np.where(zero, 1.0, 10.0) * FEAS_TOL * (1.0 + np.abs(b).max(initial=0.0))
            bad = np.flatnonzero(np.abs(residual) > tol)
            data["message"] = ""
            if bad.size:
                i = bad[0]
                report = ZERO_ROW if zero[i] else INCONSISTENT
                data["message"] = report.format(st.left_out[i], residual[i])
        if C is not None:
            mats = [np.zeros((d, d), dtype=complex) for d in st.blocks]
            for blk, mat in C.items():
                mats[blk] = linalg.check_hermitian(mat, tol=1e-9)
            data["C"] = st.stack(mats)
        return replace(self, **data)


def compile_program(p: SdpProblem, basis=None) -> Program:
    """Compile p's structure and bind p's own data to it.

    ``basis``: (kept, weights) as ``_presolve`` returns them, rows known to
    span all of p's rows; None runs the presolve on p's rows.  p's free
    coefficients are part of the rows the basis is found on, so binding
    checks only p's rhs.
    """
    dense = _dense(p)
    if basis is None:
        basis = _presolve(np.hstack([dense.H, dense.E]))
    c = _Compiled(p, dense, *basis)
    unbound = Program(c, None, _frozen(dense.E[c.kept]), [_frozen(x) for x in c.stack(dense.C)],
                      _frozen(dense.c))
    return unbound.bind(b=dense.b)


def _factor(S: np.ndarray) -> np.ndarray:
    """F = inv(cholesky(S)) for a stack S of Hermitian positive definite
    matrices: S^-1 = F^H F, and S + a*D >= 0 iff I + a*F D F^H >= 0."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _step_lengths(F, dX, dZ) -> tuple[float, float]:
    """Largest alpha_p, alpha_d with X + alpha_p*dX >= 0 and Z + alpha_d*dZ
    >= 0 in every block (inf when no block limits the step), given per block
    dimension the factor F = _factor([X; Z]) of the stacked X and Z blocks.

    Per dimension two batched products W = F [dX; dZ] F^H and one eigvalsh:
    a block limits the step at -1/lambda_min(W) when lambda_min < -1e-14.
    """
    alpha = [np.inf, np.inf]
    for f, dx, dz in zip(F, dX, dZ):
        w = f @ np.concatenate([dx, dz]) @ f.conj().transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(w).min(axis=1)
        for side, ls in enumerate((lam[:len(dx)], lam[len(dx):])):
            ls = ls[~(ls >= -1e-14)]
            if ls.size:
                alpha[side] = min(alpha[side], (-1.0 / ls).min())
    return alpha[0], alpha[1]


def _lin_solve(a: np.ndarray, rhs: np.ndarray):
    """Solve a*x = rhs.  Returns (x, fell_back): when the system turns
    singular near a degenerate optimum (LU fails, or its x is not finite or
    worse than x = 0), x comes from least squares, the event is logged at
    DEBUG and fell_back is True."""
    try:
        x = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(x)) and np.abs(a @ x - rhs).max() <= np.abs(rhs).max():
            return x, False
    except np.linalg.LinAlgError:
        pass
    _log.debug("singular %d x %d Newton system: least-squares fallback", *a.shape)
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x, True


def solve(p: SdpProblem | Program, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve an SdpProblem (compiled here, presolve included) or a Program
    with the interior-point method described above."""
    opts = opts or SolveOptions()
    if isinstance(p, SdpProblem):
        p = compile_program(p)
    c = p.structure
    if p.message:
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
            message=p.message,
        )
    m = c.m
    nf = c.nf
    nu = float(sum(c.blocks))
    Ek = p.E
    bk = p.b
    Cg = p.C
    eyes = c.eyes
    aug = np.zeros((m + nf, m + nf))  # Newton matrix [[B, -E], [E', 0]]
    aug[:m, m:] = -Ek
    aug[m:, :m] = Ek.T

    def inner(P, Q):  # sum_b Re tr(P_b Q_b) over Hermitian stacks
        return sum(np.vdot(pg, qg).real for pg, qg in zip(P, Q))

    # starting point: identity-scaled interior iterates
    bscale = 1.0 + np.abs(bk).max(initial=0.0)
    cscale = 1.0 + max([np.abs(cg).max(initial=0.0) for cg in Cg] + [np.abs(p.c).max(initial=0.0)])
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
        r_f = p.c - Ek.T @ y
        mu = inner(X, Z) / nu
        pv = inner(Cg, X) + p.c @ s
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
            rp_inf <= FEAS_TOL
            and rd_inf <= FEAS_TOL
            and rf_inf <= FEAS_TOL
            and gap <= GAP_TOL * (1.0 + abs(pv))
        ):
            status = STATUS_OPTIMAL
            message = ""
            break
        if pv > UNBOUNDED_CUTOFF and rp_inf <= 1e-6:
            status = STATUS_DUAL_INFEASIBLE
            message = "primal objective diverging: dual infeasible"
            break
        if dv < -UNBOUNDED_CUTOFF and rd_inf <= 1e-6:
            status = STATUS_PRIMAL_INFEASIBLE
            message = "dual objective diverging: primal infeasible"
            break

        try:
            F = [_factor(np.concatenate([xg, zg])) for xg, zg in zip(X, Z)]
            Zi = [f[len(xg):].conj().transpose(0, 2, 1) @ f[len(xg):] for f, xg in zip(F, X)]
            aug[:m, :m] = c.schur(X, Zi)
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
            ap, ad = (min(1.0, a) for a in _step_lengths(F, dX_a, dZ_a))
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

        ap, ad = (min(1.0, STEP_FRAC * a) for a in _step_lengths(F, dX, dZ))
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
    return SdpSolution(
        status=status,
        primal_blocks=c.unstack(xs),
        scalar_vars=sv,
        primal_value=pv,
        dual_value=dv,
        gap=gap,
        iterations=it,
        residual_primal=rp_inf,
        residual_dual=rd_inf,
        message=message,
        lstsq_fallbacks=fallbacks,
    )


def with_slack(p: SdpProblem) -> SdpProblem:
    """The feasibility program of p: maximise a uniform slack t, a new last
    free variable, with every block shifted, X - t*I >= 0 (each row gains t
    times the trace of its block coefficients).  p's objective is ignored."""
    q = SdpProblem(
        blocks=list(p.blocks),
        n_free=p.n_free + 1,
        objective=({}, {p.n_free: 1.0}),
        constraints=[],
    )
    for bc, fc, rhs in p.constraints:
        fc2 = dict(fc)
        tr = sum(np.trace(np.asarray(mat)).real for mat in bc.values())
        if tr != 0.0:
            fc2[p.n_free] = fc2.get(p.n_free, 0.0) + tr
        q.constraints.append((bc, fc2, rhs))
    return q


def feasibility(p: SdpProblem | Program, opts: SolveOptions | None = None):
    """Maximise a uniform slack t with every block shifted: X - t*I >= 0.

    p is an SdpProblem (its objective is ignored), or a Program compiled
    from ``with_slack`` of one, t its last free variable.  Returns
    (feasible, slack, certificate_blocks).  feasible <=> optimal slack >=
    -1e-7; the certificate blocks are the unshifted variables X = X~ + t*I,
    which satisfy the affine rows exactly and are PSD up to the reported
    slack.
    """
    if isinstance(p, SdpProblem):
        p = with_slack(p)
    sol = solve(p, opts)
    if sol.status == STATUS_PRIMAL_INFEASIBLE:
        return False, -np.inf, None
    t = float(sol.scalar_vars[-1])
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
    """Assemble SDPs over complex Hermitian blocks.

    A Hermitian variable of dimension d is a d x d solver block, and its
    coefficients are the Hermitian matrices themselves (a nonnegative
    scalar is a 1 x 1 block).  Matrix equalities are expanded against the
    orthonormal basis ``_hermitian_basis(d)``, so each d x d constraint
    contributes d^2 real rows, row k taking the coordinates hvec(T)[k] of
    the right-hand side.  ``prob`` is the assembled ``SdpProblem``, for
    ``solve`` or ``feasibility``.
    """

    def __init__(self):
        self.prob = SdpProblem(blocks=[], n_free=0)

    def cblock(self, d: int) -> int:
        """New complex Hermitian PSD variable of dimension d."""
        self.prob.blocks.append(d)
        return len(self.prob.blocks) - 1

    def free(self) -> int:
        """New free scalar variable."""
        idx = self.prob.n_free
        self.prob.n_free += 1
        return idx

    def _expand(self, terms, free_terms, rhs_mat, d):
        for blk, _ in terms:
            if self.prob.blocks[blk] != d:
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

    def eq_scalar(self, block_terms=(), free_terms=(), rhs=0.0):
        """Add sum_v <K_v, X_v> + sum_j c_j s_j = rhs (one real row).

        block_terms: [(block, Hermitian K)].
        """
        bc = {}
        for blk, k in block_terms:
            mat = linalg.check_hermitian(k, tol=1e-9)
            bc[blk] = bc[blk] + mat if blk in bc else mat
        fc = {}
        for j, v in free_terms:
            fc[j] = fc.get(j, 0.0) + float(v)
        self.prob.constraints.append((bc, fc, float(rhs)))

    def objective(self, block_terms=(), free_terms=()):
        """Set the objective, maximised: sum_v <O_v, X_v> + sum_j c_j s_j."""
        bo = {blk: linalg.check_hermitian(o, tol=1e-9) for blk, o in block_terms}
        fo = {j: float(v) for j, v in free_terms}
        self.prob.objective = (bo, fo)

    def extract(self, blocks: list[np.ndarray], blk: int) -> np.ndarray:
        """Complex Hermitian matrix of block blk from solver blocks."""
        return linalg.hermitianize(blocks[blk])
