"""Semidefinite programming over blocks of one dimension: primal-dual
interior point solver.

Standard form (maximisation), with <A, X> = Re tr(AX):

    max  sum_b <C_b, X_b> + c's
    s.t. sum_b <A_kb, X_b> + (E s)_k = b_k     k = 1..m
         X_b >= 0  (nb complex Hermitian d x d blocks; real symmetric data too),  s free.

Every block has the same dimension d, and the rows come in two kinds, in
the coordinates hvec(A) of an orthonormal Hermitian basis (d^2 reals per
block).  Kernel rows are the matrix equalities sum_b K[i, b] X_b (+ free
terms) = B_i, one row per basis coordinate: the rows K (x) I_{d^2}.  A thin
border of general rows follows, with dense coefficients T (g, nb, d^2).
The iterates X, Z and the objective C are single (nb, d, d) stacks, so a
row product is one GEMM with K plus one with the border.  The Schur
complement B[k,l] = sum_b Re tr(A_kb X_b A_lb Z_b^-1) is built from the
basis images N_b (HKM's symmetrised Kronecker product X_b (*) Z_b^-1): its
kernel block is one GEMM of the kernel rows' pairwise products against N,
and the border adds T N per block.

The solver uses the HKM search direction with a Mehrotra predictor-corrector
and an augmented system for the free scalar variables.  Per iteration one
factor F = inv(cholesky([X; Z])) gives Z^-1 = F_Z^H F_Z and all four step
lengths (one eigvalsh of F D F^H each).  A presolve finds a row basis: it
keeps the rows independent of earlier ones and gives the weights that
build every other row from them, by classical Gram-Schmidt with
reorthogonalisation (CGS2), one row at a time.  It looks at the rows only,
never at their data; a kernel program's basis is that of its small kernel,
lifted to the d^2 rows of each equality.  Everything is plain numpy and
fully deterministic: identical inputs produce identical iterate sequences.
The tolerances are the module constants below; ``SolveOptions`` holds only
the iteration cap.

Compile and solve are separate steps.  ``compile_kernel`` compiles a
program from its kernel, border and free columns; ``compile_program``
compiles an ``SdpProblem`` (one block dimension) as border rows only.
Either returns a read-only ``_Structure`` bound to the program's data as a
``Program``; ``Program.bind`` swaps in another call's data (rhs, free
columns, objective) without compiling again, so a caller that caches a
structure solves many programs of one shape for the cost of their data.
Binding is the one place that checks data: the rows the structure leaves
out must still match the kept rows.  ``solve`` accepts an ``SdpProblem``,
compiled on the spot, or a Program.

``Builder`` declares Hermitian variables, one block kind (a nonnegative
scalar is a 1 x 1 block), and expands each d x d matrix equality in the
Hermitian basis into d^2 real rows.  Feasibility questions
are answered by ``feasibility``, which maximises a uniform slack t with
every block shifted to X - t*I >= 0 (the rewrite ``with_slack``).
"""

from __future__ import annotations

import logging
import math
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
    free dict).  ``compile_program`` accepts blocks of one dimension only.
    """

    blocks: list[int]
    n_free: int = 0
    objective: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))
    constraints: list[tuple[dict, dict, float]] = field(default_factory=list)


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


@lru_cache(maxsize=64)
def _hvec_rows(d: int) -> np.ndarray:
    """The basis as (d^2, 2d^2) rows of (re, im) floats.  For Hermitian h,
    Re tr(hT) is the dot product of h's row with the floats of T, so hvec is
    one matrix product with these rows and the transposed product inverts it.
    A read-only view of the basis, cached per d."""
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


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class _Structure:
    """A program's structure: nb blocks of dimension d, the kept kernel rows
    ``K`` (r, nb), which stand for the r*d^2 rows K (x) I_{d^2} (row i*d^2 + p
    is coordinate p of equality i), then the g kept border rows with hvec
    coefficients ``T`` (g, nb, d^2), and nf free variables.  The row basis:
    ``kept`` are the kept rows' ids in the full program (ascending), and the
    other rows ``left_out`` (ascending) are ``weights @`` the kept rows (a
    zero row's weights are 0).  ``KK`` (r^2, nb) holds the kernel rows'
    pairwise products K[i, b] K[j, b].  Every array is read-only, so one
    structure serves any number of solves.
    """

    def __init__(self, d: int, K, T, nf: int, kept, weights):
        self.d, self.nf = d, nf
        self.K = _frozen(np.array(K, dtype=float))
        r, self.nb = self.K.shape
        self.T = _frozen(np.array(T, dtype=float).reshape(-1, self.nb, d * d))
        self.g = len(self.T)
        self.rn = r * d * d
        self.kept = _frozen(np.array(kept, dtype=np.intp))
        self.m = m = len(self.kept)
        if m != self.rn + self.g:
            raise ValueError(f"{m} kept rows for {r} kernel rows of dimension {d} and {self.g} border rows")
        out = np.ones(m + len(weights), dtype=bool)
        out[self.kept] = False
        self.left_out = _frozen(np.flatnonzero(out))
        self.weights = _frozen(np.array(weights, dtype=float).reshape(len(self.left_out), m))
        self.KK = _frozen((self.K[:, None] * self.K[None]).reshape(r * r, self.nb))

    @property
    def blocks(self) -> list[int]:
        return [self.d] * self.nb

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Block part of the row values, sum_b <A_kb, X_b>: [K hvec(X); T.hvec(X)]."""
        hx = hvec(X)
        out = (self.K @ hx).ravel()
        if self.g:
            out = np.concatenate([out, self.T.reshape(self.g, -1) @ hx.ravel()])
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The stack of sum_k y_k A_kb: hvec_inv(K' Y + y_g . T), Y the kernel
        part of y as (r, d^2)."""
        v = self.K.T @ y[:self.rn].reshape(-1, self.d * self.d)
        if self.g:
            v += (y[self.rn:] @ self.T.reshape(self.g, -1)).reshape(v.shape)
        return hvec_inv(v)

    def schur(self, X: np.ndarray, Zi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write B[k,l] = sum_b Re tr(A_kb X_b A_lb Zi_b) into ``out`` (an
        (m, m) array or view) and return it.

        With the basis images N_b[q, p] = Re tr(h_p X_b h_q Zi_b), a kernel
        row pair gives B[(i,p), (j,q)] = sum_b K[i,b] K[j,b] N_b[q,p]: one GEMM
        KK @ N and one axis reorder.  The border takes V_b = T_b N_b per block;
        K @ V is its coupling to the kernel rows (mirrored, as B is
        symmetric) and T . V its own block.

        Temporaries are freed as soon as they are used: glibc may give a
        freed heap top back to the system and fault it in again at the next
        allocation, so the less each iteration holds at once, the better."""
        nb, n, r, rn, g = self.nb, self.d * self.d, len(self.K), self.rn, self.g
        N = _basis_images(X, Zi)
        M = (self.KK @ N.reshape(nb, n * n)).reshape(r, r, n, n)
        # splitting both axes of the (rn, rn) view is a view, so this writes into out
        out[:rn, :rn].reshape(r, n, r, n)[...] = M.transpose(0, 3, 1, 2)
        del M
        if g:
            V = self.T.transpose(1, 0, 2) @ N  # (nb, g, d^2)
            del N
            KV = (self.K @ V.reshape(nb, g * n)).reshape(r, g, n)
            out[:rn, rn:] = KV.transpose(0, 2, 1).reshape(rn, g)
            out[rn:, :rn] = out[:rn, rn:].T
            out[rn:, rn:] = self.T.reshape(g, -1) @ V.transpose(1, 0, 2).reshape(g, -1).T
        return out


def _basis_images(x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """N[b, q] = hvec(x_b h_q zi_b) for a stack of nb blocks of dimension d:
    an (nb, d^2, d^2) array (see ``_Structure.schur``), combined from the
    outer products x E_ij zi = x[:, i] zi[j, :]."""
    nb, d = x.shape[:2]
    e = x.transpose(0, 2, 1)[:, :, None, :, None] * zi[:, None, :, None, :]
    n = _hermitian_basis(d).reshape(d * d, d * d) @ e.reshape(nb, d * d, d * d)
    del e
    return hvec(n.reshape(nb, d * d, d, d))


def _presolve(rows: np.ndarray):
    """Gram-Schmidt row basis.

    Rows are scanned in order; row k is kept when its residual against the
    rows kept so far exceeds 1e-10*max(1, |row k|).  The residual comes from
    two classical Gram-Schmidt passes (CGS2) against those rows.  ``rows``
    (one dense row of coefficients per constraint) is overwritten.
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
    ``C`` the objective's block coefficients as an (nb, d, d) stack and
    ``c`` its free coefficients, and ``message`` the first left-out row
    whose rhs the kept rows contradict, found by ``bind``, which ``solve``
    reports as PrimalInfeasible without iterating.
    """

    structure: _Structure
    b: np.ndarray
    E: np.ndarray
    C: np.ndarray
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
            mats = np.zeros((st.nb, st.d, st.d), dtype=complex)
            for blk, mat in C.items():
                mats[blk] = linalg.check_hermitian(mat, tol=1e-9)
            data["C"] = _frozen(mats)
        return replace(self, **data)


def compile_kernel(d: int, kernel, border=None, E=None, c=None) -> Program:
    """Compile a kernel program over nb = kernel.shape[1] blocks of
    dimension d and bind zero rhs and objective to it.

    Its rows: per kernel row i the d^2 rows (i*d^2 + p) of the equality
    sum_b kernel[i, b] X_b = B_i, then the border rows, ``border`` (g, nb,
    d^2) their hvec coefficients (None: no border).  ``E`` (rows, nf) are
    every row's free coefficients (None: no free variables) and ``c`` (nf,)
    the objective's.  The row basis is the small kernel's, found by
    ``_presolve`` and lifted to the d^2 rows of each equality; every border
    row is kept, so border rows must be independent of the kernel rows and
    of each other.  Binding E checks that it obeys the kernel's relations.
    """
    kernel = np.asarray(kernel, dtype=float)
    R, nb = kernel.shape
    n = d * d
    T = np.zeros((0, nb, n)) if border is None else np.asarray(border, dtype=float)
    keep, weights = _presolve(kernel.copy())
    kept = [i * n + p for i in keep for p in range(n)] + list(range(R * n, R * n + len(T)))
    weights = np.hstack([np.kron(weights, np.eye(n)), np.zeros((len(weights) * n, len(T)))])
    E = np.zeros((R * n + len(T), 0)) if E is None else np.asarray(E, dtype=float)
    st = _Structure(d, kernel[keep], T, E.shape[1], kept, weights)
    c = np.zeros(st.nf) if c is None else np.asarray(c, dtype=float)
    unbound = Program(st, None, None, _frozen(np.zeros((nb, d, d), dtype=complex)), _frozen(c))
    return unbound.bind(b=np.zeros(R * n + len(T)), E=E)


def _dense(p: SdpProblem):
    """Check p's data: blocks of one dimension d, coefficients d x d and
    Hermitian, free indices in range, finite rhs.  Returns (d, T, E, b, C,
    c): per constraint the hvec coordinates T (m, nb, d^2) of its block
    coefficients and its free coefficients E (m, n_free), the rhs b, and the
    objective's block stack C (nb, d, d) and free coefficients c."""
    dims = sorted(set(p.blocks))
    if len(dims) != 1:
        raise ValueError(f"a program needs blocks of one dimension, got dimensions {dims}")
    d = dims[0]
    if d < 1:
        raise ValueError(f"blocks of dimension {d}")
    nb, nf, m = len(p.blocks), p.n_free, len(p.constraints)
    rows = [p.objective] + p.constraints
    coef = np.zeros((m + 1, nb, d, d), dtype=complex)  # row 0: the objective
    E = np.zeros((m + 1, nf))

    def where(k):
        return "objective" if k == 0 else f"constraint {k - 1}"

    for k, (bc, fc, *_) in enumerate(rows):
        for blk, mat in bc.items():
            if np.shape(mat) != (d, d):
                raise ValueError(f"{where(k)}: block {blk} coefficient shape {np.shape(mat)}")
            coef[k, blk] = mat
        for j, v in fc.items():
            if not 0 <= j < nf:
                raise ValueError(f"{where(k)}: free index {j} out of range")
            E[k, j] = v
    bad = np.argwhere(np.abs(coef - coef.conj().transpose(0, 1, 3, 2)).max(axis=(2, 3)) > 1e-10)
    if bad.size:
        raise ValueError(f"{where(bad[0][0])}: block {bad[0][1]} coefficient not Hermitian")
    b = np.array([rhs for *_, rhs in p.constraints], dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"constraint {np.flatnonzero(~np.isfinite(b))[0]}: non-finite rhs")
    return d, hvec(coef[1:]), E[1:], b, coef[0], E[0]


def compile_program(p: SdpProblem) -> Program:
    """Compile p's structure, every row a border row (p has no kernel), and
    bind p's own data to it.  The presolve reads p's block and free
    coefficients, so binding checks only p's rhs."""
    d, T, E, b, C, c = _dense(p)
    kept, weights = _presolve(np.hstack([T.reshape(len(T), -1), E]))
    st = _Structure(d, np.zeros((0, len(p.blocks))), T[kept], p.n_free, kept, weights)
    return Program(st, None, _frozen(E[kept]), _frozen(C), _frozen(c)).bind(b=b)


def _factor(S: np.ndarray) -> np.ndarray:
    """F = inv(cholesky(S)) for a stack S of Hermitian positive definite
    matrices: S^-1 = F^H F, and S + a*D >= 0 iff I + a*F D F^H >= 0."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _step_lengths(F, dX, dZ) -> tuple[float, float]:
    """Largest alpha_p, alpha_d with X + alpha_p*dX >= 0 and Z + alpha_d*dZ
    >= 0 in every block (inf when no block limits the step), given the
    factor F = _factor([X; Z]) of the stacked X and Z blocks.

    Two batched products W = F [dX; dZ] F^H and one eigvalsh: a side's
    stack limits the step at -1/lambda when its least eigenvalue lambda is
    below -1e-14 (-1/lambda grows with lambda, so this is the least step
    over its blocks).
    """
    w = F @ np.concatenate([dX, dZ]) @ F.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(w).reshape(2, -1).min(axis=1)
    return tuple(-1.0 / v if v < -1e-14 else np.inf for v in lam)


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
    nb, d = c.nb, c.d
    if p.message:
        return SdpSolution(
            status=STATUS_PRIMAL_INFEASIBLE,
            primal_blocks=list(np.zeros((nb, d, d), dtype=complex)),
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
    nu = float(nb * d)
    Ek = p.E
    bk = p.b
    C = p.C
    eye = np.eye(d, dtype=complex)
    aug = np.zeros((m + nf, m + nf))  # Newton matrix [[B, -E], [E', 0]]
    aug[:m, m:] = -Ek
    aug[m:, :m] = Ek.T

    # starting point: identity-scaled interior iterates
    bscale = 1.0 + np.abs(bk).max(initial=0.0)
    cscale = 1.0 + max(np.abs(C).max(initial=0.0), np.abs(p.c).max(initial=0.0))
    X = np.broadcast_to(max(10.0, bscale) * eye, (nb, d, d)).copy()
    Z = np.broadcast_to(max(10.0, cscale) * eye, (nb, d, d)).copy()
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
        r_d = C + Z - c.adjoint(y)
        r_f = p.c - Ek.T @ y
        mu = np.vdot(X, Z).real / nu
        pv = np.vdot(C, X).real + p.c @ s
        dv = bk @ y
        gap = abs(pv - dv)
        rp_inf = np.abs(r_p).max(initial=0.0)
        rd_inf = np.abs(r_d).max(initial=0.0)
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
            F = _factor(np.concatenate([X, Z]))
            Zi = F[nb:].conj().transpose(0, 2, 1) @ F[nb:]
            c.schur(X, Zi, aug[:m, :m])
            Xrd = X @ r_d

            def hkm_direction(R):
                nonlocal fallbacks
                h = c.apply((R + Xrd) @ Zi) - r_p
                sol, fell_back = _lin_solve(aug, np.concatenate([h, r_f]))
                fallbacks += fell_back
                dy, ds = sol[:m], sol[m:]
                dZ = c.adjoint(dy) - r_d
                dX = _herm((R - X @ dZ) @ Zi)
                return dX, ds, dy, dZ

            # predictor (affine scaling)
            R_aff = -(X @ Z)
            dX_a, ds_a, dy_a, dZ_a = hkm_direction(R_aff)
            ap, ad = (min(1.0, a) for a in _step_lengths(F, dX_a, dZ_a))
            mu_aff = np.vdot(X + ap * dX_a, Z + ad * dZ_a).real / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # corrector
            R_cor = R_aff + sigma * mu * eye - dX_a @ dZ_a
            dX, ds, dy, dZ = hkm_direction(R_cor)
            if not (np.all(np.isfinite(dX)) and np.all(np.isfinite(dZ))):
                message = "non-finite search direction"
                break
        except np.linalg.LinAlgError as exc:
            message = f"linear algebra failure: {exc}"
            break

        ap, ad = (min(1.0, STEP_FRAC * a) for a in _step_lengths(F, dX, dZ))
        if ap < 1e-12 and ad < 1e-12:
            message = "step sizes collapsed"
            break
        X = X + ap * dX
        s = s + ap * ds
        y = y + ad * dy
        Z = Z + ad * dZ

    if status == STATUS_OPTIMAL:  # the exit test just measured this iterate
        best = (X, s, pv, dv, gap, rp_inf, rd_inf)
    elif best is None:  # no iterate measured: max_iters < 1 or non-finite data
        best = (X, s, np.nan, np.nan, np.nan, np.inf, np.inf)
    xs, sv, pv, dv, gap, rp_inf, rd_inf = best
    return SdpSolution(
        status=status,
        primal_blocks=list(xs),
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

    p is an SdpProblem (its objective is ignored), or a Program whose last
    free variable is such a slack t (compiled from ``with_slack`` of a
    problem, or with the slack column of ``incompat.parent_program``).
    Returns (feasible, slack, certificate_blocks).  feasible <=> optimal
    slack >= -1e-7; the certificate blocks are the unshifted variables
    X = X~ + t*I, which satisfy the affine rows exactly and are PSD up to
    the reported slack.
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
