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
and an augmented system for the free scalar variables.  A solve allocates
its workspace once: the iterates as one (2nb, d, d) stack S = [X; Z], the
search direction as one stack D = [dX; dZ], one Newton right-hand side and
the Schur assembly's buffers (``_Structure.schur_workspace``: the outer
products, the basis product, the basis images and the kernel block), all
updated in place; a solve returns the iterate it measured last.  It
measures at most MAX_ITERS iterates; callers treat any exit other than
Optimal or Decided as a ``SolverError``.  Every program the package builds
is feasible and bounded, so no exit waits for a side to diverge.  Per iteration
one factor F = inv(cholesky(S)) and its conjugate transpose give
Z^-1 = F_Z^H F_Z and all four step lengths (one eigvalsh of F D F^H
each).  The corrector takes the share 1 - mu_aff/mu of the largest
feasible step, at least STEP_FRAC and at most 1 - GAP_TOL, mu_aff being the
predictor's complementarity: the steps near the optimum approach the
boundary and the gap falls superlinearly.  The start point is at the
data's own scale: X0 = (1 + max|b|) I and Z0 = (1 + max(|C|, |c|)) I.  A
presolve finds a row basis: it keeps the rows independent of earlier ones
and gives the weights that build every other row from them, by classical
Gram-Schmidt with reorthogonalisation (CGS2), one row at a time.  It
looks at the rows only, never at their data; a kernel program's basis is
that of its small kernel, lifted to the d^2 rows of each equality.
Everything is plain numpy and fully deterministic: identical inputs
produce identical iterate sequences.
The tolerances and the iteration cap are the module constants below.

Compile and solve are separate steps.  ``compile_kernel`` compiles a
program from its kernel, border and free columns, and ``Builder`` writes a
program out row by row and compiles it with border rows only.  Either
gives a read-only ``_Structure`` bound to the program's data as a
``Program``, the one input of ``solve``; ``Program.bind`` swaps in another
call's data (rhs, free columns, objective) without compiling again, so a
caller that caches a structure solves many programs of one shape for the
cost of their data.  Binding is the one place that checks data: the rows
the structure leaves out must still match the kept rows.

``feasibility`` answers a feasibility question: it maximises a uniform
slack t with every block shifted to X - t*I >= 0, and with ``decide`` it
stops, Decided, at the first iterate that certifies the sign of t.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import linalg

STATUS_OPTIMAL = "Optimal"
STATUS_PRIMAL_INFEASIBLE = "PrimalInfeasible"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"
STATUS_DECIDED = "Decided"  # a verdict-only feasibility solve met its certificate

FEAS_SLACK_TOL = 1e-7  # feasibility margin: feasible <=> slack >= -1e-7
FEAS_TOL = 1e-8  # residual bound of an optimal iterate; tolerance of the data check
GAP_TOL = 1e-8  # relative duality gap of an optimal iterate
STEP_FRAC = 0.98  # least share of the largest feasible step taken (see _step_fraction)
MAX_ITERS = 200  # iterates a solve measures at most

# the data check's reports of a zero row with nonzero rhs, and of a row
# whose rhs contradicts the kept rows
ZERO_ROW = "row {} is 0 = {:g}"
INCONSISTENT = "inconsistent affine constraints (row {}, residual {:g})"
# the messages of a Decided exit: which certificate fired
DECIDED_FEASIBLE = "primal iterate certifies slack >= -FEAS_SLACK_TOL"
DECIDED_INFEASIBLE = "dual iterate certifies slack < -FEAS_SLACK_TOL"

_log = logging.getLogger(__name__)


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

    def schur_workspace(self) -> np.ndarray:
        """A new scratch array for ``schur``: max(4 nb, nb + r^2) d^4 floats,
        the most the Schur temporaries ever hold at once.  Its first half
        holds the outer products e and its second half the basis product n,
        both complex (nb, d^2, d^2); then the basis images N go over e's
        first quarter and the kernel block KK @ N right after them.
        ``solve`` makes one per solve."""
        return np.empty(max(4 * self.nb, self.nb + len(self.KK)) * self.d ** 4)

    def schur(self, X: np.ndarray, Zi: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Write B[k,l] = sum_b Re tr(A_kb X_b A_lb Zi_b) into ``out`` (an
        (m, m) array or view) and return it; ``work`` is a
        ``schur_workspace``, overwritten.

        With the basis images N_b[q, p] = Re tr(h_p X_b h_q Zi_b), a kernel
        row pair gives B[(i,p), (j,q)] = sum_b K[i,b] K[j,b] N_b[q,p]: one GEMM
        KK @ N and one axis reorder.  The border takes V_b = T_b N_b per block;
        K @ V is its coupling to the kernel rows (mirrored, as B is
        symmetric) and T . V its own block.

        The temporaries live in ``work``, made once per solve.  At d = 5
        they come to about 1 MB; allocated and freed every iteration they
        took the heap top above glibc's trim threshold, so it was given back
        to the system and faulted in again: 158 minor faults per iteration
        over the ladder's d = 5 pool, against 10 with the workspace (2-vCPU
        Xeon, glibc malloc)."""
        nb, n, r, rn, g = self.nb, self.d * self.d, len(self.K), self.rn, self.g
        N = _basis_images(X, Zi, work)
        size = N.size
        M = np.matmul(self.KK, N.reshape(nb, n * n), out=work[size:size + r * r * n * n].reshape(r * r, n * n))
        # splitting both axes of the (rn, rn) view is a view, so this writes into out
        out[:rn, :rn].reshape(r, n, r, n)[...] = M.reshape(r, r, n, n).transpose(0, 3, 1, 2)
        if g:
            V = self.T.transpose(1, 0, 2) @ N  # (nb, g, d^2)
            KV = (self.K @ V.reshape(nb, g * n)).reshape(r, g, n)
            out[:rn, rn:] = KV.transpose(0, 2, 1).reshape(rn, g)
            out[rn:, :rn] = out[:rn, rn:].T
            out[rn:, rn:] = self.T.reshape(g, -1) @ V.transpose(1, 0, 2).reshape(g, -1).T
        return out


def _basis_images(x: np.ndarray, zi: np.ndarray, work: np.ndarray) -> np.ndarray:
    """N[b, q] = hvec(x_b h_q zi_b) for a stack of nb blocks of dimension d:
    an (nb, d^2, d^2) view of ``work`` (see ``_Structure.schur_workspace``),
    combined from the outer products x E_ij zi = x[:, i] zi[j, :]."""
    nb, d = x.shape[:2]
    n = d * d
    size = nb * n * n
    e = work[:2 * size].view(complex).reshape(nb, n, n)
    prod = work[2 * size:4 * size].view(complex).reshape(nb, n, n)
    np.multiply(x.transpose(0, 2, 1)[:, :, None, :, None], zi[:, None, :, None, :],
                out=e.reshape(nb, d, d, d, d))
    np.matmul(_hermitian_basis(d).reshape(n, n), e, out=prod)
    N = work[:size].reshape(nb, n, n)
    np.matmul(prod.view(float).reshape(-1, 2 * n), _hvec_rows(d).T, out=N.reshape(-1, n))
    return N


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
    reports as PrimalInfeasible without iterating.  ``decide`` marks a
    feasibility program (last free variable the slack t, objective max t)
    asked for its verdict only: ``solve`` also stops, Decided, at the first
    iterate that certifies the sign of t (see ``feasibility``).
    """

    structure: _Structure
    b: np.ndarray
    E: np.ndarray
    C: np.ndarray
    c: np.ndarray
    message: str = ""
    decide: bool = False

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
            if C:
                mats[list(C)] = linalg.check_hermitian_stack(list(C.values()), tol=1e-9)
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


def _factor(S: np.ndarray) -> np.ndarray:
    """F = inv(cholesky(S)) for a stack S of Hermitian positive definite
    matrices: S^-1 = F^H F, and S + a*D >= 0 iff I + a*F D F^H >= 0."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _step_lengths(F, FH, D) -> tuple[float, float]:
    """Largest alpha_p, alpha_d with X + alpha_p*dX >= 0 and Z + alpha_d*dZ
    >= 0 in every block (inf when no block limits the step), given the
    factor F = _factor([X; Z]) of the stacked X and Z blocks, its conjugate
    transpose FH and the stacked direction D = [dX; dZ].

    Two batched products W = F D F^H and one eigvalsh: a side's stack
    limits the step at -1/lambda when its least eigenvalue lambda is below
    -1e-14 (-1/lambda grows with lambda, so this is the least step over its
    blocks).
    """
    lam = np.linalg.eigvalsh(F @ D @ FH).reshape(2, -1).min(axis=1)
    return tuple(-1.0 / v if v < -1e-14 else np.inf for v in lam)


def _step_fraction(mu_aff: float, mu: float) -> float:
    """The corrector's share of the largest feasible step: 1 - mu_aff/mu,
    between STEP_FRAC and 1 - GAP_TOL.  Where the predictor says mu falls by
    orders of magnitude the step goes nearer the boundary, which gives the
    superlinear tail; the GAP_TOL floor keeps the iterate a relative 1e-8
    inside the cone, so the next cholesky never meets a singular block."""
    return max(STEP_FRAC, 1.0 - max(mu_aff / mu, GAP_TOL))


def _lin_solve(a: np.ndarray, rhs: np.ndarray):
    """Solve a*x = rhs.  Returns (x, fell_back): when the system turns
    singular near a degenerate optimum (LU fails, or its x is worse than
    x = 0), x comes from least squares, the event is logged at DEBUG and
    fell_back is True.  A NaN or inf in x fails the residual test too: it
    makes the residual NaN or inf, and neither is <= the finite |rhs|."""
    try:
        x = np.linalg.solve(a, rhs)
        if np.abs(a @ x - rhs).max() <= np.abs(rhs).max():
            return x, False
    except np.linalg.LinAlgError:
        pass
    _log.debug("singular %d x %d Newton system: least-squares fallback", *a.shape)
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x, True


def solve(p: Program) -> SdpSolution:
    """Solve a compiled program with the interior-point method described
    above."""
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
    rhs = np.empty(m + nf)  # Newton rhs [h; r_f]

    # the workspace: iterates S = [X; Z] and directions D = [dX; dZ], each
    # one stack updated in place (X, Z, dX, dZ are views), and the Schur
    # assembly's buffers
    S = np.empty((2 * nb, d, d), dtype=complex)
    D = np.empty_like(S)
    X, Z, dX, dZ = S[:nb], S[nb:], D[:nb], D[nb:]
    work = c.schur_workspace()

    # starting point at the data's own scale: X0 = (1 + max|b|) I, Z0 = (1 + max(|C|, |c|)) I
    bscale = 1.0 + np.abs(bk).max(initial=0.0)
    cscale = 1.0 + max(np.abs(C).max(initial=0.0), np.abs(p.c).max(initial=0.0))
    X[...] = bscale * eye
    Z[...] = cscale * eye
    y = np.zeros(m)
    s = np.zeros(nf)
    fallbacks = 0

    def hkm_direction(R):
        """Write the HKM direction for complementarity target R into D;
        return (ds, dy).  Reads this iteration's r_p, r_d, Xrd and Zi."""
        nonlocal fallbacks
        np.subtract(c.apply((R + Xrd) @ Zi), r_p, out=rhs[:m])
        sol, fell_back = _lin_solve(aug, rhs)
        fallbacks += fell_back
        dy, ds = sol[:m], sol[m:]
        np.subtract(c.adjoint(dy), r_d, out=dZ)
        linalg.hermitianize((R - X @ dZ) @ Zi, out=dX)
        return ds, dy

    status = STATUS_NUMERICAL_FAILURE
    message = "iteration cap exceeded"
    for it in range(1, MAX_ITERS + 1):
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
        if (
            rp_inf <= FEAS_TOL
            and rd_inf <= FEAS_TOL
            and rf_inf <= FEAS_TOL
            and gap <= GAP_TOL * (1.0 + abs(pv))
        ):
            status = STATUS_OPTIMAL
            message = ""
            break
        if p.decide:
            if rp_inf <= FEAS_TOL and s[-1] >= -FEAS_SLACK_TOL:
                status, message = STATUS_DECIDED, DECIDED_FEASIBLE
                break
            if rd_inf <= FEAS_TOL and rf_inf <= FEAS_TOL and dv < -FEAS_SLACK_TOL:
                status, message = STATUS_DECIDED, DECIDED_INFEASIBLE
                break
        if it == MAX_ITERS:
            break

        try:
            F = _factor(S)
            FH = F.conj().transpose(0, 2, 1)
            Zi = FH[nb:] @ F[nb:]
            c.schur(X, Zi, aug[:m, :m], work)
            Xrd = X @ r_d
            rhs[m:] = r_f

            # predictor (affine scaling)
            R_aff = -(X @ Z)
            hkm_direction(R_aff)
            ap, ad = (min(1.0, a) for a in _step_lengths(F, FH, D))
            mu_aff = np.vdot(X + ap * dX, Z + ad * dZ).real / nu
            sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

            # corrector
            R_cor = R_aff + sigma * mu * eye - dX @ dZ
            ds, dy = hkm_direction(R_cor)
            if not np.isfinite(D).all():
                message = "non-finite search direction"
                break
        except np.linalg.LinAlgError as exc:
            message = f"linear algebra failure: {exc}"
            break

        gamma = _step_fraction(mu_aff, mu)
        ap, ad = (min(1.0, gamma * a) for a in _step_lengths(F, FH, D))
        if ap < 1e-12 and ad < 1e-12:
            message = "step sizes collapsed"
            break
        X += ap * dX
        s = s + ap * ds
        y = y + ad * dy
        Z += ad * dZ

    return SdpSolution(
        status=status,
        primal_blocks=list(X),
        scalar_vars=s,
        primal_value=pv,
        dual_value=dv,
        gap=gap,
        iterations=it,
        residual_primal=rp_inf,
        residual_dual=rd_inf,
        message=message,
        lstsq_fallbacks=fallbacks,
    )


def feasibility(p: Program, decide: bool = False):
    """Maximise a uniform slack t with every block shifted: X - t*I >= 0.

    p is a Program whose last free variable is such a slack t and whose
    objective is max t (``Builder.feasibility_program``, or the
    feasibility kind of ``incompat.parent_program``).
    Returns (feasible, slack, certificate_blocks).  A PrimalInfeasible
    exit (rows that ``bind`` found contradictory) returns (False, -inf,
    None).  An Optimal exit returns feasible <=> slack t >= -1e-7, t read
    from the last iterate, and the certificate blocks, an (nb, d, d) stack:
    the unshifted variables X = X~ + t*I, which satisfy the affine rows
    exactly and are PSD up to the reported slack.  Any other exit raises
    ``SolverError``.

    With ``decide`` only the verdict is asked for, and the solve stops at
    the first iterate that certifies it (status Decided), the verdict
    taken from the exit that fired, never from t alone:
    - a primal iterate whose rows are met (residual <= FEAS_TOL) with
      t >= -1e-7: feasible, slack t, certificate X~ + t*I as above;
    - a dual iterate whose rows are met with b.y < -1e-7: infeasible, as
      weak duality bounds the optimal slack by t* <= b.y; the slack
      returned is that bound and the certificate None.
    An iterate that meets neither goes on to the Optimal exit as before.
    """
    if decide:
        p = replace(p, decide=True)
    sol = solve(p)
    if sol.status == STATUS_PRIMAL_INFEASIBLE:
        return False, -np.inf, None
    if sol.status == STATUS_DECIDED and sol.message == DECIDED_INFEASIBLE:
        return False, float(sol.dual_value), None
    if sol.status not in (STATUS_OPTIMAL, STATUS_DECIDED):
        raise SolverError(f"feasibility solve failed: {sol.status} {sol.message}")
    t = float(sol.scalar_vars[-1])
    x = np.asarray(sol.primal_blocks)
    return t >= -FEAS_SLACK_TOL, t, x + t * np.eye(x.shape[-1])


class SolverError(RuntimeError):
    """Raised when the interior-point method cannot certify a result."""


# ---------------------------------------------------------------------------
# complex Hermitian front end


class Builder:
    """Write a program over complex Hermitian blocks of one dimension d out
    row by row, and compile it.

    A Hermitian variable is a d x d block (a nonnegative scalar a 1 x 1
    block) and its coefficients are Hermitian matrices.  Rows are recorded
    in hvec coordinates: a scalar equality is one row, a d x d matrix
    equality d^2 rows, row k taking coordinate k of either side (its block
    coefficients are units).  ``program`` compiles the rows for ``solve``,
    ``feasibility_program`` for ``feasibility``, every row a border row.
    Each method checks its arguments and raises ValueError.
    """

    def __init__(self):
        self.blocks: list[int] = []
        self.n_free = 0
        # per equality: {block: hvec coefficients (r, d^2)}, {free index: (r,)}, rhs (r,)
        self._rows: list[tuple[dict, dict, np.ndarray]] = []
        self._objective: tuple[dict, dict] = ({}, {})

    def cblock(self, d: int) -> int:
        """New complex Hermitian PSD variable of dimension d."""
        if d < 1:
            raise ValueError(f"blocks of dimension {d}")
        self.blocks.append(d)
        return len(self.blocks) - 1

    def free(self) -> int:
        """New free scalar variable."""
        self.n_free += 1
        return self.n_free - 1

    def _free(self, j: int) -> int:
        if not 0 <= j < self.n_free:
            raise ValueError(f"free index {j} out of range")
        return j

    def _coef(self, blk: int, mat) -> np.ndarray:
        """mat as a coefficient of block blk: Hermitian, of the block's dimension."""
        if not 0 <= blk < len(self.blocks):
            raise ValueError(f"block index {blk} out of range")
        if np.shape(mat) != (self.blocks[blk],) * 2:
            raise ValueError(f"block {blk} coefficient shape {np.shape(mat)}")
        return linalg.check_hermitian(mat, tol=1e-9)

    def eq_matrix(self, terms, rhs_mat, free_terms=()):
        """Add sum_v coef_v * X_v + sum_j s_j * F_j = T: terms [(block, real
        coef)], free_terms [(free index, Hermitian F)], T = rhs_mat Hermitian."""
        t = linalg.check_hermitian(rhs_mat, tol=1e-9)
        bc, fc = {}, {}
        for blk, coef in terms:  # block blk's coefficient is coef * 1, of T's shape
            bc[blk] = bc.get(blk, 0.0) + coef * np.eye(self._coef(blk, t).size)
        for j, f in free_terms:
            if np.shape(f) != t.shape:
                raise ValueError(f"free {j} coefficient shape {np.shape(f)}")
            fc[self._free(j)] = fc.get(j, 0.0) + hvec(linalg.check_hermitian(f, tol=1e-9))
        self._rows.append((bc, fc, hvec(t)))

    def eq_scalar(self, block_terms=(), free_terms=(), rhs=0.0):
        """Add sum_v <K_v, X_v> + sum_j c_j s_j = rhs (one real row):
        block_terms [(block, Hermitian K)], free_terms [(free index, c)]."""
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite rhs {rhs}")
        bc, fc = {}, {}
        for blk, k in block_terms:
            bc[blk] = bc.get(blk, 0.0) + hvec(self._coef(blk, k))
        for j, v in free_terms:
            fc[self._free(j)] = fc.get(j, 0.0) + float(v)
        self._rows.append((bc, fc, np.array([float(rhs)])))

    def objective(self, block_terms=(), free_terms=()):
        """Set the objective, maximised: sum_v <O_v, X_v> + sum_j c_j s_j."""
        self._objective = ({blk: self._coef(blk, o) for blk, o in block_terms},
                           {self._free(j): float(v) for j, v in free_terms})

    def extract(self, blocks: list[np.ndarray], blk: int) -> np.ndarray:
        """Complex Hermitian matrix of block blk from solver blocks."""
        return linalg.hermitianize(blocks[blk])

    def _arrays(self):
        """Every row's hvec block coefficients T (m, nb, d^2), free
        coefficients E (m, n_free) and rhs b (m,)."""
        dims = sorted(set(self.blocks))
        if len(dims) != 1:
            raise ValueError(f"a program needs blocks of one dimension, got dimensions {dims}")
        m = sum(len(rhs) for *_, rhs in self._rows)
        T, E, b = np.zeros((m, len(self.blocks), dims[0] ** 2)), np.zeros((m, self.n_free)), np.zeros(m)
        k = 0
        for bc, fc, rhs in self._rows:
            rows = slice(k, k + len(rhs))
            for blk, v in bc.items():
                T[rows, blk] = v
            for j, v in fc.items():
                E[rows, j] = v
            b[rows], k = rhs, rows.stop
        return T, E, b

    def program(self) -> Program:
        """The program, compiled and bound to its data."""
        return _compile(*self._arrays(), *self._objective)

    def feasibility_program(self) -> Program:
        """The feasibility program, compiled and bound to its data: maximise
        a uniform slack t, a new last free variable, with every block
        shifted, X - t*I >= 0 (each row gains t times the trace of its block
        coefficients).  The objective is not read."""
        T, E, b = self._arrays()
        tr = T.sum(axis=1) @ hvec(np.eye(math.isqrt(T.shape[2])))
        return _compile(T, np.hstack([E, tr[:, None]]), b, {}, {self.n_free: 1.0})


def _compile(T, E, b, C: dict, c: dict) -> Program:
    """Compile rows (hvec block coefficients T (m, nb, d^2), free ones E
    (m, nf)), every one a border row, and bind the rhs b and the objective
    (C {block: Hermitian matrix}, c {free index: float}).  The presolve
    reads every row's coefficients, so binding checks only b."""
    kept, weights = _presolve(np.hstack([T.reshape(len(T), -1), E]))
    st = _Structure(math.isqrt(T.shape[2]), np.zeros((0, T.shape[1])), T[kept], E.shape[1], kept, weights)
    free = np.zeros(st.nf)
    free[list(c)] = list(c.values())
    return Program(st, None, _frozen(E[kept]), None, _frozen(free)).bind(b=b, C=C)
