"""Joint-measurability SDPs: the parent program (``parent_program``: PSD
blocks G_lam whose kernel-weighted sums equal given Hermitian matrices,
optionally up to depolarising noise eta <= 1, held by a d x d trace
slack), which JM, robustness, LHS steering and coexistence all
instantiate; parent-POVM feasibility, depolarising robustness with verdict
margins, the two-measurement incompatibility witness, and the
incompressibility bound."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, povm, sdp
from .povm import Assemblage, ParentPovm, Povm

JOINT_OUTCOME_GUARD = 4096
COMPATIBLE_MARGIN = 1e-6
INCOMPATIBLE_MARGIN = 1e-3

VERDICT_COMPATIBLE = "Compatible"
VERDICT_INCOMPATIBLE = "Incompatible"
VERDICT_INDETERMINATE = "Indeterminate"


@dataclass(eq=False)
class JmResult:
    feasible: bool
    slack: float
    parent: ParentPovm | None


@dataclass(eq=False)
class RobustnessResult:
    eta: float
    parent: ParentPovm | None
    verdict: str
    solution: sdp.SdpSolution | None = None


@dataclass(eq=False)
class Witness:
    X: list[np.ndarray]
    Y: list[np.ndarray]
    N: np.ndarray
    value: float


def verdict_from_eta(eta: float) -> str:
    if eta >= 1.0 - COMPATIBLE_MARGIN:
        return VERDICT_COMPATIBLE
    if eta <= 1.0 - INCOMPATIBLE_MARGIN:
        return VERDICT_INCOMPATIBLE
    return VERDICT_INDETERMINATE


def _joint_labels(a: Assemblage) -> list[tuple[int, ...]]:
    """Joint outcome labels, restricted to nonzero elements per setting.

    A zero element forces its parent marginal to vanish, so dropping its
    labels changes nothing while keeping the SDP strictly feasible inside.
    """
    per_setting = []
    for m in a.measurements:
        keep = [i for i in range(m.n_outcomes) if not m.is_zero_element(i)]
        per_setting.append(keep)
    count = 1
    for keep in per_setting:
        count *= len(keep)
    if count > JOINT_OUTCOME_GUARD:
        raise ValueError(
            f"joint outcome count {count} exceeds guard {JOINT_OUTCOME_GUARD}; "
            "problem size is exponential in the number of settings"
        )
    return list(itertools.product(*per_setting))


def _parent_from_blocks(a: Assemblage, labels, blocks) -> ParentPovm:
    """Assemble a repaired ParentPovm over the full label product,
    reinserting zero blocks for dropped labels."""
    d = a.dim
    got = dict(zip(labels, povm.repair(blocks)))
    full = list(itertools.product(*[range(m.n_outcomes) for m in a.measurements]))
    els = [got[lab] if lab in got else np.zeros((d, d), dtype=complex) for lab in full]
    return ParentPovm(d, full, els, tuple(m.n_outcomes for m in a.measurements))


@lru_cache(maxsize=32)
def _parent_structure(d: int, shape: tuple, kernel_bytes: bytes, kind: str) -> sdp.Program:
    """The parent program of (d, kernel, kind) compiled straight from the
    kernel and bound to zero data.  With noise, the d x d slack S is a zero
    kernel column after the G blocks and eta + tr S = 1 the one border row:
    tr S ranges over [0, inf) as a scalar slack would, so it says eta <= 1,
    and every block keeps dimension d.  The feasibility program's slack t
    shifts every block by t*I, the free column (kernel . 1) (x) hvec(I)."""
    kernel = np.frombuffer(kernel_bytes).reshape(shape)
    n = d * d
    eye = sdp.hvec(np.eye(d))
    if kind == "noise":
        border = np.zeros((1, shape[1] + 1, n))
        border[0, -1] = eye
        E = np.zeros((shape[0] * n + 1, 1))
        E[-1] = 1.0
        return sdp.compile_kernel(d, np.hstack([kernel, np.zeros((shape[0], 1))]), border, E, [1.0])
    if kind == "feasibility":
        sums = [sum(row.tolist()) for row in kernel]  # summed left to right, as a row's trace
        return sdp.compile_kernel(d, kernel, E=np.kron(sums, eye)[:, None] + 0.0, c=[1.0])
    return sdp.compile_kernel(d, kernel)


def parent_program(d: int, kernel, rhs, noise=None, objective=None) -> sdp.Program:
    """The parent program: one d x d block G_lam >= 0 per kernel column
    (block index lam) and, per kernel row r,
    sum_lam kernel[r, lam] G_lam = rhs[r] + eta * noise[r].

    With noise, eta is free variable 0, a d x d slack block S after the G
    blocks adds eta + tr S = 1 (that is, eta <= 1), and the objective is
    max eta; noise must obey the kernel's row relations (depolarising noise
    does).  With an objective {lam: Hermitian matrix}, the program
    maximises sum_lam <objective[lam], G_lam>.  With neither it is the
    feasibility program, as ``sdp.with_slack`` writes it, to be answered by
    ``sdp.feasibility``.

    The structure, everything that depends only on (d, kernel, kind), is
    compiled once and cached; a call binds its data to it, and
    ``Program.bind`` checks that the kernel rows the structure leaves out
    (rows that combine earlier rows, and rows without a nonzero entry; for
    marginal kernels one outcome row per setting after the first, and an
    all-ones row) still match.
    """
    kernel = np.ascontiguousarray(kernel, dtype=float)
    kind = "noise" if noise is not None else "objective" if objective is not None else "feasibility"
    prog = _parent_structure(d, kernel.shape, kernel.tobytes(), kind)

    def coords(mats):
        out = []
        for m in mats:
            t = linalg.check_hermitian(m, tol=1e-9)
            if t.shape != (d, d):
                raise ValueError("block dimension mismatch in matrix equality")
            out.append(sdp.hvec(t))
        return np.array(out).reshape(len(kernel) * d * d)

    b = coords(rhs)
    if kind == "noise":
        N = coords([-x for x in noise]) + 0.0  # a zero coefficient is +0, as in the Builder's rows
        return prog.bind(b=np.append(b, 1.0), E=np.append(N, 1.0).reshape(-1, 1))
    if kind == "objective":
        return prog.bind(b=b, C=dict(objective))
    return prog.bind(b=b)


def marginal_kernel(labels, rows) -> np.ndarray:
    """Deterministic post-processing: row (x, a) weighs label lam by [lam_x = a]."""
    k = [[float(lab[x] == a) for lab in labels] for x, a in rows]
    return np.array(k).reshape(len(rows), len(labels))


def _outcome_rows(a: Assemblage) -> list[tuple[int, int]]:
    """(setting, outcome) pairs of the nonzero elements, in order."""
    return [(x, out) for x, m in enumerate(a.measurements)
            for out in range(m.n_outcomes) if not m.is_zero_element(out)]


def jm_parent(a: Assemblage, options: sdp.SolveOptions | None = None) -> JmResult:
    """Decide joint measurability by parent-POVM feasibility."""
    labels = _joint_labels(a)
    rows = _outcome_rows(a)
    rhs = [a.measurements[x].elements[out] for x, out in rows]
    prog = parent_program(a.dim, marginal_kernel(labels, rows), rhs)
    feasible, slack, cert = sdp.feasibility(prog, options)
    parent = None
    if feasible and cert is not None:
        blocks = [linalg.hermitianize(g) for g in cert[:len(labels)]]
        parent = _parent_from_blocks(a, labels, blocks)
    return JmResult(feasible, slack, parent)


def depolarising_robustness(
    a: Assemblage, options: sdp.SolveOptions | None = None
) -> RobustnessResult:
    """Largest eta <= 1 such that the depolarised assemblage
    eta*M + (1-eta)*tr(M)*1/d is jointly measurable.

    The returned parent is a parent POVM for the assemblage depolarised at
    the optimal eta (for a compatible assemblage, the assemblage itself).
    """
    labels = _joint_labels(a)
    rows = _outcome_rows(a)
    d = a.dim
    rhs, noise = [], []
    for x, out in rows:  # sum G = t*1 + eta*(E - t*1) with t = tr(E)/d
        e = a.measurements[x].elements[out]
        t = np.trace(e).real / d
        rhs.append(t * np.eye(d))
        noise.append(e - t * np.eye(d))
    sol = sdp.solve(parent_program(d, marginal_kernel(labels, rows), rhs, noise), options)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"robustness SDP did not solve: {sol.status} ({sol.message})")
    eta_val = float(sol.scalar_vars[0])
    blocks = [linalg.hermitianize(g) for g in sol.primal_blocks[:len(labels)]]
    parent = _parent_from_blocks(a, labels, blocks)
    return RobustnessResult(eta_val, parent, verdict_from_eta(eta_val), sol)


def witness(
    a1: Povm, a2: Povm, options: sdp.SolveOptions | None = None
) -> Witness:
    """Incompatibility witness for a pair of POVMs.

    max sum_i tr(X_i A_i) + sum_j tr(Y_j B_j)  over  X_i >= 0, Y_j >= 0,
    X_i + Y_j <= N for all i,j, tr N = 1.  The value is 1 exactly when the
    pair is compatible and exceeds 1 otherwise.
    """
    if a1.dim != a2.dim:
        raise ValueError("witness requires POVMs on the same space")
    na, nb = len(a1.elements), len(a2.elements)
    obj = dict(enumerate(a1.elements + a2.elements))
    sol = sdp.solve(_witness_structure(a1.dim, na, nb).bind(C=obj), options)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"witness SDP did not solve: {sol.status} ({sol.message})")
    blocks = [linalg.hermitianize(x) for x in sol.primal_blocks[:na + nb + 1]]
    return Witness(X=blocks[:na], Y=blocks[na:na + nb], N=blocks[-1], value=float(sol.primal_value))


@lru_cache(maxsize=8)
def _witness_structure(d: int, na: int, nb: int) -> sdp.Program:
    """The witness program for na and nb outcomes, compiled with a zero
    objective: blocks X_0..X_na-1, Y_0..Y_nb-1, N, then the slacks S_ij;
    kernel rows X_i + Y_j + S_ij - N = 0 and the border row tr N = 1."""
    n_blocks = na + nb + 1 + na * nb
    kernel = np.zeros((na * nb, n_blocks))
    for r, (i, j) in enumerate(itertools.product(range(na), range(nb))):
        kernel[r, [i, na + j, na + nb + 1 + r]] = 1.0
        kernel[r, na + nb] = -1.0
    border = np.zeros((1, n_blocks, d * d))
    border[0, na + nb] = sdp.hvec(np.eye(d))
    prog = sdp.compile_kernel(d, kernel, border)
    return prog.bind(b=np.append(np.zeros(na * nb * d * d), 1.0))


def incompressibility_bound(d: int, n: int) -> float:
    """eta_n = (n*d - 1) / (d^2 - 1): an incompatible assemblage whose
    incompatibility vanishes on every n-dimensional subspace has
    depolarising robustness at least this value."""
    if not (isinstance(d, int) and isinstance(n, int)):
        raise TypeError("d and n must be integers")
    if not 1 < n <= d:
        raise ValueError(f"need 1 < n <= d, got n={n}, d={d}")
    return (n * d - 1) / (d * d - 1)
