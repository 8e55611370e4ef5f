"""Joint-measurability SDPs: the parent program (``parent_program``: PSD
blocks G_lam whose kernel-weighted sums equal given Hermitian matrices,
optionally up to depolarising noise eta <= 1, held by a d x d trace
slack), which JM, robustness, LHS steering and coexistence all
instantiate; the labelled-parent decision behind JM and LHS models,
depolarising robustness with verdict margins, the two-measurement
incompatibility witness, and the incompressibility bound."""

from __future__ import annotations

import itertools
import math
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


def joint_labels(per_setting) -> list[tuple[int, ...]]:
    """The product of the per-setting outcome lists, its count checked
    against JOINT_OUTCOME_GUARD before anything is enumerated."""
    count = math.prod(len(outs) for outs in per_setting)
    if count > JOINT_OUTCOME_GUARD:
        raise ValueError(
            f"joint outcome count {count} exceeds guard {JOINT_OUTCOME_GUARD}; "
            "problem size is exponential in the number of settings"
        )
    return list(itertools.product(*per_setting))


def _joint_labels(settings) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Joint labels over one stack of d x d matrices per setting, restricted
    to the nonzero ones, and the (setting, outcome) pairs of those, in order.

    A zero matrix forces its parent marginal to vanish, so dropping its
    labels changes nothing while keeping the SDP strictly feasible inside.
    """
    per_setting = [povm.nonzero_outcomes(s) for s in settings]
    rows = [(x, out) for x, keep in enumerate(per_setting) for out in keep]
    return joint_labels(per_setting), rows


def _parent_from_blocks(a: Assemblage, labels, blocks) -> ParentPovm:
    """Assemble a repaired ParentPovm over the full label product,
    reinserting zero blocks for dropped labels."""
    counts = a.outcome_counts()
    full = list(itertools.product(*[range(k) for k in counts]))
    els = np.zeros((len(full), a.dim, a.dim), dtype=complex)
    els[np.ravel_multi_index(np.array(labels).T, counts)] = povm.repair(blocks)
    return ParentPovm(a.dim, full, els, counts)


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
    marginal kernels one outcome row per setting after the first) still
    match.
    """
    kernel = np.ascontiguousarray(kernel, dtype=float)
    kind = "noise" if noise is not None else "objective" if objective is not None else "feasibility"
    prog = _parent_structure(d, kernel.shape, kernel.tobytes(), kind)

    def coords(mats):
        t = np.asarray(mats, dtype=complex)
        if t.shape[1:] != (d, d):
            raise ValueError("block dimension mismatch in matrix equality")
        rows = linalg.check_hermitian_stack(t, tol=1e-9).view(float).reshape(len(t), 1, 2 * d * d)
        # hvec as one row product per matrix, as sdp.hvec takes a single
        # matrix's: one product over the whole stack rounds differently
        return (rows @ sdp._hvec_rows(d).T).reshape(len(kernel) * d * d)

    b = coords(rhs)
    if kind == "noise":
        N = coords(-np.asarray(noise)) + 0.0  # a zero coefficient is +0, as in the Builder's rows
        return prog.bind(b=np.append(b, 1.0), E=np.append(N, 1.0).reshape(-1, 1))
    if kind == "objective":
        return prog.bind(b=b, C=dict(objective))
    return prog.bind(b=b)


def marginal_kernel(labels, rows) -> np.ndarray:
    """Deterministic post-processing: row (x, a) weighs label lam by [lam_x = a]."""
    k = [[float(lab[x] == a) for lab in labels] for x, a in rows]
    return np.array(k).reshape(len(rows), len(labels))


def labelled_parent(d: int, settings):
    """Feasibility of PSD blocks G_lam, one per joint label, with marginals
    sum_{lam: lam_x = a} G_lam = settings[x][a]: JM for POVM elements, an
    LHS model (labels: Alice's deterministic strategies) for conditional
    states.  Returns (feasible, slack, labels, blocks), the Hermitian
    certificate blocks in label order when feasible, else None."""
    labels, rows = _joint_labels(settings)
    rhs = [settings[x][a] for x, a in rows]
    feasible, slack, cert = sdp.feasibility(parent_program(d, marginal_kernel(labels, rows), rhs))
    blocks = linalg.hermitianize(cert) if feasible else None
    return feasible, slack, labels, blocks


def jm_parent(a: Assemblage) -> JmResult:
    """Decide joint measurability by parent-POVM feasibility."""
    feasible, slack, labels, blocks = labelled_parent(a.dim, [m.elements for m in a.measurements])
    parent = None if blocks is None else _parent_from_blocks(a, labels, blocks)
    return JmResult(feasible, slack, parent)


def depolarising_robustness(a: Assemblage) -> RobustnessResult:
    """Largest eta <= 1 such that the depolarised assemblage
    eta*M + (1-eta)*tr(M)*1/d is jointly measurable.

    The returned parent is a parent POVM for the assemblage depolarised at
    the optimal eta (for a compatible assemblage, the assemblage itself).
    """
    labels, rows = _joint_labels([m.elements for m in a.measurements])
    d = a.dim
    # sum G = t*1 + eta*(E - t*1) with t = tr(E)/d, per row
    els = np.array([a.measurements[x].elements[out] for x, out in rows])
    rhs = (np.trace(els, axis1=1, axis2=2).real / d)[:, None, None] * np.eye(d)
    sol = sdp.solve(parent_program(d, marginal_kernel(labels, rows), rhs, els - rhs))
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"robustness SDP did not solve: {sol.status} ({sol.message})")
    eta_val = float(sol.scalar_vars[0])
    parent = _parent_from_blocks(a, labels, linalg.hermitianize(sol.primal_blocks[:len(labels)]))
    return RobustnessResult(eta_val, parent, verdict_from_eta(eta_val), sol)


def witness(a1: Povm, a2: Povm) -> Witness:
    """Incompatibility witness for a pair of POVMs.

    max sum_i tr(X_i A_i) + sum_j tr(Y_j B_j)  over  X_i >= 0, Y_j >= 0,
    X_i + Y_j <= N for all i,j, tr N = 1.  The value is 1 exactly when the
    pair is compatible and exceeds 1 otherwise.
    """
    if a1.dim != a2.dim:
        raise ValueError("witness requires POVMs on the same space")
    na, nb = len(a1.elements), len(a2.elements)
    obj = dict(enumerate(a1.elements + a2.elements))
    sol = sdp.solve(_witness_structure(a1.dim, na, nb).bind(C=obj))
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"witness SDP did not solve: {sol.status} ({sol.message})")
    blocks = list(linalg.hermitianize(sol.primal_blocks[:na + nb + 1]))
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
