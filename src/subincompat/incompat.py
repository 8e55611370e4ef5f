"""Joint-measurability SDPs: the parent program (``parent_program``: PSD
blocks G_lam whose kernel-weighted sums equal given Hermitian matrices,
optionally up to depolarising noise eta), which JM, robustness, LHS
steering and coexistence all instantiate; parent-POVM feasibility,
depolarising robustness with verdict margins, the two-measurement
incompatibility witness, and the incompressibility bound."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import povm, sdp
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


def parent_program(d: int, kernel, rhs, noise=None) -> sdp.Builder:
    """The parent program: one d x d block G_lam >= 0 per kernel column
    (block index lam) and, per kernel row r,
    sum_lam kernel[r, lam] G_lam = rhs[r] + eta * noise[r].

    Rows without a nonzero kernel entry are skipped (callers give them a
    zero right-hand side).  Without noise there is
    no eta and no objective (a feasibility program).  With noise, eta is free
    variable 0, a slack block after the G blocks adds eta <= 1, and the
    objective is max eta.
    """
    kernel = np.asarray(kernel, dtype=float)
    bld = sdp.Builder()
    for _ in range(kernel.shape[1]):
        bld.cblock(d)
    if noise is not None:
        eta, slack = bld.free(), bld.rblock()
    for r, row in enumerate(kernel):
        cols = np.flatnonzero(row).tolist()
        if cols:
            free_terms = [(eta, -noise[r])] if noise is not None else ()
            bld.eq_matrix([(k, float(row[k])) for k in cols], rhs[r], free_terms=free_terms)
    if noise is not None:
        bld.eq_scalar(block_terms=[(slack, 1.0)], free_terms=[(eta, 1.0)], rhs=1.0)
        bld.objective(free_terms=[(eta, 1.0)], sense="max")
    return bld


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
    bld = parent_program(a.dim, marginal_kernel(labels, rows), rhs)
    feasible, slack, cert = bld.feasibility(options)
    parent = None
    if feasible and cert is not None:
        blocks = [bld.extract(cert, k) for k in range(len(labels))]
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
    bld = parent_program(d, marginal_kernel(labels, rows), rhs, noise)
    sol = bld.solve(options)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"robustness SDP did not solve: {sol.status} ({sol.message})")
    eta_val = float(sol.scalar_vars[0])
    blocks = [bld.extract(sol.primal_blocks, k) for k in range(len(labels))]
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
    d = a1.dim
    bld = sdp.Builder()
    xs = [bld.cblock(d) for _ in a1.elements]
    ys = [bld.cblock(d) for _ in a2.elements]
    nn = bld.cblock(d)
    ss = {}
    zero = np.zeros((d, d))
    for i in range(len(xs)):
        for j in range(len(ys)):
            s = bld.cblock(d)
            ss[i, j] = s
            bld.eq_matrix([(xs[i], 1.0), (ys[j], 1.0), (s, 1.0), (nn, -1.0)], zero)
    bld.eq_scalar(block_terms=[(nn, np.eye(d))], rhs=1.0)
    obj = [(xs[i], a1.elements[i]) for i in range(len(xs))]
    obj += [(ys[j], a2.elements[j]) for j in range(len(ys))]
    bld.objective(block_terms=obj, sense="max")
    sol = bld.solve(options)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"witness SDP did not solve: {sol.status} ({sol.message})")
    return Witness(
        X=[bld.extract(sol.primal_blocks, x) for x in xs],
        Y=[bld.extract(sol.primal_blocks, y) for y in ys],
        N=bld.extract(sol.primal_blocks, nn),
        value=float(sol.primal_value),
    )


def incompressibility_bound(d: int, n: int) -> float:
    """eta_n = (n*d - 1) / (d^2 - 1): an incompatible assemblage whose
    incompatibility vanishes on every n-dimensional subspace has
    depolarising robustness at least this value."""
    if not (isinstance(d, int) and isinstance(n, int)):
        raise TypeError("d and n must be integers")
    if not 1 < n <= d:
        raise ValueError(f"need 1 < n <= d, got n={n}, d={d}")
    return (n * d - 1) / (d * d - 1)
