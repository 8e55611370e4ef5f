"""Steering side of the subspace story: state assemblages, local-hidden-state
models (``incompat.labelled_parent`` of Bob's conditional states),
pretty-good measurements, the Choi channel, and the PPT-invariant
two-parameter family whose steerability makes its pretty-good pair an
incompressible incompatible assemblage."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import incompat, linalg, povm
from .povm import Assemblage, Povm

STATE_PSD_TOL = 1e-9
STATE_TRACE_TOL = 1e-10
SUPPORT_CUTOFF = 1e-10
PERES_SCAN_GUARD = 250_000  # grid points a step scan builds at most (step 0.002)


@dataclass(eq=False)
class BipartiteState:
    dA: int
    dB: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = linalg.as_square(self.matrix)
        if self.matrix.shape[0] != self.dA * self.dB:
            raise ValueError(
                f"matrix dimension {self.matrix.shape[0]} != dA*dB = {self.dA * self.dB}"
            )
        if linalg.min_eigenvalue(self.matrix) < -STATE_PSD_TOL:
            raise ValueError("state is not PSD")
        tr = np.trace(self.matrix).real
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"state trace {tr} != 1")

    def reduced_b(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, (self.dA, self.dB), traced_side="A")


@dataclass(eq=False)
class PeresParameters:
    m1: float
    m2: float
    m3: float
    l1: float
    l2: float
    l3: float


def assemblage_from_state(rho: BipartiteState, alice: Assemblage) -> Assemblage:
    """sigma_{a|x} = tr_A[(A_{a|x} (x) 1) rho]; every setting sums to rho_B."""
    povm.require_povms(*alice.measurements)
    if alice.dim != rho.dA:
        raise ValueError(f"alice dimension {alice.dim} != dA {rho.dA}")
    r4 = rho.matrix.reshape(rho.dA, rho.dB, rho.dA, rho.dB)
    reduced = rho.reduced_b()
    settings = []
    for x, m in enumerate(alice.measurements):
        sigmas = [linalg.hermitianize(np.einsum("ik,kjil->jl", e, r4)) for e in m.elements]
        settings.append(povm.setting(x, rho.dB, sigmas, reduced))
    return Assemblage(rho.dB, settings)


def lhs_feasible(sa: Assemblage):
    """Local-hidden-state feasibility: unsteerable iff there exist
    sigma_vec >= 0, one per deterministic strategy (an outcome per setting),
    with sum_{vec: vec_x = a} sigma_vec = sigma_{a|x}; no-signalling makes
    sum_vec sigma_vec the reduced state.  Strategies naming a zero
    sigma_{a|x} are left out.

    Returns (unsteerable, model): the model lists (strategy, local hidden
    state) pairs when one exists.  Only the verdict is asked for, so the
    solve stops at its first certificate: a model whose marginals are met
    and whose states are PSD up to -1e-7, or a dual iterate (a steering
    witness) bounding the optimal slack below -1e-7.  ``lhs_slack`` solves
    to optimality.
    """
    feasible, _, strategies, states = incompat.labelled_parent(sa.dim, sa.settings(), decide=True)
    return feasible, None if states is None else list(zip(strategies, states))


def lhs_slack(sa: Assemblage) -> float:
    """Optimal uniform slack of the local-hidden-state SDP; negative beyond
    tolerance certifies steerability (used for scan certificates)."""
    return incompat.labelled_parent(sa.dim, sa.settings())[1]


def _support_isqrt(reduced: np.ndarray):
    """Eigenbasis of the reduced state restricted to its support, with the
    inverse square root of the eigenvalues (cutoff 1e-10)."""
    vals, vecs = linalg.eig_hermitian(reduced)
    keep = vals > SUPPORT_CUTOFF
    r = int(keep.sum())
    if r == 0:
        raise ValueError("reduced state has empty support")
    v = vecs[:, :r]
    isq = 1.0 / np.sqrt(vals[:r])
    return v, isq, r


def pretty_good(sa: Assemblage) -> Assemblage:
    """Pretty-good measurements reduced^(-1/2) sigma_{a|x} reduced^(-1/2),
    inverted on the support of the reduced state; the output lives in the
    support's eigenbasis and is jointly measurable iff the assemblage is
    unsteerable."""
    if sa.total is None:
        raise ValueError("pretty-good measurements need a state assemblage, not POVMs")
    v, isq, r = _support_isqrt(sa.total)
    w = v * isq  # columns scaled: W = V diag(1/sqrt(vals))
    return Assemblage(r, [Povm(r, linalg.compress(row, w)) for row in sa.settings()])


def choi_apply(rho: BipartiteState, alice: Assemblage) -> Assemblage:
    """The channel induced by the state:
    Lambda(A) = reduced^(-1/2) tr_A[(A (x) 1) rho]^T reduced^(-1/2),
    with the transpose taken in the eigenbasis of the reduced state and the
    inverse on its support.  Identity-preserving on the support.  That is
    the transpose of each pretty-good measurement element, for Hermitian
    elements their entrywise conjugate."""
    pg = pretty_good(assemblage_from_state(rho, alice))
    # conj turns a +0 imaginary part into -0; adding 0.0 gives +0 back, so reports print 0.0
    return Assemblage(pg.dim, [Povm(pg.dim, np.conj(m.elements) + 0.0) for m in pg.measurements])


def filter_bob(rho: BipartiteState) -> tuple[BipartiteState, int]:
    """Filter Bob's side with reduced^(-1/2) (on the support) and normalise
    by the support dimension.  The result's Bob marginal is maximally mixed,
    so performing Alice's measurements on it yields the pretty-good
    measurements divided by the support dimension."""
    v, isq, r = _support_isqrt(rho.reduced_b())
    filt = linalg.compress(rho.matrix, np.kron(np.eye(rho.dA), v * isq))
    return BipartiteState(rho.dA, r, filt / r), r


def truncate_bob(rho: BipartiteState, p: linalg.Projector):
    """Filter Bob's side through a subspace: (1 (x) K†) rho (1 (x) K) with
    K the subspace basis.  Returns (normalised BipartiteState on dA*rank,
    trace of the unnormalised filtered operator)."""
    if p.dim != rho.dB:
        raise ValueError("projector dimension must match dB")
    filt = linalg.compress(rho.matrix, np.kron(np.eye(rho.dA), p.basis))
    tr = np.trace(filt).real
    if tr <= 0:
        raise ValueError("filtered state has nonpositive trace")
    return BipartiteState(rho.dA, p.rank, filt / tr), tr


def peres_state(m1: float, m2: float) -> tuple[BipartiteState, PeresParameters]:
    """Two-parameter 3x3 family invariant under partial transposition on
    Alice's side.

    |psi1> = (|12>+|21>)/sqrt(2), |psi2> = (|00>+|11>-|22>)/sqrt(3),
    |psi3> = m1|01>+m2|10>+m3(|11>+|22>), |psi3~> = m1|02>-m2|20>+m3(|21>-|12>)
    with m3 = sqrt((1-m1^2-m2^2)/2), mixed with weights
    l3 = 1/den, l1 = 1-(2+3 m1 m2)/den, l2 = 1-l1-2 l3,
    den = 4-2 m1^2+m1 m2-2 m2^2.  Raises on non-finite parameters and on
    parameters outside the admissible region, naming the violated quantity.
    """
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ValueError(f"m1 and m2 must be finite, got ({m1}, {m2})")
    m3sq = (1.0 - m1 * m1 - m2 * m2) / 2.0
    if m3sq < -1e-12:
        raise ValueError(f"normalisation violated: m3^2 = {m3sq:.6f} < 0")
    m3 = np.sqrt(max(m3sq, 0.0))
    den = 4.0 - 2.0 * m1 * m1 + m1 * m2 - 2.0 * m2 * m2
    l3 = 1.0 / den
    l1 = 1.0 - (2.0 + 3.0 * m1 * m2) / den
    l2 = 1.0 - l1 - 2.0 * l3
    for name, val in (("lambda1", l1), ("lambda2", l2), ("lambda3", l3)):
        if val < -1e-12:
            raise ValueError(f"positivity violated: {name} = {val:.6f} < 0")

    def ket(a, b):
        v = np.zeros(9, dtype=complex)
        v[3 * a + b] = 1.0
        return v

    psi1 = (ket(1, 2) + ket(2, 1)) / np.sqrt(2)
    psi2 = (ket(0, 0) + ket(1, 1) - ket(2, 2)) / np.sqrt(3)
    psi3 = m1 * ket(0, 1) + m2 * ket(1, 0) + m3 * (ket(1, 1) + ket(2, 2))
    psi3t = m1 * ket(0, 2) - m2 * ket(2, 0) + m3 * (ket(2, 1) - ket(1, 2))

    def proj(v):
        return np.outer(v, v.conj())

    rho = (
        max(l1, 0.0) * proj(psi1)
        + max(l2, 0.0) * proj(psi2)
        + max(l3, 0.0) * (proj(psi3) + proj(psi3t))
    )
    rho /= np.trace(rho).real
    return (
        BipartiteState(3, 3, linalg.hermitianize(rho)),
        PeresParameters(m1, m2, float(m3), float(l1), float(l2), float(l3)),
    )


def peres_mubs() -> Assemblage:
    """The fixed pair of mutually unbiased qutrit bases measured by Alice."""
    w = np.exp(2j * np.pi / 3)
    b1 = [
        np.array([1 / np.sqrt(3), -1 / np.sqrt(6), 1 / np.sqrt(2)], dtype=complex),
        np.array([1 / np.sqrt(3), -1 / np.sqrt(6), -1 / np.sqrt(2)], dtype=complex),
        np.array([1 / np.sqrt(3), np.sqrt(2.0 / 3.0), 0], dtype=complex),
    ]
    b2 = [
        np.array([1, 0, 0], dtype=complex),
        np.array([0, w / np.sqrt(2), 1j * w / np.sqrt(2)], dtype=complex),
        np.array([0, w.conjugate() / np.sqrt(2), -1j * w.conjugate() / np.sqrt(2)], dtype=complex),
    ]
    return Assemblage(3, [povm.from_basis(b1), povm.from_basis(b2)])


@dataclass(eq=False)
class ScanPoint:
    m1: float
    m2: float
    admissible: bool
    steerable: bool | None = None
    params: PeresParameters | None = None
    reason: str = ""


def peres_scan(grid) -> list[ScanPoint]:
    """Scan (m1, m2) over a grid, testing each admissible point's assemblage
    for steerability under the fixed MUB measurements.

    grid: a float step (full [0,1)^2 lattice at that spacing) or an iterable
    of (m1, m2) pairs.  A step's point count, ceil(1/step)^2 as np.arange
    counts it, is checked against PERES_SCAN_GUARD before anything is
    built.  Raises when no grid point is admissible.
    """
    if isinstance(grid, (int, float)):
        step = float(grid)
        if not 0 < step < 1:
            raise ValueError("grid step must lie in (0, 1)")
        count = math.ceil(1.0 / step) ** 2
        if count > PERES_SCAN_GUARD:
            raise ValueError(f"grid point count {count} exceeds guard {PERES_SCAN_GUARD}; "
                             "the count grows as 1/step^2")
        vals = np.arange(0.0, 1.0, step)
        points = [(float(u), float(v)) for u in vals for v in vals]
    else:
        points = [(float(u), float(v)) for u, v in grid]
    mubs = peres_mubs()
    out = []
    n_adm = 0
    for u, v in points:
        try:
            rho, params = peres_state(u, v)
        except ValueError as exc:
            out.append(ScanPoint(u, v, False, reason=str(exc)))
            continue
        n_adm += 1
        sa = assemblage_from_state(rho, mubs)
        unsteerable, _ = lhs_feasible(sa)
        out.append(ScanPoint(u, v, True, steerable=not unsteerable, params=params))
    if n_adm == 0:
        raise ValueError("no admissible grid point")
    return out
