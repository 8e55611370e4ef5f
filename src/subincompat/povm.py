"""POVMs and state assemblages, one type, and the operations performed on
them: truncation to subspaces, coarse-graining and depolarising noise, and
the canonical subsets that index binarisations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg

ELEMENT_PSD_TOL = 1e-9
NORMALISATION_TOL = 1e-9
ZERO_ELEMENT_TOL = 1e-12


@dataclass(eq=False)
class Povm:
    """One setting: outcome-indexed PSD operators summing to ``total``, the
    identity when it is None (a POVM)."""

    dim: int
    elements: list[np.ndarray]
    total: np.ndarray | None = None

    def __post_init__(self):
        """Shapes are checked per element; then the elements, as one (n, d, d)
        stack, get one Hermitian check and one eigvalsh.  The elements are
        kept as views of that stack."""
        els = [linalg.as_square(e) for e in self.elements]
        for k, e in enumerate(els):
            if e.shape[0] != self.dim:
                raise ValueError(f"element {k} has dimension {e.shape[0]} != {self.dim}")
        stack = np.array(els).reshape(len(els), self.dim, self.dim)
        lam = linalg.min_eigenvalue(stack)
        bad = np.flatnonzero(lam < -ELEMENT_PSD_TOL)
        if bad.size:
            raise ValueError(f"element {bad[0]} is not PSD (min eig {lam[bad[0]]:.2e})")
        target = np.eye(self.dim) if self.total is None else linalg.check_hermitian(self.total)
        if target.shape[0] != self.dim:
            raise ValueError(f"total has dimension {target.shape[0]} != {self.dim}")
        dev = np.abs(stack.sum(axis=0) - target).max()
        if dev > NORMALISATION_TOL:
            what = "identity" if self.total is None else "the total"
            raise ValueError(f"elements sum to {what} only within {dev:.2e}")
        self.elements = list(stack)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def setting(x: int, dim: int, elements, total=None) -> Povm:
    """``Povm(dim, elements, total)``, a rejection prefixed with setting x."""
    try:
        return Povm(dim, elements, total)
    except ValueError as exc:
        raise ValueError(f"setting {x}: {exc}") from None


def require_povms(*settings: Povm) -> None:
    """Refuse a state assemblage's settings: the callers return parent POVMs."""
    if any(m.total is not None for m in settings):
        raise ValueError("this analysis needs POVMs, not the settings of a state assemblage")


def nonzero_outcomes(stack) -> list[int]:
    """The indices of the matrices of a stack (a setting's elements) with an
    entry of modulus at least ZERO_ELEMENT_TOL."""
    nonzero = np.abs(np.asarray(stack)).max(axis=(1, 2)) >= ZERO_ELEMENT_TOL
    return np.flatnonzero(nonzero).tolist()


@dataclass(eq=False)
class Assemblage:
    """Settings x on one Hilbert space with one ``total``: None (the identity)
    for POVMs, Bob's reduced state for a state assemblage's sigma_{a|x}."""

    dim: int
    measurements: list[Povm]

    def __post_init__(self):
        if not self.measurements:
            raise ValueError("an assemblage needs at least one setting, got none")
        for x, m in enumerate(self.measurements):
            if m.dim != self.dim:
                raise ValueError(f"setting {x} dimension {m.dim} != {self.dim}")
            if m.total is not self.total and not np.array_equal(m.total, self.total):
                raise ValueError(f"setting {x} has a total other than setting 0's")

    @property
    def total(self) -> np.ndarray | None:
        return self.measurements[0].total

    @property
    def n_settings(self) -> int:
        return len(self.measurements)

    def settings(self) -> list[list[np.ndarray]]:
        """The element stack of every setting."""
        return [m.elements for m in self.measurements]

    def outcome_counts(self) -> tuple[int, ...]:
        return tuple(m.n_outcomes for m in self.measurements)


@dataclass(eq=False)
class ParentPovm:
    """POVM over joint outcome labels \\vec a, one index per setting."""

    dim: int
    outcome_labels: list[tuple[int, ...]]
    elements: list[np.ndarray]
    outcome_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.outcome_labels) != len(self.elements):
            raise ValueError("labels/elements length mismatch")
        self.elements = Povm(self.dim, self.elements).elements  # povm invariants

    def marginal(self, x: int) -> Povm:
        """Sum over all-but-one label index; reproduces measurement x."""
        els = [np.zeros((self.dim, self.dim), dtype=complex) for _ in range(self.outcome_counts[x])]
        for lab, g in zip(self.outcome_labels, self.elements):
            els[lab[x]] += g
        return Povm(self.dim, els)


def truncate(a: Assemblage, p: linalg.Projector) -> Assemblage:
    """Conjugate every element and the total by the projector; re-read on its range.

    Output lives in dimension p.rank, expressed in the orthonormal basis
    p.basis; per setting the truncated elements again sum to the truncated
    total.  Zero elements are retained with their labels.
    """
    if p.dim != a.dim:
        raise ValueError(f"projector dimension {p.dim} != assemblage dimension {a.dim}")
    total = None if a.total is None else linalg.compress(a.total, p.basis)
    return Assemblage(p.rank, [Povm(p.rank, linalg.compress(m.elements, p.basis), total)
                               for m in a.measurements])


def canonical_subsets(m: int) -> list[tuple[int, ...]]:
    """Nonempty proper subsets of range(m) containing outcome 0, one per
    complementary pair; ordered by size then lexicographically."""
    out = []
    for r in range(0, m - 1):
        for rest in itertools.combinations(range(1, m), r):
            out.append((0,) + rest)
    return out


def coarse_grain(m: Povm, partition) -> Povm:
    """Merge outcomes by summing over the cells of a partition."""
    cells = [tuple(c) for c in partition]
    seen = sorted(i for c in cells for i in c)
    if seen != list(range(m.n_outcomes)):
        raise ValueError(f"partition {cells} does not cover outcomes 0..{m.n_outcomes - 1} exactly once")
    els = [sum(m.elements[i] for i in c) for c in cells]
    return Povm(m.dim, els)


def noise(stack, total=None) -> np.ndarray:
    """tr(E) * total / tr(total) for every matrix E of an (n, d, d) stack:
    depolarising noise, tr(E) * 1/d for POVM elements (total None, the
    identity) and tr(sigma) * rho_B for conditional states."""
    es = np.asarray(stack)
    t = np.eye(es.shape[-1]) if total is None else total
    return (np.trace(es, axis1=1, axis2=2).real / np.trace(t).real)[:, None, None] * t


def depolarise(a: Assemblage, eta: float) -> Assemblage:
    """Mix every element with its noise (``noise``) at weight 1 - eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    out = []
    for m in a.measurements:
        els = [eta * e + (1 - eta) * n for e, n in zip(m.elements, noise(m.elements, m.total))]
        out.append(Povm(a.dim, els, m.total))
    return Assemblage(a.dim, out)


def from_basis(vectors) -> Povm:
    """Rank-one PVM from an orthonormal basis."""
    b = linalg.orthonormal_columns(vectors)
    d, n = b.shape
    if n != d:
        raise ValueError(f"need {d} vectors for a basis, got {n}")
    return Povm(d, [np.outer(v, v.conj()) for v in b.T])


def renormalise(elements) -> np.ndarray:
    """S^(-1/2) E S^(-1/2) for every element E of a stack (or list), with S
    the elements' sum (its eigenvalues floored at 1e-14): the result, an
    (n, d, d) stack, sums to the identity."""
    es = np.asarray(elements, dtype=complex)
    vals, vecs = np.linalg.eigh(es.sum(axis=0, initial=0))  # summed as sum() does, from 0
    isq = vecs @ np.diag(1.0 / np.sqrt(np.clip(vals, 1e-14, None))) @ vecs.conj().T
    return linalg.hermitianize(isq @ es @ isq)


def repair(elements) -> np.ndarray:
    """Make solver output a POVM: clip each element's negative eigenvalues
    to zero (one stacked eigh), then renormalise so the elements sum to the
    identity.  Returns an (n, d, d) stack."""
    es = np.asarray(elements, dtype=complex)
    vals, vecs = np.linalg.eigh(es)
    # the clipped eigenvalues as diagonal matrices, so each product is the
    # matrix product V diag(w) V^H, rounded as for one matrix
    diag = np.zeros_like(es)
    k = np.arange(es.shape[-1])
    diag[:, k, k] = np.clip(vals, 0.0, None)
    return renormalise(vecs @ diag @ vecs.conj().swapaxes(-1, -2))


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random POVM: Ginibre blocks G_i = W_i W_i† renormalised by S^(-1/2)."""
    gs = []
    for _ in range(n_outcomes):
        w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gs.append(w @ w.conj().T)
    return Povm(d, renormalise(gs))
