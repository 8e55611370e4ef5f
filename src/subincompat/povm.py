"""POVMs, assemblages and the operations performed on them: truncation to
subspaces, coarse-graining and depolarising noise, and the canonical
subsets that index binarisations."""

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
    """Outcome-indexed PSD operators summing to the identity."""

    dim: int
    elements: list[np.ndarray]

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
        dev = np.abs(stack.sum(axis=0) - np.eye(self.dim)).max()
        if dev > NORMALISATION_TOL:
            raise ValueError(f"elements sum to identity only within {dev:.2e}")
        self.elements = list(stack)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def nonzero_outcomes(stack) -> list[int]:
    """The indices of the matrices of a stack (a POVM's elements, a setting's
    conditional states) with an entry of modulus at least ZERO_ELEMENT_TOL."""
    nonzero = np.abs(np.asarray(stack)).max(axis=(1, 2)) >= ZERO_ELEMENT_TOL
    return np.flatnonzero(nonzero).tolist()


@dataclass(eq=False)
class Assemblage:
    """A finite family of POVMs on one Hilbert space (settings x)."""

    dim: int
    measurements: list[Povm]

    def __post_init__(self):
        if not self.measurements:
            raise ValueError("an assemblage needs at least one measurement, got none")
        for x, m in enumerate(self.measurements):
            if m.dim != self.dim:
                raise ValueError(f"measurement {x} dimension {m.dim} != {self.dim}")

    @property
    def n_settings(self) -> int:
        return len(self.measurements)

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
    """Conjugate every element by the projector and re-read on its range.

    Output lives in dimension p.rank, expressed in the orthonormal basis
    p.basis; per measurement the truncated elements again sum to the
    subspace identity.  Zero elements are retained with their labels.
    """
    if p.dim != a.dim:
        raise ValueError(f"projector dimension {p.dim} != assemblage dimension {a.dim}")
    if p.rank < 1:
        raise ValueError("projector has rank 0")
    b = p.basis
    bh = b.conj().T
    out = [Povm(p.rank, linalg.hermitianize(bh @ np.array(m.elements) @ b)) for m in a.measurements]
    return Assemblage(p.rank, out)


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


def depolarise(a: Assemblage, eta: float) -> Assemblage:
    """Mix every element with tr(E) * identity / d at weight 1 - eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    d = a.dim
    eye = np.eye(d)
    out = []
    for m in a.measurements:
        els = [eta * e + (1 - eta) * (np.trace(e).real / d) * eye for e in m.elements]
        out.append(Povm(d, els))
    return Assemblage(d, out)


def from_basis(vectors) -> Povm:
    """Rank-one PVM from an orthonormal basis."""
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    d = vs[0].size
    if len(vs) != d:
        raise ValueError(f"need {d} vectors for a basis, got {len(vs)}")
    gram = np.array([[np.vdot(u, v) for v in vs] for u in vs])
    if np.abs(gram - np.eye(d)).max() > 1e-10:
        raise ValueError("vectors are not orthonormal")
    return Povm(d, [np.outer(v, v.conj()) for v in vs])


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
