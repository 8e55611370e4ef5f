"""Coexistence: joint measurability of all binarisations through one parent
with complement-respecting deterministic post-processings, the seesaw search
for coexistent-but-incompatible pairs, and the qubit counterexample obtained
by truncating a qutrit pair."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import incompat, linalg, povm, sdp
from .povm import Assemblage, ParentPovm, Povm, canonical_subsets, random_povm

log = logging.getLogger(__name__)

LABELING_GUARD = 4096
WITNESS_HIT_MARGIN = 1e-5
SEESAW_OBJ_TOL = 1e-7


class BinarisationLabeling:
    """Deterministic complement-respecting post-processing labels.

    A label assigns one bit per canonical subset of each measurement; the
    post-processing function D satisfies D(S|lam) + D(complement|lam) = 1
    for every proper subset S.
    """

    def __init__(self, m_a: int, m_b: int):
        self.m_a, self.m_b = m_a, m_b
        self.subsets_a = canonical_subsets(m_a)
        self.subsets_b = canonical_subsets(m_b)
        self._idx_a = {frozenset(s): k for k, s in enumerate(self.subsets_a)}
        self._idx_b = {frozenset(s): k for k, s in enumerate(self.subsets_b)}
        ka, kb = len(self.subsets_a), len(self.subsets_b)
        if 2**ka * 2**kb > LABELING_GUARD:
            raise ValueError(
                f"labeling count 2^{ka} * 2^{kb} exceeds guard {LABELING_GUARD} "
                f"for outcome counts ({m_a}, {m_b})"
            )
        self.ka, self.kb = ka, kb
        self.labels = list(itertools.product((0, 1), repeat=ka + kb))

    def _d(self, idx: dict, m: int, offset: int, subset, lam) -> int:
        s = frozenset(subset)
        if len(s) == 0:
            return 0
        if len(s) == m:
            return 1
        if 0 in s:
            return lam[offset + idx[s]]
        return 1 - lam[offset + idx[frozenset(range(m)) - s]]

    def d_a(self, subset, lam) -> int:
        """D(S|lam) for a subset S of the first measurement's outcomes."""
        return self._d(self._idx_a, self.m_a, 0, subset, lam)

    def d_b(self, subset, lam) -> int:
        return self._d(self._idx_b, self.m_b, self.ka, subset, lam)

    def row(self, d_fn, subset) -> np.ndarray:
        """Kernel row D(S|lam) over all labels, for d_fn = d_a or d_b."""
        return np.array([d_fn(subset, lam) for lam in self.labels], dtype=float)


@dataclass(eq=False)
class CoexistenceResult:
    coexistent: bool | None  # None: the sufficient candidate check was inconclusive
    slack: float
    method: str  # "enumeration" or "candidate"
    parent: ParentPovm | None = None
    kernels: dict | None = None


@dataclass(eq=False)
class SeesawHit:
    seed: int
    a1: Povm
    a2: Povm
    witness_value: float
    iterations: int
    coexistence_slack: float = float("nan")
    jm_slack: float = float("nan")


def _binarisation_effects(m: Povm) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Deduplicated binarisation effects E_S over nonzero outcomes."""
    keep = m.nonzero_outcomes()
    out = []
    for s in canonical_subsets(len(keep)):
        orig = tuple(keep[i] for i in s)
        out.append((orig, sum(m.elements[i] for i in orig)))
    return out


def _coexist_enumeration(a1: Povm, a2: Povm, options) -> CoexistenceResult:
    """Feasibility over all deterministic complement-respecting labelings:
    exist G_lam >= 0 with sum_lam D(S|lam) G_lam = sum_{i in S} E_i for every
    canonical subset S of either measurement and sum_lam G_lam = identity."""
    d = a1.dim
    lab = BinarisationLabeling(len(a1.nonzero_outcomes()), len(a2.nonzero_outcomes()))
    kernel = [lab.row(lab.d_a, s) for s in lab.subsets_a]
    kernel += [lab.row(lab.d_b, s) for s in lab.subsets_b]
    rhs = [eff for _, eff in _binarisation_effects(a1) + _binarisation_effects(a2)]
    prog = incompat.parent_program(d, kernel + [np.ones(len(lab.labels))], rhs + [np.eye(d)])
    feasible, slack, cert = sdp.feasibility(prog, options)
    parent = None
    if feasible and cert is not None:
        blocks = linalg.hermitianize(cert[:len(lab.labels)])
        parent = ParentPovm(d, lab.labels, povm.repair(blocks), (2,) * (lab.ka + lab.kb))
    return CoexistenceResult(bool(feasible), float(slack), "enumeration", parent=parent)


def _coexist_candidate(a1: Povm, a2: Povm, candidate: Povm, options) -> CoexistenceResult:
    """Sufficient certificate: every binarisation effect of both POVMs is a
    [0,1]-combination sum_lam p_lam G_lam of the candidate parent's elements.

    Per effect E_S this is the parent program with 1 x 1 blocks p_lam, q_lam
    >= 0, kernel [[I, I], [C, 0]] with C[k, lam] = hvec(G_lam)[k], and rhs
    [1, ..., 1, hvec(E_S)]: p_lam + q_lam = 1 and sum_lam p_lam G_lam = E_S.
    Feasible kernels extend to one deterministic complement-respecting
    parent on the product of the candidate's outcomes with one bit per
    binarisation, so success certifies coexistence; failure is inconclusive.
    """
    g = candidate.n_outcomes
    coords = sdp.hvec(np.array(candidate.elements)).T  # row k: hvec(G_lam)[k] over lam
    eye = np.eye(g)
    kernel = np.block([[eye, eye], [coords, np.zeros_like(coords)]])
    ones = [np.ones((1, 1))] * g
    kernels = {}
    min_slack = float("inf")
    for side, m in (("a", a1), ("b", a2)):
        for orig, eff in _binarisation_effects(m):
            rhs = ones + [np.array([[v]]) for v in sdp.hvec(eff)]
            feasible, slack, cert = sdp.feasibility(incompat.parent_program(1, kernel, rhs), options)
            min_slack = min(min_slack, slack)
            if not feasible:
                return CoexistenceResult(None, float(slack), "candidate")
            kernels[(side, orig)] = np.array([p[0, 0].real for p in cert[:g]])
    return CoexistenceResult(True, float(min_slack), "candidate", kernels=kernels)


def coexistent_parent(
    a1: Povm,
    a2: Povm,
    candidate: Povm | None = None,
    options: sdp.SolveOptions | None = None,
) -> CoexistenceResult:
    """Decide coexistence of a pair of POVMs.

    Small outcome counts are decided exactly by enumerating all deterministic
    complement-respecting labelings.  When the labeling count exceeds the
    guard (or a candidate is passed), a sufficient certificate is attempted
    instead: each POVM in turn (or the given candidate) is tried as a parent
    whose elements mix to every binarisation effect.  A certified result has
    coexistent=True; an inconclusive candidate check has coexistent=None.
    """
    if a1.dim != a2.dim:
        raise ValueError("POVMs must share dimension")
    if candidate is not None:
        return _coexist_candidate(a1, a2, candidate, options)
    ka = 2 ** (len(a1.nonzero_outcomes()) - 1) - 1
    kb = 2 ** (len(a2.nonzero_outcomes()) - 1) - 1
    if 2**ka * 2**kb <= LABELING_GUARD:
        return _coexist_enumeration(a1, a2, options)
    for cand in (a2, a1):
        res = _coexist_candidate(a1, a2, cand, options)
        if res.coexistent:
            return res
    raise ValueError(
        f"labeling count 2^{ka} * 2^{kb} exceeds guard {LABELING_GUARD} and the "
        "sufficient candidate checks were inconclusive"
    )


def _seesaw_sdp2(dim, lab: BinarisationLabeling, xs, ys, options):
    """Maximise the witness functional over parents G_lam subject to the
    coexistence structure; the POVM pair is read off the singleton subsets."""
    kernel = [np.ones(len(lab.labels))]  # the parent sums to the identity
    for m, d_fn in ((lab.m_a, lab.d_a), (lab.m_b, lab.d_b)):
        single = [lab.row(d_fn, (i,)) for i in range(m)]
        for s in canonical_subsets(m):
            if len(s) > 1:  # additivity: the subset effect equals the sum of its singletons
                kernel.append(lab.row(d_fn, s) - sum(single[i] for i in s))
        kernel.append(sum(single) - 1)  # singleton effects form a normalised POVM
    zero = np.zeros((dim, dim))
    obj = {}
    for k, lam in enumerate(lab.labels):
        c = sum(lab.d_a((i,), lam) * xs[i] for i in range(lab.m_a))
        obj[k] = c + sum(lab.d_b((j,), lam) * ys[j] for j in range(lab.m_b))
    rhs = [np.eye(dim)] + [zero] * (len(kernel) - 1)
    prog = incompat.parent_program(dim, kernel, rhs, objective=obj)
    sol = sdp.solve(prog, options)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"seesaw parent SDP: {sol.status} ({sol.message})")
    blocks = linalg.hermitianize(sol.primal_blocks[:len(lab.labels)])
    els_a = [
        sum(b for b, lam in zip(blocks, lab.labels) if lab.d_a((i,), lam))
        for i in range(lab.m_a)
    ]
    els_b = [
        sum(b for b, lam in zip(blocks, lab.labels) if lab.d_b((j,), lam))
        for j in range(lab.m_b)
    ]
    return Povm(dim, povm.repair(els_a)), Povm(dim, povm.repair(els_b)), float(sol.primal_value)


def seesaw(
    dim: int,
    m_a: int,
    m_b: int,
    seeds: int,
    max_iters: int = 200,
    options: sdp.SolveOptions | None = None,
) -> list[SeesawHit]:
    """Alternating search for coexistent-but-incompatible pairs.

    Per seed: draw random POVMs, then alternate the witness SDP with the
    coexistence-constrained witness maximisation over parents, reading the
    pair off the parent's singleton marginals.  A pair produced by the
    parent step is coexistent by construction, so a witness value above
    1 + 1e-5 there is a find; each find is post-checked definitionally
    (coexistent_parent feasible, jm_parent infeasible) before being kept.
    """
    lab = BinarisationLabeling(m_a, m_b)
    hits = []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        a = random_povm(dim, m_a, rng)
        b = random_povm(dim, m_b, rng)
        prev = None
        try:
            for it in range(max_iters):
                w = incompat.witness(a, b, options)
                if it >= 1 and w.value > 1.0 + WITNESS_HIT_MARGIN:
                    coex = coexistent_parent(a, b, options=options)
                    jm = incompat.jm_parent(Assemblage(dim, [a, b]), options)
                    if coex.coexistent and not jm.feasible:
                        hits.append(
                            SeesawHit(seed, a, b, w.value, it, coex.slack, jm.slack)
                        )
                    else:  # witness margin too thin to survive the post-check
                        log.info(
                            "seed %d: witness %.6f not confirmed (coexistent=%s, jm=%s)",
                            seed, w.value, coex.coexistent, jm.feasible,
                        )
                    break
                if prev is not None and abs(w.value - prev) < SEESAW_OBJ_TOL:
                    break
                prev = w.value
                a, b, _ = _seesaw_sdp2(dim, lab, w.X, w.Y, options)
        except (sdp.SolverError, np.linalg.LinAlgError) as exc:
            log.warning("seesaw seed %d skipped: %s", seed, exc)
    return hits


def _qutrit_pair() -> tuple[Assemblage, np.ndarray, np.ndarray]:
    """The qutrit complement/Fourier pair and the two vectors spanning the
    qubit subspace used for its truncation."""
    w = np.exp(2j * np.pi / 3)
    psis = [np.array([1, w**j, w ** (2 * j)], dtype=complex) / np.sqrt(3) for j in range(3)]
    eye = np.eye(3, dtype=complex)
    a_els = [(eye - np.outer(eye[:, i], eye[:, i])) / 2 for i in range(3)]
    b_els = [np.outer(eye[:, j], eye[:, j]) / 2 for j in range(3)]
    b_els += [np.outer(p, p.conj()) / 2 for p in psis]
    asm = Assemblage(3, [Povm(3, a_els), Povm(3, b_els)])
    return asm, psis[0], psis[1]


def qubit_counterexample(options: sdp.SolveOptions | None = None) -> tuple[Povm, Povm, Povm, dict]:
    """Coexistent-but-incompatible qubit pair from truncating the qutrit
    complement/Fourier pair to the span of the first two Fourier vectors.

    Returns (A~, B~, coarse variant of B~, report).  The report records:
    (i) the linear-dependence residual B~_4 = B~_0+B~_1+B~_2-B~_3;
    (ii) the Gram rank of {B~_0..B~_3} over real Hermitian matrix space;
    (iii) the coexistence certificate; (iv) joint-measurability failure;
    (v) robustness of the coarse-grained variant (first two outcomes of B~
    merged), plus the same for every other pairing of B~'s outcomes.
    """
    asm, psi0, psi1 = _qutrit_pair()
    p2 = linalg.projector_from_basis([psi0, psi1])
    trunc = povm.truncate(asm, p2)
    at, bt = trunc.measurements
    report: dict = {}

    lindep = bt.elements[4] - (bt.elements[0] + bt.elements[1] + bt.elements[2] - bt.elements[3])
    report["lindep_residual"] = float(np.abs(lindep).max())

    gram = np.array(
        [
            [np.trace(x.conj().T @ y).real for y in bt.elements[:4]]
            for x in bt.elements[:4]
        ]
    )
    report["gram_rank"] = int((np.linalg.eigvalsh(gram) > 1e-10).sum())

    coex = coexistent_parent(at, bt, candidate=bt, options=options)
    report["coexistent"] = {"coexistent": coex.coexistent, "slack": coex.slack,
                            "method": coex.method}

    jm = incompat.jm_parent(Assemblage(2, [at, bt]), options)
    report["jm"] = {"feasible": jm.feasible, "slack": jm.slack}

    rob = incompat.depolarising_robustness(Assemblage(2, [at, bt]), options)
    report["robustness"] = {"eta": rob.eta, "verdict": rob.verdict}

    pairings = {}
    coarse = None
    for j, k in itertools.combinations(range(bt.n_outcomes), 2):
        cells = [(j, k)] + [(i,) for i in range(bt.n_outcomes) if i not in (j, k)]
        merged = povm.coarse_grain(bt, cells)
        r = incompat.depolarising_robustness(Assemblage(2, [at, merged]), options)
        pairings[f"{j},{k}"] = {"eta": r.eta, "verdict": r.verdict}
        if (j, k) == (0, 1):
            coarse = merged
            report["coarse"] = {"partition": [list(c) for c in cells],
                                "eta": r.eta, "verdict": r.verdict}
    report["pairings"] = pairings
    return at, bt, coarse, report
