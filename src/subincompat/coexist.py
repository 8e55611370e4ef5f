"""Coexistence: joint measurability of all binarisations (1 - E_S, E_S),
decided by ``incompat.jm_parent`` on the assemblage of both POVMs'
binarisations (a parent label holds one bit per binarisation, 1 when S
occurred) or, beyond ``incompat.JOINT_OUTCOME_GUARD``, by a sufficient
candidate certificate; the seesaw search for coexistent-but-incompatible
pairs, whose parent step takes its kernel from ``incompat.marginal_kernel``
over the same binarisation labels; and the qubit counterexample obtained
by truncating a qutrit pair."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import corpus, incompat, linalg, povm, sdp
from .povm import Assemblage, ParentPovm, Povm, canonical_subsets, random_povm

log = logging.getLogger(__name__)

WITNESS_HIT_MARGIN = 1e-5
SEESAW_OBJ_TOL = 1e-7


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
    witness: incompat.Witness
    iterations: int
    coexistence_slack: float = float("nan")
    jm_slack: float = float("nan")

    @property
    def witness_value(self) -> float:
        return self.witness.value


def _binarisation_effects(m: Povm) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Deduplicated binarisation effects E_S over nonzero outcomes."""
    keep = povm.nonzero_outcomes(m.elements)
    out = []
    for s in canonical_subsets(len(keep)):
        orig = tuple(keep[i] for i in s)
        out.append((orig, sum(m.elements[i] for i in orig)))
    return out


def _coexist_enumeration(a1: Povm, a2: Povm) -> CoexistenceResult:
    """Joint measurability of every binarisation (1 - E_S, E_S) of either
    POVM, decided by ``incompat.jm_parent``: a parent label holds one bit
    per binarisation, 1 when S occurred.  A pair without binarisations (one
    nonzero outcome each) is decided on the trivial measurement alone."""
    d = a1.dim
    eye = np.eye(d)
    effects = _binarisation_effects(a1) + _binarisation_effects(a2)
    settings = [Povm(d, [eye - eff, eff]) for _, eff in effects]
    jm = incompat.jm_parent(Assemblage(d, settings or [Povm(d, [eye])]))
    return CoexistenceResult(bool(jm.feasible), float(jm.slack), "enumeration", parent=jm.parent)


def _coexist_candidate(a1: Povm, a2: Povm, candidate: Povm) -> CoexistenceResult:
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
            feasible, slack, cert = sdp.feasibility(incompat.parent_program(1, kernel, rhs))
            min_slack = min(min_slack, slack)
            if not feasible:
                return CoexistenceResult(None, float(slack), "candidate")
            kernels[(side, orig)] = np.array([p[0, 0].real for p in cert[:g]])
    return CoexistenceResult(True, float(min_slack), "candidate", kernels=kernels)


def coexistent_parent(
    a1: Povm,
    a2: Povm,
    candidate: Povm | None = None,
) -> CoexistenceResult:
    """Decide coexistence of a pair of POVMs.

    Small outcome counts are decided exactly, as joint measurability of all
    binarisations.  When that parent's label count exceeds
    ``incompat.JOINT_OUTCOME_GUARD`` (or a candidate is passed), a
    sufficient certificate is attempted instead: each POVM in turn (or the
    given candidate) is tried as a parent whose elements mix to every
    binarisation effect.  A certified result has coexistent=True; an
    inconclusive candidate check has coexistent=None.
    """
    if a1.dim != a2.dim:
        raise ValueError("POVMs must share dimension")
    if candidate is not None:
        return _coexist_candidate(a1, a2, candidate)
    ka = 2 ** (len(povm.nonzero_outcomes(a1.elements)) - 1) - 1
    kb = 2 ** (len(povm.nonzero_outcomes(a2.elements)) - 1) - 1
    if 2**ka * 2**kb <= incompat.JOINT_OUTCOME_GUARD:
        return _coexist_enumeration(a1, a2)
    for cand in (a2, a1):
        res = _coexist_candidate(a1, a2, cand)
        if res.coexistent:
            return res
    raise ValueError(
        f"labeling count 2^{ka} * 2^{kb} exceeds guard {incompat.JOINT_OUTCOME_GUARD} and the "
        "sufficient candidate checks were inconclusive"
    )


def _seesaw_kernels(m_a: int, m_b: int):
    """The seesaw parent's kernel and the singleton rows D({i}|lam) of each
    measurement, over labels with one bit per binarisation of either
    measurement (settings x_S: the canonical subsets of the first, then of
    the second), all from ``incompat.marginal_kernel``: D(S|lam) is row
    (x_S, 1), D({0}|lam) is (x_(0,), 1) and D({i}|lam) for i >= 1 is
    (x_(complement of {i}), 0); a one-outcome measurement's singleton is 1."""
    subsets = [canonical_subsets(m_a), canonical_subsets(m_b)]
    ka, kb = len(subsets[0]), len(subsets[1])
    labels = incompat.joint_labels([(0, 1)] * (ka + kb))
    kernel = [np.ones(len(labels))]  # the parent sums to the identity
    singles = []
    for m, subs, offset in ((m_a, subsets[0], 0), (m_b, subsets[1], ka)):
        x = {s: offset + k for k, s in enumerate(subs)}
        if m == 1:
            single = np.ones((1, len(labels)))
        else:
            rest = [(x[tuple(j for j in range(m) if j != i)], 0) for i in range(1, m)]
            single = incompat.marginal_kernel(labels, [(x[(0,)], 1)] + rest)
        for s, row in zip(subs, incompat.marginal_kernel(labels, [(x[s], 1) for s in subs])):
            if len(s) > 1:  # additivity: the subset effect equals the sum of its singletons
                kernel.append(row - sum(single[i] for i in s))
        kernel.append(sum(single) - 1)  # singleton effects form a normalised POVM
        singles.append(single)
    return np.array(kernel), singles


def _seesaw_sdp2(dim, kernel, singles, xs, ys):
    """Maximise the witness functional over parents G_lam subject to the
    coexistence structure (the kernel of ``_seesaw_kernels``); the POVM
    pair is read off the singleton rows."""
    single_a, single_b = singles
    obj = {}
    for k in range(kernel.shape[1]):
        c = sum(single_a[i, k] * xs[i] for i in range(len(single_a)))
        obj[k] = c + sum(single_b[j, k] * ys[j] for j in range(len(single_b)))
    rhs = [np.eye(dim)] + [np.zeros((dim, dim))] * (len(kernel) - 1)
    prog = incompat.parent_program(dim, kernel, rhs, objective=obj)
    sol = sdp.solve(prog)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"seesaw parent SDP: {sol.status} ({sol.message})")
    blocks = linalg.hermitianize(sol.primal_blocks[:kernel.shape[1]])
    els_a, els_b = ([sum(b for b, on in zip(blocks, row) if on) for row in single]
                    for single in singles)
    return Povm(dim, povm.repair(els_a)), Povm(dim, povm.repair(els_b)), float(sol.primal_value)


def seesaw(
    dim: int,
    m_a: int,
    m_b: int,
    seeds: int,
    max_iters: int = 200,
) -> list[SeesawHit]:
    """Alternating search for coexistent-but-incompatible pairs.

    Per seed: draw random POVMs, then alternate the witness SDP with the
    coexistence-constrained witness maximisation over parents, reading the
    pair off the parent's singleton marginals.  A pair produced by the
    parent step is coexistent by construction, so a witness value above
    1 + 1e-5 there is a find; each find is post-checked definitionally
    (coexistent_parent feasible, jm_parent infeasible) before being kept.
    """
    kernel, singles = _seesaw_kernels(m_a, m_b)
    hits = []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        a = random_povm(dim, m_a, rng)
        b = random_povm(dim, m_b, rng)
        prev = None
        try:
            for it in range(max_iters):
                w = incompat.witness(a, b)
                if it >= 1 and w.value > 1.0 + WITNESS_HIT_MARGIN:
                    coex = coexistent_parent(a, b)
                    jm = incompat.jm_parent(Assemblage(dim, [a, b]))
                    if coex.coexistent and not jm.feasible:
                        hits.append(
                            SeesawHit(seed, a, b, w, it, coex.slack, jm.slack)
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
                a, b, _ = _seesaw_sdp2(dim, kernel, singles, w.X, w.Y)
        except (sdp.SolverError, np.linalg.LinAlgError) as exc:
            log.warning("seesaw seed %d skipped: %s", seed, exc)
    return hits


def qubit_counterexample() -> tuple[Povm, Povm, Povm, dict]:
    """Coexistent-but-incompatible qubit pair from truncating the qutrit
    complement/Fourier pair to the span of the first two Fourier vectors.

    Returns (A~, B~, coarse variant of B~, report).  The report records:
    (i) the linear-dependence residual B~_4 = B~_0+B~_1+B~_2-B~_3;
    (ii) the Gram rank of {B~_0..B~_3} over real Hermitian matrix space;
    (iii) the coexistence certificate; (iv) joint-measurability failure;
    (v) robustness of the coarse-grained variant (first two outcomes of B~
    merged), plus the same for every other pairing of B~'s outcomes.
    """
    at, bt = corpus.build("qubit-counterexample").measurements
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

    coex = coexistent_parent(at, bt, candidate=bt)
    report["coexistent"] = {"coexistent": coex.coexistent, "slack": coex.slack,
                            "method": coex.method}

    jm = incompat.jm_parent(Assemblage(2, [at, bt]))
    report["jm"] = {"feasible": jm.feasible, "slack": jm.slack}

    rob = incompat.depolarising_robustness(Assemblage(2, [at, bt]))
    report["robustness"] = {"eta": rob.eta, "verdict": rob.verdict}

    pairings = {}
    coarse = None
    for j, k in itertools.combinations(range(bt.n_outcomes), 2):
        cells = [(j, k)] + [(i,) for i in range(bt.n_outcomes) if i not in (j, k)]
        merged = povm.coarse_grain(bt, cells)
        r = incompat.depolarising_robustness(Assemblage(2, [at, merged]))
        pairings[f"{j},{k}"] = {"eta": r.eta, "verdict": r.verdict}
        if (j, k) == (0, 1):
            coarse = merged
            report["coarse"] = {"partition": [list(c) for c in cells],
                                "eta": r.eta, "verdict": r.verdict}
    report["pairings"] = pairings
    return at, bt, coarse, report
