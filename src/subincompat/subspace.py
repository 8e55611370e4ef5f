"""Incompatibility in subspaces: sampling-based classification, the
analytic criterion for incompatibility on every hyperplane, the
mutually-unbiased-bases truncation identity, and Monte Carlo checks of the
random-subspace integral identities."""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import incompat, linalg, povm, sdp
from .povm import Assemblage, from_basis, truncate

VERDICT_INCOMPRESSIBLE = "Incompressible"
VERDICT_FULLY_COMPRESSIBLE = "FullyCompressible"
VERDICT_PARTLY_COMPRESSIBLE = "PartlyCompressible"
VERDICT_COMPATIBLE_EVERYWHERE = "CompatibleEverywhere"
VERDICT_INDETERMINATE = "Indeterminate"

CRITERION_TOL = 1e-10
PROBE_CAP = 400
_EIG_DEDUP_TOL = 1e-9


@dataclass(eq=False)
class SubspaceReport:
    n: int
    samples: int
    seed: int | None
    verdict: str
    full_eta: float
    records: list[dict] = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    evidence_note: str = (
        "sampling-based verdict: evidence over the listed probes and Haar "
        "samples, not a proof for unexamined subspaces"
    )


def _probe_projectors(a: Assemblage, n: int) -> list[tuple[str, linalg.Projector]]:
    """Deterministic probes: coordinate subspaces first, then spans of
    eigenvectors pooled from every POVM element (the natural non-generic
    witnesses), at most PROBE_CAP in all to keep runtime bounded."""
    d = a.dim
    probes: list[tuple[str, linalg.Projector]] = []
    eye = np.eye(d, dtype=complex)
    for combo in itertools.islice(itertools.combinations(range(d), n), PROBE_CAP):
        basis = [eye[:, i] for i in combo]
        probes.append((f"coordinate{list(combo)}", linalg.projector_from_basis(basis)))
    pool: list[np.ndarray] = []
    for m in a.measurements:
        for e in m.elements:
            vals, vecs = linalg.eig_hermitian(e)
            for k in range(d):
                if vals[k] > _EIG_DEDUP_TOL:
                    v = vecs[:, k]
                    if all(abs(np.vdot(u, v)) < 1.0 - _EIG_DEDUP_TOL for u in pool):
                        pool.append(v)
    for combo in itertools.combinations(range(len(pool)), n):
        if len(probes) >= PROBE_CAP:
            break
        try:
            q = linalg._mgs(np.column_stack([pool[i] for i in combo]))
        except ValueError:  # linearly dependent span, no n-dim subspace
            continue
        probes.append((f"eigenspan{list(combo)}", linalg.projector_from_basis(q.T)))
    return probes


def _classify_one(a: Assemblage, label, p: linalg.Projector, options=None):
    r = incompat.depolarising_robustness(truncate(a, p), options)
    return label, p, r.eta, r.verdict


def classify(
    a: Assemblage,
    n: int,
    samples: int,
    seed: int | None = None,
    jobs: int = 1,
    options: sdp.SolveOptions | None = None,
) -> SubspaceReport:
    """Sample n-dimensional subspaces and classify where the assemblage's
    incompatibility survives truncation.

    A direct robustness check runs first: a compatible assemblage is
    CompatibleEverywhere (its parent truncates to a parent).  Otherwise
    deterministic probes (coordinate subspaces, spans of element
    eigenvectors) are tested before `samples` Haar-random subspaces drawn
    from `seed`.  Verdicts aggregate to Incompressible (every truncation
    compatible), FullyCompressible (every truncation incompatible),
    PartlyCompressible (both observed, with witnessing projectors) or
    Indeterminate; they are evidence, not proof.  ``options`` reach every
    robustness solve, in worker processes too.
    """
    if not 2 <= n < a.dim:
        raise ValueError(f"need 2 <= n < dim, got n={n}, dim={a.dim}")
    full = incompat.depolarising_robustness(a, options)
    if full.verdict == incompat.VERDICT_COMPATIBLE:
        return SubspaceReport(
            n=n,
            samples=0,
            seed=seed,
            verdict=VERDICT_COMPATIBLE_EVERYWHERE,
            full_eta=full.eta,
            evidence_note="the assemblage is compatible; every truncation "
            "of its parent is a parent for the truncated assemblage",
        )

    tasks = _probe_projectors(a, n)
    for s in np.random.SeedSequence(seed).generate_state(samples):
        tasks.append((int(s), linalg.haar_subspace(a.dim, n, int(s))))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_classify_one, itertools.repeat(a), *zip(*tasks),
                                  itertools.repeat(options)))
    else:
        results = [_classify_one(a, label, p, options) for label, p in tasks]

    records = []
    witnesses: dict = {}
    counts = {incompat.VERDICT_COMPATIBLE: 0, incompat.VERDICT_INCOMPATIBLE: 0,
              incompat.VERDICT_INDETERMINATE: 0}
    for label, p, eta, verdict in results:
        counts[verdict] += 1
        if isinstance(label, int):
            rec = {"kind": "haar", "seed": label, "eta": eta, "verdict": verdict}
        else:
            rec = {"kind": "probe", "name": label, "eta": eta, "verdict": verdict}
        records.append(rec)
        if verdict == incompat.VERDICT_COMPATIBLE and "compatible" not in witnesses:
            witnesses["compatible"] = p
        if verdict == incompat.VERDICT_INCOMPATIBLE and "incompatible" not in witnesses:
            witnesses["incompatible"] = p

    if counts[incompat.VERDICT_COMPATIBLE] and counts[incompat.VERDICT_INCOMPATIBLE]:
        verdict = VERDICT_PARTLY_COMPRESSIBLE
    elif counts[incompat.VERDICT_INDETERMINATE]:
        verdict = VERDICT_INDETERMINATE
    elif counts[incompat.VERDICT_COMPATIBLE]:
        verdict = VERDICT_INCOMPRESSIBLE
    else:
        verdict = VERDICT_FULLY_COMPRESSIBLE
    return SubspaceReport(
        n=n,
        samples=samples,
        seed=seed,
        verdict=verdict,
        full_eta=full.eta,
        records=records,
        witnesses=witnesses,
    )


def fully_compressible_criterion(basisA, basisB):
    """Analytic test that the rank-one PVMs of two orthonormal bases stay
    incompatible on every (d-1)-dimensional subspace.

    Holds iff every overlap <phi_a|psi_alpha> is nonzero and, for all index
    patterns with a,b,c distinct and alpha,beta,gamma distinct,
    O[a,beta] O[b,alpha] O[c,gamma] != O[c,beta] O[a,alpha] O[b,gamma]
    where O is the overlap matrix.  Returns (holds, failing_witness):
    the witness is ('overlap', a, alpha) or ('triple', a, b, c, alpha,
    beta, gamma) for the first violated condition, None when holds.
    """
    va = [np.asarray(v, dtype=complex).ravel() for v in basisA]
    vb = [np.asarray(v, dtype=complex).ravel() for v in basisB]
    d = va[0].size
    if d < 3:
        raise ValueError("the criterion requires d >= 3")
    for vs in (va, vb):
        if len(vs) != d:
            raise ValueError("both inputs must be complete bases")
        gram = np.array([[np.vdot(u, v) for v in vs] for u in vs])
        if np.abs(gram - np.eye(d)).max() > 1e-10:
            raise ValueError("basis vectors are not orthonormal")
    o = np.array([[np.vdot(u, v) for v in vb] for u in va])
    for a in range(d):
        for al in range(d):
            if abs(o[a, al]) <= CRITERION_TOL:
                return False, ("overlap", a, al)
    for a, b, c in itertools.permutations(range(d), 3):
        for al, be, ga in itertools.permutations(range(d), 3):
            diff = o[a, be] * o[b, al] * o[c, ga] - o[c, be] * o[a, al] * o[b, ga]
            if abs(diff) <= CRITERION_TOL:
                return False, ("triple", a, b, c, al, be, ga)
    return True, None


def mub_same_povm_check(options: sdp.SolveOptions | None = None) -> dict:
    """Fixed qutrit construction where two distinct MUB measurements
    truncate to the same POVM on a 2-dimensional subspace.

    With psi = (1,1,w)/sqrt(3) and R = 1 - |psi><psi|, the computational
    basis projectors and the Fourier-basis projectors coincide pairwise
    after conjugation by R; the truncated pair is trivially compatible.
    A perturbed psi (rotated by 0.1 rad) is included as a negative control.
    """
    w = np.exp(2j * np.pi / 3)
    d = 3
    eye = np.eye(d, dtype=complex)
    comp = [eye[:, k] for k in range(d)]
    # Fourier pairing phi'_k = (1/sqrt(3)) sum_n w^{n k} |phi_n>, 1-based
    four = [
        sum(np.exp(2j * np.pi * (n + 1) * (k + 1) / 3) * comp[n] for n in range(d))
        / np.sqrt(3)
        for k in range(d)
    ]

    def residual(psi):
        r = eye - np.outer(psi, psi.conj())
        return max(
            np.abs(
                r @ np.outer(comp[k], comp[k].conj()) @ r
                - r @ np.outer(four[k], four[k].conj()) @ r
            ).max()
            for k in range(d)
        )

    psi = np.array([1, 1, w], dtype=complex) / np.sqrt(3)
    res = residual(psi)

    # truncated pair on the range of R (rank 2)
    r = eye - np.outer(psi, psi.conj())
    vals, vecs = linalg.eig_hermitian(r)
    basis = vecs[:, :2]
    p = linalg.projector_from_basis(basis.T)
    pair = Assemblage(3, [from_basis(comp), from_basis(four)])
    rob = incompat.depolarising_robustness(truncate(pair, p), options)

    # negative control: rotate psi slightly inside span{psi, e0 component}
    th = 0.1
    orth = comp[0] - np.vdot(psi, comp[0]) * psi
    orth = orth / np.linalg.norm(orth)
    psi_pert = np.cos(th) * psi + np.sin(th) * orth
    res_pert = residual(psi_pert)

    mub_overlap = np.abs(np.array([[np.vdot(u, v) for v in four] for u in comp]))
    return {
        "residual": float(res),
        "truncated_eta": rob.eta,
        "truncated_verdict": rob.verdict,
        "perturbed_residual": float(res_pert),
        "mub_overlap_deviation": float(np.abs(mub_overlap - 1 / np.sqrt(3)).max()),
        "same_povm": bool(res < 1e-12),
    }


def integral_identities_check(d: int, n: int, mc_samples: int, seed=None) -> dict:
    """Monte Carlo verification of the closed-form Haar averages over
    rank-n subspace projectors P:

        (d/n) E[P]            = identity
        (d/n) E[P M P]        = ((n d - 1) M + (d - n) tr(M) 1) / (d^2 - 1)
        (d/n) E[tr(P M P) P]  = ((d - n) M + (n d - 1) tr(M) 1) / (d^2 - 1)

    for a random Hermitian M.  Reports the max relative error and a
    3-standard-error elementwise test per identity.
    """
    if not 1 <= n < d:
        raise ValueError(f"need 1 <= n < d, got n={n}, d={d}")
    if mc_samples < 1000:
        raise ValueError("mc_samples must be at least 1000")
    ss = np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (g + g.conj().T) / 2
    eye = np.eye(d)
    tr_m = np.trace(m).real

    closed = {
        "identity": eye.astype(complex),
        "conjugation": ((n * d - 1) * m + (d - n) * tr_m * eye) / (d * d - 1),
        "trace_weight": ((d - n) * m + (n * d - 1) * tr_m * eye) / (d * d - 1),
    }
    sums = {k: np.zeros((d, d), dtype=complex) for k in closed}
    sqsums = {k: np.zeros((d, d)) for k in closed}
    scale = d / n
    seeds = ss.generate_state(mc_samples)
    for s in seeds:
        p = linalg.haar_subspace(d, n, int(s)).matrix
        terms = {
            "identity": scale * p,
            "conjugation": scale * (p @ m @ p),
            "trace_weight": scale * np.trace(p @ m @ p).real * p,
        }
        for k, t in terms.items():
            sums[k] += t
            sqsums[k] += np.abs(t) ** 2

    report: dict = {"d": d, "n": n, "mc_samples": mc_samples, "identities": {}}
    for k in closed:
        mean = sums[k] / mc_samples
        # elementwise std error of the complex mean
        var = sqsums[k] / mc_samples - np.abs(mean) ** 2
        stderr = np.sqrt(np.clip(var, 0.0, None) / mc_samples)
        diff = np.abs(mean - closed[k])
        denom = max(np.abs(closed[k]).max(), 1e-12)
        entry = {
            "max_rel_error": float(diff.max() / denom),
            "max_abs_error": float(diff.max()),
            "three_sigma_pass": bool(np.all(diff <= 3.0 * stderr + 1e-12)),
            "max_sigma": float((diff / np.where(stderr > 0, stderr, np.inf)).max()),
        }
        report["identities"][k] = entry
    report["all_within_3_sigma"] = all(
        v["three_sigma_pass"] for v in report["identities"].values()
    )
    return report
