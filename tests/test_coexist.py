import numpy as np
import pytest

from subincompat import coexist, corpus, incompat, linalg, sdp
from subincompat.povm import Assemblage, Povm, random_povm, truncate

from helpers import compatible_pair, sigma_xz_pair

SQRT2_INV = 1.0 / np.sqrt(2.0)


def test_canonical_subsets():
    assert coexist.canonical_subsets(2) == [(0,)]
    assert coexist.canonical_subsets(3) == [(0,), (0, 1), (0, 2)]
    assert len(coexist.canonical_subsets(4)) == 2 ** 3 - 1


def test_labeling_guard():
    with pytest.raises(ValueError, match="exceeds guard"):
        coexist.seesaw(2, 5, 5, 1)  # 2^15 * 2^15 labels


def test_threshold_pair_coexistent_by_enumeration():
    a = sigma_xz_pair(SQRT2_INV)
    res = coexist.coexistent_parent(a.measurements[0], a.measurements[1])
    assert res.coexistent
    assert res.method == "enumeration"
    assert res.slack >= -1e-7
    assert_parent_gives_binarisations(res.parent, a)


def assert_parent_gives_binarisations(parent, pair):
    """Marginal x of the parent has the effect E_S of binarisation x as its
    outcome 1, the binarisations of the first POVM before the second's."""
    effects = coexist._binarisation_effects(pair.measurements[0])
    effects += coexist._binarisation_effects(pair.measurements[1])
    assert parent is not None and parent.outcome_counts == (2,) * len(effects)
    for x, (_, eff) in enumerate(effects):
        assert np.abs(parent.marginal(x).elements[1] - eff).max() < 1e-9


def test_compatible_pair_parent_gives_every_binarisation():
    pair = compatible_pair(3, 2, 3, np.random.default_rng(1500))
    res = coexist.coexistent_parent(*pair.measurements)
    assert res.coexistent and res.method == "enumeration"
    assert_parent_gives_binarisations(res.parent, pair)


def test_pair_without_binarisations_is_coexistent():
    # one nonzero outcome each: nothing to measure jointly
    eye = np.eye(2)
    res = coexist.coexistent_parent(Povm(2, [eye]), Povm(2, [eye, np.zeros((2, 2))]))
    assert res.coexistent is True
    assert res.method == "enumeration"
    assert res.slack > 0.5


def test_povm_coexists_with_itself():
    m = random_povm(2, 3, np.random.default_rng(20))
    res = coexist.coexistent_parent(m, m)
    assert res.coexistent
    assert res.slack >= -1e-7


def test_qutrit_pair_coexistent_via_candidate_route():
    a = corpus.build("qutrit-pair")
    res = coexist.coexistent_parent(a.measurements[0], a.measurements[1])
    assert res.coexistent
    assert res.method == "candidate"
    assert res.slack >= -1e-7


def test_explicit_candidate_route():
    # the six-outcome measurement is a coexistence certificate for the pair
    a = corpus.build("qutrit-pair")
    res = coexist.coexistent_parent(
        a.measurements[0], a.measurements[1], candidate=a.measurements[1]
    )
    assert res.coexistent
    assert res.method == "candidate"
    assert res.kernels is not None


def test_candidate_that_cannot_reach_an_effect_is_inconclusive():
    # sigma_z's elements span only diagonal matrices, so no mixture of them
    # reaches a sigma_y effect: the off-diagonal rows are 0 = nonzero
    eye = np.eye(2)
    sy, sz = np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    ys, zs = (Povm(2, [(eye + s) / 2, (eye - s) / 2]) for s in (sy, sz))
    res = coexist.coexistent_parent(ys, zs, candidate=zs)
    assert res.coexistent is None
    assert res.slack == -np.inf
    assert res.method == "candidate"


def test_counterexample_candidate_checks_share_one_structure(monkeypatch):
    # the 18 binarisations of the qubit counterexample bind their data to
    # one compiled candidate structure instead of presolving 18 programs
    calls, inside, kernels = [], [False], []
    real_presolve, real_coexist = sdp._presolve, coexist.coexistent_parent

    def presolve(*args):
        calls.append(inside[0])
        return real_presolve(*args)

    def coexistent_parent(*args, **kwargs):
        inside[0] = True
        try:
            res = real_coexist(*args, **kwargs)
        finally:
            inside[0] = False
        kernels.append(res.kernels)
        return res

    incompat._parent_structure.cache_clear()
    monkeypatch.setattr(sdp, "_presolve", presolve)
    monkeypatch.setattr(coexist, "coexistent_parent", coexistent_parent)
    _, _, _, report = coexist.qubit_counterexample()
    assert report["coexistent"]["coexistent"] is True
    assert len(kernels) == 1 and len(kernels[0]) == 18
    assert sum(calls) <= 1


def test_relabelling_invariance():
    instances = [
        sigma_xz_pair(SQRT2_INV),
        compatible_pair(3, 2, 3, np.random.default_rng(1500)),
    ]
    at, bt, _, _ = coexist.qubit_counterexample()
    instances.append(Assemblage(2, [at, bt]))
    rng = np.random.default_rng(1501)
    for pair in instances:
        m0, m1 = pair.measurements
        base = coexist.coexistent_parent(m0, m1)
        assert base.coexistent
        for _ in range(5):
            pa = rng.permutation(m0.n_outcomes)
            pb = rng.permutation(m1.n_outcomes)
            q0 = Povm(pair.dim, [m0.elements[j] for j in pa])
            q1 = Povm(pair.dim, [m1.elements[j] for j in pb])
            res = coexist.coexistent_parent(q0, q1)
            assert res.coexistent == base.coexistent


def test_truncation_preserves_coexistence():
    qp = corpus.build("qutrit-pair")
    for i in range(20):
        if i < 14:
            pair = compatible_pair(3, 2, 2, np.random.default_rng(1600 + i))
        else:
            pair = qp
        p = linalg.haar_subspace(3, 2, seed=1600 + i)
        tp = truncate(pair, p)
        res = coexist.coexistent_parent(tp.measurements[0], tp.measurements[1])
        assert res.coexistent, (i, res.slack, res.method)


def test_size_error_when_no_route_applies():
    # two generic four-outcome POVMs: enumeration is beyond the guard and
    # neither measurement works as a candidate parent of the other
    rng = np.random.default_rng(21)
    m0 = random_povm(2, 4, rng)
    m1 = random_povm(2, 4, rng)
    with pytest.raises(ValueError):
        coexist.coexistent_parent(m0, m1)


def test_seesaw_small_run_finds_and_postchecks():
    hits = coexist.seesaw(3, 2, 3, 12)
    assert [h.seed for h in hits] == [10]
    h = hits[0]
    assert abs(h.witness_value - 1.000326) < 1e-4
    assert h.witness_value > 1.0 + coexist.WITNESS_HIT_MARGIN
    # definitional post-check, independently of the seesaw's own bookkeeping
    co = coexist.coexistent_parent(h.a1, h.a2)
    jm = incompat.jm_parent(Assemblage(3, [h.a1, h.a2]))
    assert co.coexistent
    assert not jm.feasible


def test_qubit_counterexample_report():
    at, bt, coarse, report = coexist.qubit_counterexample()
    assert at.dim == 2 and bt.dim == 2
    assert at.n_outcomes == 3 and bt.n_outcomes == 6
    assert coarse.n_outcomes == 5
    assert report["lindep_residual"] < 1e-10
    assert report["gram_rank"] == 4
    assert report["coexistent"]["coexistent"] is True
    assert report["coexistent"]["slack"] >= -1e-7
    assert report["jm"]["feasible"] is False
    assert abs(report["robustness"]["eta"] - 0.96592582) < 1e-6
    assert report["robustness"]["verdict"] == incompat.VERDICT_INCOMPATIBLE
    assert report["coarse"]["partition"][0] == [0, 1]
    assert abs(report["coarse"]["eta"] - 0.98295069) < 1e-6
    # every pairing is recorded; pairings with the zero outcome keep the
    # original robustness, pairings among 3,4 restore compatibility
    assert len(report["pairings"]) == 15
    assert abs(report["pairings"]["0,2"]["eta"] - 0.98295069) < 1e-6
    assert report["pairings"]["3,4"]["eta"] >= 1 - 1e-6
    assert abs(report["pairings"]["0,5"]["eta"] - 0.96592582) < 1e-6
