import numpy as np
import pytest

from subincompat import coexist, corpus, incompat, steering
from subincompat.povm import Assemblage, depolarise, random_povm

from helpers import compatible_pair, random_mixed_state, sharp_pair, sigma_xz_pair

SQRT2_INV = 1.0 / np.sqrt(2.0)


def test_robustness_sharp_xz_pair():
    # the sharp sigma_x / sigma_z pair loses compatibility exactly at 1/sqrt(2)
    res = incompat.depolarising_robustness(sigma_xz_pair())
    assert abs(res.eta - SQRT2_INV) < 1e-6
    assert res.verdict == incompat.VERDICT_INCOMPATIBLE


def test_robustness_sharp_xz_pair_meets_the_closed_form():
    # the built-in pair's robustness is 1/sqrt(2) in closed form; the solve
    # stops at a relative gap of 1e-8 but its last steps reach far closer
    res = incompat.depolarising_robustness(corpus.build("sigma-xz-sharp"))
    assert abs(res.eta - SQRT2_INV) <= 1e-11


def test_robustness_parent_marginals_match_depolarised_pair():
    a = sigma_xz_pair()
    res = incompat.depolarising_robustness(a)
    noisy = depolarise(a, res.eta)
    for x in range(2):
        marg = res.parent.marginal(x)
        for k in range(2):
            assert np.abs(marg.elements[k] - noisy.measurements[x].elements[k]).max() < 1e-6


def test_robustness_slack_holds_eta_at_most_one():
    # eta + tr S = 1 with S >= 0 d x d: a compatible pair sits at eta = 1
    res = incompat.depolarising_robustness(corpus.build("sigma-xz-noisy"))
    assert 1.0 - 1e-6 <= res.eta <= 1.0 + 1e-8
    slack = res.solution.primal_blocks[-1]
    assert slack.shape == (2, 2)
    assert abs(np.trace(slack).real - (1.0 - res.eta)) <= 1e-8


def test_jm_threshold_pair_feasible_and_above_infeasible():
    at_threshold = incompat.jm_parent(sigma_xz_pair(SQRT2_INV))
    assert at_threshold.feasible
    assert at_threshold.slack >= -1e-7
    # parent certificate marginalises back to the pair
    a = sigma_xz_pair(SQRT2_INV)
    for x in range(2):
        marg = at_threshold.parent.marginal(x)
        for k in range(2):
            assert np.abs(marg.elements[k] - a.measurements[x].elements[k]).max() < 1e-6
    above = incompat.jm_parent(sigma_xz_pair(0.75))
    assert not above.feasible
    assert above.slack < -1e-3


def test_witness_sharp_pair_value():
    a = sigma_xz_pair()
    w = incompat.witness(a.measurements[0], a.measurements[1])
    # optimal violation for the sharp pair: 4 - 2 sqrt(2) = 1.1715729
    assert abs(w.value - (4.0 - 2.0 * np.sqrt(2.0))) < 1e-6
    assert w.value > 1.0 + 1e-7


def test_witness_compatible_pairs_never_violate():
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        d = 2 if i % 2 else 3
        pair = compatible_pair(d, 2, 2 if i % 3 else 3, rng)
        w = incompat.witness(pair.measurements[0], pair.measurements[1])
        assert w.value <= 1.0 + 1e-7


def test_jm_iff_robustness_on_random_instances():
    for i in range(50):
        rng = np.random.default_rng(1400 + i)
        d = 2 if i % 2 else 3
        pair = compatible_pair(d, 2, 2, rng) if i % 2 == 0 else sharp_pair(d, rng)
        jm = incompat.jm_parent(pair)
        rob = incompat.depolarising_robustness(pair)
        assert jm.feasible == (rob.eta >= 1 - 1e-6), (i, jm.feasible, rob.eta)


def test_noise_monotonicity():
    for i in range(20):
        rng = np.random.default_rng(1300 + i)
        d = 2 if i % 2 else 3
        pair = compatible_pair(d, 2, 2, rng) if i % 3 == 0 else sharp_pair(d, rng)
        e_full = incompat.depolarising_robustness(pair).eta
        e_noisy = incompat.depolarising_robustness(depolarise(pair, 0.8)).eta
        assert e_noisy >= e_full - 1e-7


def test_robustness_of_truncated_counterexample_pair():
    res = incompat.depolarising_robustness(corpus.build("qubit-counterexample"))
    assert abs(res.eta - 0.96592582) < 1e-6
    assert res.verdict == incompat.VERDICT_INCOMPATIBLE


def test_robustness_fully_compressible_pair():
    res = incompat.depolarising_robustness(corpus.build("fully-compressible"))
    assert abs(res.eta - 0.67794429) < 1e-6


def test_incompressibility_bound_values():
    assert abs(incompat.incompressibility_bound(3, 2) - 5.0 / 8.0) < 1e-15
    assert abs(incompat.incompressibility_bound(4, 2) - 7.0 / 15.0) < 1e-15
    assert abs(incompat.incompressibility_bound(4, 4) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        incompat.incompressibility_bound(3, 1)
    with pytest.raises(ValueError):
        incompat.incompressibility_bound(3, 4)


def test_verdict_margins():
    assert incompat.verdict_from_eta(1.0) == incompat.VERDICT_COMPATIBLE
    assert incompat.verdict_from_eta(1 - 5e-7) == incompat.VERDICT_COMPATIBLE
    assert incompat.verdict_from_eta(1 - 5e-4) == incompat.VERDICT_INDETERMINATE
    assert incompat.verdict_from_eta(1 - 2e-3) == incompat.VERDICT_INCOMPATIBLE


def test_three_setting_assemblage_supported():
    # robustness and jm also accept more than two measurements
    rng = np.random.default_rng(55)
    a = Assemblage(2, [random_povm(2, 2, rng) for _ in range(3)])
    res = incompat.depolarising_robustness(a)
    jm = incompat.jm_parent(a)
    assert 0 < res.eta <= 1.0 + 1e-9
    assert jm.feasible == (res.eta >= 1 - 1e-6)


def test_labelled_parent_decides_jm():
    # jm_parent is the labelled parent of the POVM elements, bit for bit
    for key in ("sigma-xz-noisy", "qutrit-pair"):
        a = corpus.build(key)
        feasible, slack, _, blocks = incompat.labelled_parent(
            a.dim, [m.elements for m in a.measurements])
        jm = incompat.jm_parent(a)
        assert (feasible, slack.hex()) == (jm.feasible, jm.slack.hex())
        assert (blocks is None) == (jm.parent is None) == (not feasible)


def test_jm_lhs_and_seesaw_share_one_guard_message():
    rng = np.random.default_rng(37)
    alice = Assemblage(2, [random_povm(2, 2, rng) for _ in range(13)])
    sa = steering.assemblage_from_state(random_mixed_state(2, 2, rng), alice)
    tail = " exceeds guard 4096; problem size is exponential in the number of settings"
    for decide, count in ((lambda: incompat.jm_parent(alice), 2**13),
                          (lambda: steering.lhs_feasible(sa), 2**13),
                          (lambda: coexist.seesaw(2, 5, 5, 1), 2**30)):
        with pytest.raises(ValueError) as exc:
            decide()
        assert str(exc.value) == f"joint outcome count {count}{tail}"
