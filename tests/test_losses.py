"""Loss oracles: quadrature round-trips for the scale solvers, the reference
CDF against closed forms, brute-force nearest-neighbor chamfer, hand BCE,
KL properties through dc_loss, weighted totals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf as sp_erf

from heightbins.errors import ConfigError, ContractViolation
from heightbins.gradcheck import check_gradients
from heightbins.head import build_bins
from heightbins.errors import DomainError
from heightbins.losses import (
    LossConfig,
    _family_probs_grid,
    average_pool_gt,
    build_reference_probs,
    chamfer_bin_loss,
    dc_loss,
    htc_loss_logits,
    l1_height_loss,
    solve_gaussian_sigma,
    solve_laplace_b,
    total_loss,
)
from heightbins.tensor import Tensor, softmax


# --- scale solvers ----------------------------------------------------------


def gaussian_pdf(x, mu, sigma):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))


def laplace_pdf(x, mu, b):
    return np.exp(-np.abs(x - mu) / b) / (2 * b)


@pytest.mark.parametrize("p_m", [0.05, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
def test_gaussian_sigma_round_trip_by_quadrature(p_m, delta):
    sigma = solve_gaussian_sigma(p_m, delta)
    mass, _ = quad(gaussian_pdf, -delta / 2, delta / 2, args=(0.0, sigma))
    assert mass == pytest.approx(p_m, abs=1e-9)


@pytest.mark.parametrize("p_m", [0.05, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
def test_laplace_b_round_trip_by_quadrature(p_m, delta):
    b = solve_laplace_b(p_m, delta)
    mass, _ = quad(laplace_pdf, -delta / 2, delta / 2, args=(0.0, b))
    assert mass == pytest.approx(p_m, abs=1e-9)


@pytest.mark.parametrize("p_m", [0.05, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
def test_uniform_bin_mass_by_interval_overlap(p_m, delta):
    # the GT value 7.0 sits at the center of bin 1; the support spans delta/p_m
    lo, hi = 7.0 - delta / 2, 7.0 + delta / 2
    edges = np.array([lo - 1000.0, lo, hi, hi + 1000.0])
    probs = grid_probs("uniform", edges, 7.0, p_m)
    assert probs[1] == pytest.approx(p_m, abs=1e-12)


def test_gaussian_anchor_sigma_one():
    # P_m = erf(1/sqrt(2)) is the mass of N(0,1) on [-1,1], so sigma=1 at delta=2
    p_m = sp_erf(1.0 / np.sqrt(2.0))
    assert solve_gaussian_sigma(p_m, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert solve_gaussian_sigma(0.5, 2.0) == pytest.approx(1.482602218505602, abs=1e-6)


def test_laplace_anchor_b_one():
    p_m = 1.0 - np.exp(-1.0)
    assert solve_laplace_b(p_m, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_laplace_blows_up_as_pm_vanishes():
    assert solve_laplace_b(1e-9, 2.0) > 1e8


def test_solver_monotonicity_in_pm():
    grid = np.linspace(0.05, 0.95, 19)
    sigmas = solve_gaussian_sigma(grid, 2.0)
    bs = solve_laplace_b(grid, 2.0)
    assert np.all(np.diff(sigmas) < 0)
    assert np.all(np.diff(bs) < 0)


def test_uniform_bounds_examples():
    # P_m = 0.5 in the width-2 bin [9, 11] around 10: support [8, 12]
    edges = np.array([6.0, 8.0, 9.0, 11.0, 12.0, 14.0])
    np.testing.assert_allclose(
        grid_probs("uniform", edges, 10.0, 0.5), [0.0, 0.25, 0.5, 0.25, 0.0], atol=1e-12
    )
    # P_m = 1 shrinks the support to the containing bin itself
    np.testing.assert_allclose(
        grid_probs("uniform", edges, 10.0, 1.0), [0.0, 0.0, 1.0, 0.0, 0.0], atol=1e-12
    )


def test_nonpositive_delta_rejected():
    for fn in (solve_gaussian_sigma, solve_laplace_b):
        with pytest.raises(ContractViolation):
            fn(0.5, 0.0)


# --- reference bin probabilities --------------------------------------------


def grid_probs(family, edges, location, p_m):
    """Reference probabilities of one pixel through the training CDF."""
    loc = np.array([[location]], dtype=np.float64)
    pm = np.array([[p_m]], dtype=np.float64)
    return _family_probs_grid(family, np.asarray(edges, dtype=np.float64), loc, pm)[:, 0, 0]


def test_gaussian_reference_over_unit_edges():
    # P_m = erf(1/sqrt(2)) in the width-2 center bin solves to sigma = 1
    p_m = float(sp_erf(1.0 / np.sqrt(2.0)))
    probs = grid_probs("gaussian", [-3.0, -1.0, 1.0, 3.0], 0.0, p_m)
    np.testing.assert_allclose(probs, [0.157305, 0.682689, 0.157305], atol=1e-5)


def test_tiny_sigma_concentrates_in_containing_bin():
    bins = build_bins(Tensor(np.full((1, 10), 0.1)), 0.0, 100.0)
    probs = grid_probs("gaussian", bins.edges.data[0], 55.0, 1.0 - 1e-13)
    assert probs[5] == pytest.approx(1.0, abs=1e-12)


def test_uniform_spanning_bins_gives_proportional_mass():
    # 2.0 ties into bin [1, 2]; P_m = 0.25 in that width-1 bin gives support [0, 4]
    edges = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    probs = grid_probs("uniform", edges, 2.0, 0.25)
    np.testing.assert_allclose(probs, [0.25, 0.25, 0.5, 0.0], atol=1e-12)


def test_delta_reference_and_edge_tie_breaks_low():
    edges = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    one_hot = grid_probs("delta", edges, 2.0, 0.5)
    np.testing.assert_array_equal(one_hot, [0, 1, 0, 0])
    on_edge = grid_probs("delta", edges, 3.0, 0.5)
    np.testing.assert_array_equal(on_edge, [0, 1, 0, 0])  # lower bin wins
    at_max = grid_probs("delta", edges, 10.0, 0.5)
    np.testing.assert_array_equal(at_max, [0, 0, 0, 1])


def test_none_reference_is_zero():
    probs = grid_probs("none", [0.0, 1.0], 5.0, 0.5)
    np.testing.assert_array_equal(probs, [0.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_reference_mass_never_exceeds_one(seed):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(0, 100, 9))
    edges[0], edges[-1] = 0.0, 100.0
    fam = str(rng.choice(["gaussian", "laplace", "uniform"]))
    probs = grid_probs(fam, edges, float(rng.uniform(0, 100)), float(rng.uniform(1e-3, 1 - 1e-3)))
    assert np.all(probs >= 0)
    assert probs.sum() <= 1.0 + 1e-12


@pytest.mark.parametrize("family", ["gaussian", "laplace", "uniform"])
def test_containing_bin_attains_max_for_centered_unimodal(family):
    edges = np.linspace(0.0, 100.0, 11)
    center = 0.5 * (edges[4] + edges[5])
    probs = grid_probs(family, edges, center, 0.6)
    assert np.argmax(probs) == 4


def test_invalid_family_and_scale_rejected():
    edges = [0.0, 1.0, 2.0]
    with pytest.raises(ConfigError, match="family"):
        grid_probs("cauchy", edges, 0.5, 0.5)
    # P_m = 1 would need a Gaussian of zero scale
    with pytest.raises(DomainError, match="P_m"):
        grid_probs("gaussian", edges, 0.5, 1.0)


# --- KL ----------------------------------------------------------------------


def kl_through_dc_loss(p_ref, p):
    """KL(p_ref || p) of one pixel as dc_loss computes it on the tape."""
    n = len(p)
    probs = Tensor(np.asarray(p, dtype=np.float64).reshape(1, n, 1, 1))
    bins = build_bins(Tensor(np.full((1, n), 1.0 / n)), 0.0, 1.0)
    ref = np.asarray(p_ref, dtype=np.float64).reshape(1, n, 1, 1)
    return float(dc_loss(probs, np.zeros((1, 1, 1, 1)), bins, LossConfig(), frozen_ref=ref).data)


def test_kl_zero_at_equality_and_log2_case():
    p = np.array([0.3, 0.7])
    assert kl_through_dc_loss(p, p) == pytest.approx(0.0, abs=1e-15)
    assert kl_through_dc_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        np.log(2.0), abs=1e-12
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    p_ref = rng.dirichlet(np.ones(n))
    p = rng.dirichlet(np.ones(n))
    assert kl_through_dc_loss(p_ref, p) >= 0.0


# --- simple losses -----------------------------------------------------------


def test_l1_identities_and_oracle():
    rng = np.random.default_rng(0)
    gt = rng.uniform(0, 50, (2, 1, 4, 4))
    assert float(l1_height_loss(Tensor(gt), gt).data) == 0.0
    assert float(l1_height_loss(Tensor(gt + 2.0), gt).data) == pytest.approx(2.0)
    pred = rng.uniform(0, 50, (2, 1, 4, 4))
    want = 0.0
    for v, g in zip(pred.reshape(-1), gt.reshape(-1)):
        want += abs(v - g)
    want /= pred.size
    assert float(l1_height_loss(Tensor(pred), gt).data) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ContractViolation, match="shapes"):
        l1_height_loss(Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 3, 3)))


def chamfer_oracle(edges, gt):
    d1 = np.mean([min((e - g) ** 2 for g in gt) for e in edges])
    d2 = np.mean([min((e - g) ** 2 for e in edges) for g in gt])
    return d1 + d2


def test_chamfer_identities_and_known_case():
    edges = np.array([0.0, 1.0, 3.0])
    same = chamfer_bin_loss(Tensor(edges), edges.copy())
    assert float(same.data) == 0.0
    half = chamfer_bin_loss(Tensor(np.array([0.0, 1.0])), np.array([0.5]))
    assert float(half.data) == pytest.approx(0.5)


def test_chamfer_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        edges = np.sort(rng.uniform(0, 100, rng.integers(2, 9)))
        gt = rng.uniform(0, 100, rng.integers(1, 12))
        got = float(chamfer_bin_loss(Tensor(edges), gt).data)
        assert got == pytest.approx(chamfer_oracle(edges, gt), abs=1e-12)


def test_adding_gt_at_existing_edge_never_increases():
    rng = np.random.default_rng(2)
    for _ in range(20):
        edges = np.sort(rng.uniform(0, 10, 5))
        gt = rng.uniform(0, 10, 6)
        base = float(chamfer_bin_loss(Tensor(edges), gt).data)
        widened = np.append(gt, edges[2])
        after = float(chamfer_bin_loss(Tensor(edges), widened).data)
        assert after <= base + 1e-12


def test_chamfer_subsampling_and_empty_gt():
    edges = Tensor(np.array([0.0, 5.0]))
    gt = np.linspace(0, 10, 101)
    capped = float(chamfer_bin_loss(edges, gt, max_points=11).data)
    manual = float(chamfer_bin_loss(edges, gt[::10]).data)
    assert capped == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ContractViolation, match="empty"):
        chamfer_bin_loss(edges, np.array([]))


def test_chamfer_gradients():
    rng = np.random.default_rng(3)
    edges = Tensor(np.sort(rng.uniform(0, 10, 5)), requires_grad=True)
    gt = rng.uniform(0, 10, 7)
    check_gradients(lambda: chamfer_bin_loss(edges, gt), [edges], name="chamfer")


def bce_oracle(p, gt, threshold=1.0):
    """Mean binary cross-entropy of gate probabilities, pixel by pixel."""
    total = 0.0
    for q, g in zip(np.ravel(p), np.ravel(gt)):
        total -= np.log(q) if g > threshold else np.log(1.0 - q)
    return total / np.size(p)


def test_htc_loss_half_gate_is_log2():
    gate = Tensor(np.zeros((1, 1, 2, 2)))
    gt = np.array([[[[0.0, 5.0], [2.0, 0.3]]]])
    assert float(htc_loss_logits(gate, gt).data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_htc_loss_confident_correct_goes_to_zero():
    gt = np.array([[[[0.0, 5.0], [2.0, 0.3]]]])
    logits = Tensor(np.where(gt > 1.0, 40.0, -40.0))
    assert float(htc_loss_logits(logits, gt).data) < 1e-7


def test_htc_loss_hand_computed_2x2():
    gt = np.array([[[[0.0, 5.0], [2.0, 0.3]]]])  # labels 0,1,1,0
    p = np.array([[[[0.2, 0.9], [0.6, 0.4]]]])
    want = -(np.log(0.8) + np.log(0.9) + np.log(0.6) + np.log(0.6)) / 4
    got = float(htc_loss_logits(Tensor(np.log(p / (1.0 - p))), gt).data)
    assert got == pytest.approx(want, rel=1e-12)


def test_htc_loss_logits_matches_probability_form():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1, 1, 4, 4)) * 3.0
    gt = rng.uniform(0, 3, (1, 1, 4, 4))
    via_probs = bce_oracle(1.0 / (1.0 + np.exp(-z)), gt)
    via_logits = float(htc_loss_logits(Tensor(z), gt).data)
    assert via_logits == pytest.approx(via_probs, rel=1e-9)
    # zero logits give the coin-flip entropy regardless of labels
    assert float(htc_loss_logits(Tensor(np.zeros((1, 1, 2, 2))), gt[:, :, :2, :2]).data) == (
        pytest.approx(np.log(2.0))
    )
    # stays finite and linear-ish where the sigmoid saturates
    extreme = Tensor(np.full((1, 1, 2, 2), 40.0))
    val = float(htc_loss_logits(extreme, np.zeros((1, 1, 2, 2))).data)
    assert val == pytest.approx(40.0, rel=1e-12)


def test_htc_loss_gradients():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
    gt = rng.uniform(0, 3, (1, 1, 3, 3))
    check_gradients(lambda: htc_loss_logits(logits, gt), [logits], name="htc")


# --- dc loss -----------------------------------------------------------------


def make_probs(rng, shape):
    return softmax(Tensor(rng.standard_normal(shape)), axis=1)


def test_dc_loss_zero_when_prediction_equals_reference():
    rng = np.random.default_rng(5)
    probs = make_probs(rng, (1, 6, 2, 2))
    bins = build_bins(Tensor(np.full((1, 6), 1 / 6)), 0.0, 12.0)
    frozen = probs.data.copy()
    cfg = LossConfig(fg_family="gaussian", bg_family="gaussian")
    loss = dc_loss(probs, np.full((1, 1, 2, 2), 3.0), bins, cfg, frozen_ref=frozen)
    assert abs(float(loss.data)) < 1e-12


def test_dc_loss_matches_numpy_kl_oracle():
    rng = np.random.default_rng(6)
    probs = make_probs(rng, (2, 5, 3, 3))
    bins = build_bins(softmax(Tensor(rng.standard_normal((2, 5))), axis=-1), 0.0, 40.0)
    gt = rng.uniform(0, 40, (2, 1, 3, 3))
    cfg = LossConfig(fg_family="laplace", bg_family="uniform", fg_threshold=20.0)
    ref = build_reference_probs(probs.data, gt, bins.edges.data, cfg)
    got = float(dc_loss(probs, gt, bins, cfg).data)

    def kl(p_ref, p):
        return sum(r * (np.log(r) - np.log(q)) for r, q in zip(p_ref, p) if r > 0)

    want = np.mean(
        [
            kl(ref[b, :, i, j], probs.data[b, :, i, j])
            for b in range(2)
            for i in range(3)
            for j in range(3)
        ]
    )
    assert got == pytest.approx(want, rel=1e-10)


def test_dc_loss_none_families_contribute_zero():
    rng = np.random.default_rng(7)
    probs = make_probs(rng, (1, 4, 2, 2))
    bins = build_bins(Tensor(np.full((1, 4), 0.25)), 0.0, 8.0)
    cfg = LossConfig(fg_family="none", bg_family="none")
    assert float(dc_loss(probs, np.ones((1, 1, 2, 2)), bins, cfg).data) == 0.0
    # fg none, bg active: only bg pixels contribute
    cfg2 = LossConfig(fg_family="none", bg_family="delta")
    gt = np.array([[[[0.2, 5.0], [0.2, 5.0]]]])  # two bg, two fg pixels
    ref = build_reference_probs(probs.data, gt, bins.edges.data, cfg2)
    assert np.all(ref[0, :, :, 1] == 0)  # fg column zeroed
    assert ref[0, :, :, 0].sum() == pytest.approx(2.0)  # delta rows on bg pixels


def test_dc_loss_gradients_with_frozen_reference():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.standard_normal((1, 5, 2, 2)), requires_grad=True)
    bins = build_bins(Tensor(np.full((1, 5), 0.2)), 0.0, 10.0)
    gt = rng.uniform(0, 10, (1, 1, 2, 2))
    cfg = LossConfig(fg_family="gaussian", bg_family="uniform")
    ref = build_reference_probs(
        softmax(Tensor(logits.data), axis=1).data, gt, bins.edges.data, cfg
    )
    check_gradients(
        lambda: dc_loss(softmax(logits, axis=1), gt, bins, cfg, frozen_ref=ref),
        [logits],
        name="dc",
    )


def test_pm_constant_source():
    rng = np.random.default_rng(9)
    probs = make_probs(rng, (1, 4, 2, 2))
    bins = build_bins(Tensor(np.full((1, 4), 0.25)), 0.0, 8.0)
    gt = np.full((1, 1, 2, 2), 3.0)
    cfg = LossConfig(fg_family="gaussian", bg_family="gaussian", pm_source="constant", pm_constant=0.7)
    ref = build_reference_probs(probs.data, gt, bins.edges.data, cfg)
    # all pixels identical gt and constant P_m -> identical reference rows
    assert np.ptp(ref, axis=(2, 3)).max() == 0.0


# --- total loss ---------------------------------------------------------------


class FakeOutput:
    """The HeadOutput fields total_loss reads, for a head without a gate."""

    def __init__(self, heights, probs, bins):
        self.heights = heights
        self.probs = probs
        self.bins = bins
        self.fg_logit = None


def test_total_loss_single_level_mu_zero_equals_l1():
    rng = np.random.default_rng(10)
    bins = build_bins(Tensor(np.full((1, 4), 0.25)), 0.0, 20.0)
    probs = make_probs(rng, (1, 4, 4, 4))
    heights = Tensor(rng.uniform(0, 20, (1, 1, 4, 4)))
    gt = rng.uniform(0, 20, (1, 1, 4, 4))
    out = FakeOutput(heights, probs, bins)
    cfg = LossConfig(mu1=0.0, mu2=0.0, mu3=0.0, lambdas=(1.0,), fg_family="none", bg_family="none")
    total, comps = total_loss({"F5": out}, gt, cfg)
    assert float(total.data) == pytest.approx(float(l1_height_loss(heights, gt).data))
    assert comps["F5/chamfer"] >= 0 and comps["F5/htc"] == 0.0


def test_total_loss_two_level_hand_weighted():
    rng = np.random.default_rng(11)
    gt = rng.uniform(0, 20, (1, 1, 4, 4))

    def fake(level_hw):
        bins = build_bins(Tensor(np.full((1, 3), 1 / 3)), 0.0, 20.0)
        probs = make_probs(rng, (1, 3, level_hw, level_hw))
        heights = Tensor(rng.uniform(0, 20, (1, 1, level_hw, level_hw)))
        return FakeOutput(heights, probs, bins)

    a, b = fake(2), fake(4)
    cfg = LossConfig(mu1=0.5, mu2=1.0, mu3=1.0, lambdas=(0.25, 1.0), fg_family="delta", bg_family="none")
    total, comps = total_loss({"F3": a, "F5": b}, gt, cfg)
    want = 0.0
    for lam, lvl in ((0.25, "F3"), (1.0, "F5")):
        want += lam * (
            comps[f"{lvl}/l1"] + 0.5 * comps[f"{lvl}/chamfer"] + comps[f"{lvl}/htc"] + comps[f"{lvl}/dc"]
        )
    assert float(total.data) == pytest.approx(want, rel=1e-12)


def test_total_loss_level_count_mismatch():
    rng = np.random.default_rng(12)
    bins = build_bins(Tensor(np.full((1, 3), 1 / 3)), 0.0, 20.0)
    out = FakeOutput(
        Tensor(rng.uniform(0, 20, (1, 1, 2, 2))), make_probs(rng, (1, 3, 2, 2)), bins
    )
    cfg = LossConfig(lambdas=(0.5, 1.0))
    with pytest.raises(ConfigError, match="lambdas count"):
        total_loss({"F5": out}, rng.uniform(0, 20, (1, 1, 2, 2)), cfg)


def test_average_pool_gt():
    gt = np.arange(16.0).reshape(1, 1, 4, 4)
    pooled = average_pool_gt(gt, 2)
    np.testing.assert_allclose(pooled[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    np.testing.assert_array_equal(average_pool_gt(gt, 1), gt)


def test_loss_config_validation():
    LossConfig().validate()
    with pytest.raises(ConfigError, match="fg_family"):
        LossConfig(fg_family="cauchy").validate()
    with pytest.raises(ConfigError, match="nondecreasing"):
        LossConfig(lambdas=(1.0, 0.5)).validate()
    with pytest.raises(ConfigError, match="nonnegative"):
        LossConfig(mu1=-0.1).validate()
    with pytest.raises(ConfigError, match="pm_clamp"):
        LossConfig(pm_clamp=(0.5, 0.2)).validate()
    with pytest.raises(ConfigError, match="pm_source"):
        LossConfig(pm_source="oracle").validate()
