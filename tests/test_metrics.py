"""Metric oracles for compute_report and MetricAccumulator: direct-loop
RMSE, a brute-force flood fill for component labels, hand medians, and the
exact mask-partition decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightbins.errors import ContractViolation
from heightbins.metrics import (
    EvalReport,
    MetricAccumulator,
    compute_report,
    connected_components,
)


def loop_rmse(pred, gt, mask):
    total, n = 0.0, 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            if mask[i, j]:
                total += (pred[i, j] - gt[i, j]) ** 2
                n += 1
    return None if n == 0 else (total / n) ** 0.5


def test_rmse_identities():
    gt = np.random.default_rng(0).uniform(0, 30, (8, 8))
    assert compute_report(gt, gt).rmse == 0.0
    assert compute_report(gt + 3.0, gt).rmse == pytest.approx(3.0)
    assert compute_report(gt, gt, footprint=np.zeros((8, 8), bool)).rmse_m is None


def test_rmse_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = rng.uniform(0, 50, (8, 8))
        gt = rng.uniform(0, 50, (8, 8))
        mask = rng.random((8, 8)) > 0.4
        rep = compute_report(pred, gt, footprint=mask)
        for got, m in ((rep.rmse, np.ones_like(mask)), (rep.rmse_m, mask), (rep.rmse_nm, ~mask)):
            want = loop_rmse(pred, gt, m)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-12)


def test_rmse_shape_mismatch():
    with pytest.raises(ContractViolation, match="match"):
        compute_report(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ContractViolation, match="match"):
        compute_report(np.zeros((2, 2)), np.zeros((2, 2)), footprint=np.ones((3, 3), bool))


def test_partition_identity_exact():
    rng = np.random.default_rng(2)
    pred = rng.uniform(0, 50, (8, 8))
    gt = rng.uniform(0, 50, (8, 8))
    m = gt > 1.0
    n, n_m, n_nm = gt.size, int(m.sum()), int((~m).sum())
    rep = compute_report(pred, gt, footprint=m)
    assert rep.rmse**2 * n == pytest.approx(rep.rmse_m**2 * n_m + rep.rmse_nm**2 * n_nm, rel=1e-12)


def test_rmse_bg_follows_fg_threshold():
    # the 1.5 m row lies below a 2.0 m threshold, so it belongs to BG
    gt = np.zeros((4, 4))
    gt[1] = 1.5
    gt[3] = 10.0
    pred = gt + 0.1
    pred[1] += 0.9
    rep = compute_report(pred, gt, fg_threshold=2.0)
    assert rep.rmse_bg == pytest.approx(loop_rmse(pred, gt, gt < 2.0), rel=1e-12)
    assert rep.rmse_bg == pytest.approx(np.sqrt((8 * 0.1**2 + 4 * 1.0**2) / 12), rel=1e-12)


# --- connected components -----------------------------------------------------


def flood_fill_labels(mask):
    """Oracle: 4-connected flood fill, labels in row-major first-pixel order."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    count = 0
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or labels[si, sj]:
                continue
            count += 1
            stack = [(si, sj)]
            labels[si, sj] = count
            while stack:
                i, j = stack.pop()
                for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] and not labels[ni, nj]:
                        labels[ni, nj] = count
                        stack.append((ni, nj))
    return labels, count


def test_component_count_basics():
    assert connected_components(np.zeros((4, 4), bool))[1] == 0
    two = np.zeros((6, 6), bool)
    two[0:2, 0:2] = True
    two[4:6, 4:6] = True
    labels, count = connected_components(two)
    assert count == 2
    assert labels[0, 0] == 1 and labels[4, 4] == 2  # row-major first-pixel order


def test_diagonal_pixels_split_under_4_connectivity():
    diag = np.eye(4, dtype=bool)
    assert connected_components(diag)[1] == 4


def test_labels_match_flood_fill_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(1, 33, 2))
        mask = rng.random((h, w)) > rng.uniform(0.2, 0.8)
        labels, count = connected_components(mask)
        want, want_count = flood_fill_labels(mask)
        assert count == want_count
        np.testing.assert_array_equal(labels, want)


def test_translation_invariance():
    mask = np.zeros((10, 10), bool)
    mask[1:3, 1:4] = True
    mask[6, 7] = True
    shifted = np.roll(mask, (2, 3), axis=(0, 1))
    assert connected_components(mask)[1] == connected_components(shifted)[1]


def test_large_snake_does_not_recurse_out():
    mask = np.zeros((64, 64), bool)
    mask[::2, :] = True
    for i in range(1, 63, 4):
        mask[i, -1] = True
        mask[i + 2, 0] = True
    labels, count = connected_components(mask)
    assert count == 1
    want, _ = flood_fill_labels(mask)
    np.testing.assert_array_equal(labels, want)


# --- building-wise ------------------------------------------------------------


def test_buildingwise_hand_median_case():
    gt = np.zeros((3, 3))
    pred = np.zeros((3, 3))
    fp = np.zeros((3, 3), bool)
    fp[0, 0] = fp[0, 1] = fp[0, 2] = True
    gt[0] = [10, 10, 12]
    pred[0] = [8, 9, 100]
    assert compute_report(pred, gt, footprint=fp).rmse_b == pytest.approx(1.0)


def test_buildingwise_trivials():
    gt = np.random.default_rng(4).uniform(2, 20, (6, 6))
    fp = np.zeros((6, 6), bool)
    fp[1:3, 1:3] = True
    fp[4:6, 4:6] = True
    assert compute_report(gt, gt, footprint=fp).rmse_b == 0.0
    pred = gt.copy()
    pred[1:3, 1:3] += 1.0
    pred[4:6, 4:6] -= 1.0
    assert compute_report(pred, gt, footprint=fp).rmse_b == pytest.approx(1.0)
    assert compute_report(pred, gt, footprint=np.zeros((6, 6), bool)).rmse_b is None


def test_even_count_median_is_mean_of_middle_two():
    gt = np.zeros((1, 4))
    pred = np.zeros((1, 4))
    fp = np.ones((1, 4), bool)
    gt[0] = [1, 2, 3, 4]  # median 2.5
    pred[0] = [1, 2, 3, 10]  # median 2.5
    assert compute_report(pred, gt, footprint=fp).rmse_b == pytest.approx(0.0)


# --- accuracy -----------------------------------------------------------------


def gate_accuracy(p_fg, gt):
    return compute_report(gt, gt, fg_prob=p_fg).htc_accuracy


def test_htc_accuracy_cases():
    gt = np.array([[0.0, 5.0], [2.0, 0.5]])
    perfect = (gt > 1.0).astype(float)
    assert gate_accuracy(perfect, gt) == 1.0
    assert gate_accuracy(1.0 - perfect, gt) == 0.0
    half = perfect.copy()
    half[0] = 1.0 - half[0]
    assert gate_accuracy(half, gt) == 0.5
    # the gate is scored against the report's own threshold
    assert compute_report(gt, gt, fg_prob=perfect, fg_threshold=3.0).htc_accuracy == 0.75


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_accuracy_bounds(seed):
    rng = np.random.default_rng(seed)
    p = rng.random((5, 5))
    gt = rng.uniform(0, 3, (5, 5))
    assert 0.0 <= gate_accuracy(p, gt) <= 1.0


# --- report and accumulator ----------------------------------------------------


def test_compute_report_fields_and_validation():
    rng = np.random.default_rng(5)
    gt = np.zeros((8, 8))
    gt[2:5, 2:5] = 12.0
    pred = gt + rng.normal(0, 0.5, (8, 8))
    rep = compute_report(pred, gt, fg_prob=(gt > 1.0).astype(float))
    rep.validate()
    assert rep.building_count == 1
    assert rep.htc_accuracy == 1.0
    assert rep.rmse_bg == pytest.approx(loop_rmse(pred, gt, gt < 1.0), rel=1e-12)
    d = rep.to_dict()
    assert set(d) == {
        "rmse",
        "rmse_m",
        "rmse_nm",
        "rmse_b",
        "rmse_bg",
        "htc_accuracy",
        "building_count",
        "per_building_errors",
    }
    assert "rmse_b" in rep.format_text()
    assert "undefined" not in rep.format_text()


def test_report_undefined_lines():
    rep = compute_report(np.zeros((4, 4)), np.zeros((4, 4)))
    assert rep.rmse_m is None and rep.rmse_b is None and rep.htc_accuracy is None
    assert rep.building_count == 0
    assert "undefined" in rep.format_text()
    assert '"rmse_m": null' in rep.to_json()


def test_accumulator_pools_like_concatenation():
    rng = np.random.default_rng(6)
    acc = MetricAccumulator()
    preds, gts = [], []
    for _ in range(3):
        gt = np.zeros((6, 6))
        gt[1:3, 1:3] = rng.uniform(5, 15)
        pred = gt + rng.normal(0, 1, (6, 6))
        acc.add(pred, gt, fg_prob=rng.random((6, 6)))
        preds.append(pred)
        gts.append(gt)
    rep = acc.report()
    big_pred = np.concatenate([p.reshape(-1) for p in preds]).reshape(1, -1)
    big_gt = np.concatenate([g.reshape(-1) for g in gts]).reshape(1, -1)
    whole = compute_report(big_pred, big_gt)
    assert rep.rmse == pytest.approx(whole.rmse)
    assert rep.rmse_m == pytest.approx(whole.rmse_m)
    assert rep.building_count == 3


def test_footprint_mask_separates_nm_from_bg():
    # a tall non-building pixel (e.g. a tree) belongs to NM but not BG
    gt = np.zeros((4, 4))
    gt[0, 0] = 10.0  # building
    gt[3, 3] = 4.0  # tall, no footprint
    fp = np.zeros((4, 4), bool)
    fp[0, 0] = True
    pred = gt + 1.0
    rep = compute_report(pred, gt, footprint=fp)
    assert rep.building_count == 1
    assert rep.rmse_m == pytest.approx(loop_rmse(pred, gt, fp))
    assert rep.rmse_nm == pytest.approx(loop_rmse(pred, gt, ~fp))
    assert rep.rmse_bg == pytest.approx(loop_rmse(pred, gt, gt < 1.0))
    # NM has 15 pixels, BG has 14: values coincide here (constant error) but masks differ
    n_nm = int((~fp).sum())
    n_bg = int((gt < 1.0).sum())
    assert n_nm == 15 and n_bg == 14


def test_report_invariant_violations_raise():
    with pytest.raises(ContractViolation, match="htc_accuracy"):
        EvalReport(1.0, None, None, None, None, 1.5, 0, []).validate()
    with pytest.raises(ContractViolation, match="per-building"):
        EvalReport(1.0, None, None, None, None, None, 2, [0.5]).validate()
