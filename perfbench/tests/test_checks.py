"""Each of the benchmark's checks accepts a right input and rejects a wrong one.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


@pytest.fixture
def scene():
    rng = np.random.default_rng(0)
    heights = rng.uniform(0.0, 0.9, (3, 1, 16, 16))
    footprints = np.zeros_like(heights)
    footprints[0, 0, 2:5, 2:5] = 1.0  # one building
    footprints[1, 0, 0:3, 0:3] = 1.0  # two buildings touching only at a corner
    footprints[1, 0, 3:6, 3:6] = 1.0
    footprints[2, 0, 8:12, 1:15] = 1.0  # one building
    heights[footprints > 0.5] = 12.0
    preds = heights + rng.normal(0.0, 0.5, heights.shape)
    return preds, heights, footprints


def _rmse(preds, heights, footprints):
    sq = (preds - heights) ** 2
    return float(np.sqrt(sq.mean())), float(np.sqrt(sq[footprints > 0.5].mean()))


def test_rmse_oracle_accepts_matching_report(scene):
    preds, heights, footprints = scene
    checks.check_rmse_oracle(preds, heights, footprints, *_rmse(preds, heights, footprints))


def test_rmse_oracle_rejects_perturbed_prediction(scene):
    preds, heights, footprints = scene
    rmse, rmse_m = _rmse(preds, heights, footprints)
    perturbed = preds.copy()
    perturbed[1, 0, 4, 4] += 1e-3  # a building pixel
    with pytest.raises(CheckFailed, match="rmse"):
        checks.check_rmse_oracle(perturbed, heights, footprints, rmse, rmse_m)


def test_rmse_oracle_rejects_building_rmse_off_by_more_than_tolerance(scene):
    preds, heights, footprints = scene
    rmse, rmse_m = _rmse(preds, heights, footprints)
    with pytest.raises(CheckFailed, match="rmse_m"):
        checks.check_rmse_oracle(preds, heights, footprints, rmse, rmse_m + 1e-8)


def test_rmse_oracle_rejects_defined_building_rmse_without_buildings(scene):
    preds, heights, _ = scene
    rmse, _ = _rmse(preds, heights, np.ones_like(heights))
    with pytest.raises(CheckFailed, match="rmse_m"):
        checks.check_rmse_oracle(preds, heights, np.zeros_like(heights), rmse, 1.0)


def test_building_count_accepts_four_connected_count(scene):
    _, _, footprints = scene
    checks.check_building_count(footprints, 4)


@pytest.mark.parametrize("wrong", [3, 5, 0])
def test_building_count_rejects_wrong_count(scene, wrong):
    _, _, footprints = scene
    with pytest.raises(CheckFailed, match="buildings"):
        checks.check_building_count(footprints, wrong)


def test_height_range_accepts_heights_on_the_bounds():
    checks.check_height_range(np.array([0.0, 50.0, 100.0]), 0.0, 100.0)


@pytest.mark.parametrize("bad", [-1e-9, 100.0 + 1e-9, np.nan])
def test_height_range_rejects_height_outside_range(bad):
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_height_range(np.array([1.0, bad, 2.0]), 0.0, 100.0)


def test_batch_consistency_accepts_agreement_within_tolerance():
    batched = np.linspace(0.0, 10.0, 32).reshape(2, 1, 4, 4)
    checks.check_batch_consistency(batched + 1e-12, batched)


def test_batch_consistency_rejects_differing_batch1_prediction():
    batched = np.linspace(0.0, 10.0, 32).reshape(2, 1, 4, 4)
    single = batched.copy()
    single[1, 0, 3, 3] += 1e-6
    with pytest.raises(CheckFailed, match="differ"):
        checks.check_batch_consistency(single, batched)


def test_batch_consistency_rejects_shape_mismatch():
    batched = np.zeros((2, 1, 4, 4))
    with pytest.raises(CheckFailed, match="shape"):
        checks.check_batch_consistency(batched[:1], batched)


def test_loss_falls_accepts_falling_curve():
    checks.check_loss_falls([20.0, 15.0, 12.5])


@pytest.mark.parametrize("curve", [[10.0, 10.0], [10.0, 8.0, 11.0], [10.0]])
def test_loss_falls_rejects_curve_that_does_not_fall(curve):
    with pytest.raises(CheckFailed):
        checks.check_loss_falls(curve)


def test_reload_rmse_accepts_equal_and_rejects_different():
    checks.check_reload_rmse(1.25, 1.25)
    with pytest.raises(CheckFailed, match="val rmse"):
        checks.check_reload_rmse(1.25, 1.25 + 1e-15)


def test_read_hmr_reads_values_from_the_layout(tmp_path):
    values = np.arange(6, dtype="<f4").reshape(1, 2, 3)
    header = json.dumps(
        {"width": 3, "height": 2, "channels": 1, "gsd": 1.0, "kind": "height",
         "dtype": "f32", "length": values.nbytes}
    ).encode()
    body = b"HMR1\0\0\0\0" + struct.pack("<I", len(header)) + header + values.tobytes()
    path = tmp_path / "h.hmr"
    path.write_bytes(body + b"\0\0\0\0")
    np.testing.assert_array_equal(checks.read_hmr(path), values.astype(np.float64))
