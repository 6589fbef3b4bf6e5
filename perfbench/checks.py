"""Correctness checks the benchmark applies to the program's outputs.

Each check compares an output against an independent computation (plain
numpy, ``scipy.ndimage``) or against a property the method must have, and
raises ``CheckFailed`` with the reason when it does not hold.  The checks
take plain numbers and arrays, so they import nothing from the program.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage

ORACLE_TOL = 1e-9
BATCH_TOL = 1e-9

# 4-connectivity, matching MetricAccumulator's default
_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


class CheckFailed(Exception):
    """An output of the program disagreed with its oracle or property."""


def read_hmr(path: str | Path) -> np.ndarray:
    """Values of an HMR1 raster as a float64 (channels, height, width) array.

    A reader of its own, so the oracle does not share the program's parser.
    """
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len])
    shape = (header["channels"], header["height"], header["width"])
    values = np.frombuffer(raw, dtype="<f4", count=int(np.prod(shape)), offset=12 + header_len)
    return values.reshape(shape).astype(np.float64)


def check_loss_falls(loss_curve: list[float]) -> None:
    """The last epoch's mean train loss lies below the first epoch's."""
    if len(loss_curve) < 2:
        raise CheckFailed(f"a loss curve needs two epochs to fall, got {len(loss_curve)}")
    if not loss_curve[-1] < loss_curve[0]:
        raise CheckFailed(
            f"train loss did not fall: first epoch {loss_curve[0]!r}, last {loss_curve[-1]!r}"
        )


def check_reload_rmse(meta_val_rmse: float, reloaded_val_rmse: float) -> None:
    """The reloaded best checkpoint reproduces the val RMSE it was saved with."""
    if reloaded_val_rmse != meta_val_rmse:
        raise CheckFailed(
            f"reloaded checkpoint gives val rmse {reloaded_val_rmse!r}, "
            f"its meta records {meta_val_rmse!r}"
        )


def check_rmse_oracle(
    preds: np.ndarray,
    heights: np.ndarray,
    footprints: np.ndarray,
    rmse: float,
    rmse_m: float | None,
    tol: float = ORACLE_TOL,
) -> None:
    """Pooled and building-pixel RMSE, recomputed from the rasters, match the report."""
    sq = (np.asarray(preds, dtype=np.float64) - heights) ** 2
    building = footprints > 0.5
    want = {
        "rmse": float(np.sqrt(sq.mean())),
        "rmse_m": float(np.sqrt(sq[building].mean())) if building.any() else None,
    }
    got = {"rmse": rmse, "rmse_m": rmse_m}
    for name, expected in want.items():
        value = got[name]
        if (expected is None) != (value is None) or (
            expected is not None and abs(value - expected) > tol
        ):
            raise CheckFailed(f"report {name} {value!r}, oracle {expected!r}")


def building_count_oracle(footprints: np.ndarray) -> int:
    """4-connected footprint components summed over (N, 1, H, W) patches."""
    return sum(
        ndimage.label(fp[0] > 0.5, structure=_FOUR_CONNECTED)[1] for fp in footprints
    )


def check_building_count(footprints: np.ndarray, building_count: int) -> None:
    expected = building_count_oracle(footprints)
    if building_count != expected:
        raise CheckFailed(f"report counts {building_count} buildings, scipy labels {expected}")


def check_height_range(preds: np.ndarray, h_min: float, h_max: float) -> None:
    """Hybrid regression is a convex mix of bin centres, so it stays in range."""
    lo, hi = float(np.min(preds)), float(np.max(preds))
    if not np.all(np.isfinite(preds)) or lo < h_min or hi > h_max:
        raise CheckFailed(f"predicted heights span [{lo!r}, {hi!r}], outside [{h_min}, {h_max}]")


def check_batch_consistency(
    single: np.ndarray, batched: np.ndarray, tol: float = BATCH_TOL
) -> None:
    """Batch-1 predictions agree with the same patches predicted in batches."""
    if single.shape != batched.shape:
        raise CheckFailed(f"batch-1 shape {single.shape} differs from batched {batched.shape}")
    gap = float(np.max(np.abs(single - batched)))
    if not gap <= tol:
        raise CheckFailed(f"batch-1 and batched predictions differ by {gap!r} (> {tol})")
