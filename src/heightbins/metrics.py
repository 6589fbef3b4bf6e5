"""Evaluation metrics for height rasters.

MetricAccumulator pools every metric over patches.  Pixel metrics are RMSE
over four masks: the full image, building pixels, their complement, and
low ground-truth pixels (below the foreground threshold).  The instance
metric labels 4-connected building components with scipy.ndimage.label
and compares per-instance medians.  Gate accuracy compares the thresholded
gate with (gt > foreground threshold).  Masked metrics over an empty mask
are undefined and reported as ``None`` rather than NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ContractViolation

__all__ = [
    "EvalReport",
    "MetricAccumulator",
    "compute_report",
    "connected_components",
]


def _as_2d(name: str, arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    while out.ndim > 2 and out.shape[0] == 1:
        out = out[0]
    if out.ndim != 2:
        raise ContractViolation(f"{name} must be a single 2-d raster, got shape {arr.shape}")
    return out


_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the 4-connected regions of a binary mask.

    Labels are assigned in row-major order of each component's first pixel,
    starting at 1; background stays 0.  Returns (labels, count).
    """
    return ndimage.label(_as_2d("mask", mask), structure=_FOUR_CONNECTED)


def per_building_errors(pred: np.ndarray, gt: np.ndarray, footprint: np.ndarray) -> list[float]:
    """Signed (pred median - gt median) per connected footprint component."""
    p = _as_2d("pred", pred)
    g = _as_2d("gt", gt)
    labels, count = connected_components(footprint)
    errors = []
    for k in range(1, count + 1):
        sel = labels == k
        errors.append(float(np.median(p[sel]) - np.median(g[sel])))
    return errors


@dataclass
class EvalReport:
    """Metric bundle for one raster or one pooled split.

    Undefined metrics (empty mask, no instances, no gate) are None.
    """

    rmse: float | None
    rmse_m: float | None
    rmse_nm: float | None
    rmse_b: float | None
    rmse_bg: float | None
    htc_accuracy: float | None
    building_count: int
    per_building_errors: list[float] = field(default_factory=list)

    def validate(self) -> None:
        for name in ("rmse", "rmse_m", "rmse_nm", "rmse_b", "rmse_bg"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v < 0):
                raise ContractViolation(f"{name} must be finite and >= 0, got {v}")
        if self.htc_accuracy is not None and not 0.0 <= self.htc_accuracy <= 1.0:
            raise ContractViolation(f"htc_accuracy must be in [0,1], got {self.htc_accuracy}")
        if self.building_count < 0:
            raise ContractViolation(f"building_count must be >= 0, got {self.building_count}")
        if len(self.per_building_errors) != self.building_count:
            raise ContractViolation(
                f"{len(self.per_building_errors)} per-building errors for "
                f"{self.building_count} buildings"
            )

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "rmse_m": self.rmse_m,
            "rmse_nm": self.rmse_nm,
            "rmse_b": self.rmse_b,
            "rmse_bg": self.rmse_bg,
            "htc_accuracy": self.htc_accuracy,
            "building_count": self.building_count,
            "per_building_errors": self.per_building_errors,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def format_text(self) -> str:
        def fmt(v, unit=" m"):
            return "undefined" if v is None else f"{v:.4f}{unit}"

        lines = [
            f"rmse           {fmt(self.rmse)}",
            f"rmse_m         {fmt(self.rmse_m)}",
            f"rmse_nm        {fmt(self.rmse_nm)}",
            f"rmse_b         {fmt(self.rmse_b)}",
            f"rmse_bg        {fmt(self.rmse_bg)}",
            f"htc_accuracy   {fmt(self.htc_accuracy, unit='')}",
            f"building_count {self.building_count}",
        ]
        return "\n".join(lines)


class MetricAccumulator:
    """Pools metrics across patches: squared errors and counts per mask,
    per-building errors, and gate hit counts, finalized into one report."""

    def __init__(self, fg_threshold: float = 1.0):
        self.fg_threshold = fg_threshold
        self._sq = {"all": 0.0, "m": 0.0, "nm": 0.0, "bg": 0.0}
        self._n = {"all": 0, "m": 0, "nm": 0, "bg": 0}
        self._building_errors: list[float] = []
        self._gate_correct = 0
        self._gate_total = 0

    def add(
        self,
        pred: np.ndarray,
        gt: np.ndarray,
        fg_prob: np.ndarray | None = None,
        footprint: np.ndarray | None = None,
    ) -> None:
        p = _as_2d("pred", pred)
        g = _as_2d("gt", gt)
        if p.shape != g.shape:
            raise ContractViolation(f"shapes must match, got pred {p.shape}, gt {g.shape}")
        fg = g > self.fg_threshold
        # building mask from the footprint raster when one exists,
        # else fall back to thresholded ground truth
        bldg = fg if footprint is None else _as_2d("footprint", footprint) > 0.5
        if bldg.shape != p.shape:
            raise ContractViolation(
                f"footprint shape {bldg.shape} does not match raster shape {p.shape}"
            )
        sq = (p - g) ** 2
        masks = (
            ("all", np.ones_like(fg)), ("m", bldg), ("nm", ~bldg), ("bg", g < self.fg_threshold)
        )
        for key, mask in masks:
            self._sq[key] += float(sq[mask].sum())
            self._n[key] += int(mask.sum())
        self._building_errors.extend(per_building_errors(p, g, bldg))
        if fg_prob is not None:
            q = _as_2d("fg_prob", fg_prob)
            self._gate_correct += int(((q > 0.5) == fg).sum())
            self._gate_total += q.size

    def report(self) -> EvalReport:
        def pooled(key):
            n = self._n[key]
            return None if n == 0 else float(np.sqrt(self._sq[key] / n))

        errs = self._building_errors
        rmse_b = None if not errs else float(np.sqrt(np.mean(np.square(errs))))
        acc = None if self._gate_total == 0 else self._gate_correct / self._gate_total
        rep = EvalReport(
            rmse=pooled("all"),
            rmse_m=pooled("m"),
            rmse_nm=pooled("nm"),
            rmse_b=rmse_b,
            rmse_bg=pooled("bg"),
            htc_accuracy=acc,
            building_count=len(errs),
            per_building_errors=list(errs),
        )
        rep.validate()
        return rep


def compute_report(
    pred: np.ndarray,
    gt: np.ndarray,
    fg_prob: np.ndarray | None = None,
    footprint: np.ndarray | None = None,
    fg_threshold: float = 1.0,
) -> EvalReport:
    """All metrics for a single raster pair."""
    acc = MetricAccumulator(fg_threshold=fg_threshold)
    acc.add(pred, gt, fg_prob, footprint)
    return acc.report()
