"""Training losses: pixel L1, bin-edge Chamfer, gate cross-entropy, and the
distribution-based constraints.

The constraint losses build, per pixel, a reference categorical over the
current bins from a parametric distribution centered at the ground-truth
height.  The distribution's scale is solved analytically from the mode
probability P_m (the predicted probability of the bin containing the GT
value); each family's CDF is written once, in _family_probs_grid, and
differenced over the bin edges.  The loss is KL(reference || predicted),
computed on the tape inside dc_loss.  Reference construction is done
entirely on detached values: the scale defines the target, not a
gradient path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf as np_erf, erfinv

from .errors import ConfigError, ContractViolation, DomainError
from .tensor import (
    Tensor,
    clip,
    mul,
    reduce_min,
    relu,
    reshape,
    sub,
    tabs,
    texp,
    tlog,
    tmean,
    tsum,
)

__all__ = [
    "FAMILIES",
    "LossConfig",
    "solve_gaussian_sigma",
    "solve_laplace_b",
    "l1_height_loss",
    "chamfer_bin_loss",
    "htc_loss_logits",
    "dc_loss",
    "build_reference_probs",
    "total_loss",
    "average_pool_gt",
]

FAMILIES = ("gaussian", "laplace", "uniform", "delta", "none")

_SQRT2 = np.sqrt(2.0)
_PROB_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# scale solvers


def _check_delta(delta) -> None:
    if np.any(np.asarray(delta) <= 0):
        raise ContractViolation("bin width must be strictly positive")


def _check_pm(p_m) -> None:
    p = np.asarray(p_m)
    if not np.all((p > 0) & (p < 1)):
        raise DomainError("mode probability P_m must lie in the open interval (0, 1)")


def solve_gaussian_sigma(p_m, delta):
    """Sigma such that a centered Gaussian puts mass p_m in a width-delta bin.

    sigma = delta / (2*sqrt(2)*erfinv(p_m)).  Elementwise over arrays.

    Raises:
        DomainError: if any p_m lies outside (0, 1).
    """
    _check_delta(delta)
    _check_pm(p_m)
    return np.asarray(delta) / (2.0 * _SQRT2 * erfinv(p_m))


def solve_laplace_b(p_m, delta):
    """Laplace scale b = -delta / (2*ln(1 - p_m)), elementwise."""
    _check_delta(delta)
    return -np.asarray(delta) / (2.0 * np.log1p(-np.asarray(p_m)))


def _delta_bin_index(edges: np.ndarray, location) -> np.ndarray:
    """Index of the bin containing location; on-edge ties go to the lower bin."""
    idx = np.searchsorted(edges, np.asarray(location), side="left") - 1
    return np.clip(idx, 0, len(edges) - 2)


# ---------------------------------------------------------------------------
# losses


def l1_height_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean absolute error over all pixels."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ContractViolation(
            f"l1_height_loss: shapes differ, pred {pred.shape} vs gt {gt.shape}"
        )
    return tmean(tabs(sub(pred, Tensor(gt))))


def chamfer_bin_loss(
    edges: Tensor, gt_values: np.ndarray, max_points: int | None = None
) -> Tensor:
    """Bidirectional squared-distance loss between edges and GT heights.

    Each direction is mean-reduced over its own set, then the two means
    are summed.  GT values may be evenly subsampled down to max_points.

    Args:
        edges: (N+1,) bin edges.
        gt_values: 1-d array of GT heights, length >= 1.
        max_points: optional cap on GT values (even stride subsample).

    Raises:
        ContractViolation: on an empty GT set.
    """
    gt = np.asarray(gt_values, dtype=np.float64).reshape(-1)
    if gt.size == 0:
        raise ContractViolation("chamfer_bin_loss: empty ground-truth set")
    if edges.ndim != 1:
        raise ContractViolation(f"chamfer_bin_loss: edges must be 1-d, got {edges.ndim}-d")
    if max_points is not None and gt.size > max_points:
        take = np.linspace(0, gt.size - 1, max_points).astype(np.int64)
        gt = gt[take]
    n_edges = edges.shape[0]
    diff = sub(reshape(edges, (n_edges, 1)), Tensor(gt.reshape(1, -1)))
    d2 = mul(diff, diff)
    edge_to_gt = tmean(reduce_min(d2, axis=1))
    gt_to_edge = tmean(reduce_min(d2, axis=0))
    return edge_to_gt + gt_to_edge


def htc_loss_logits(fg_logit: Tensor, gt: np.ndarray, threshold: float = 1.0) -> Tensor:
    """Mean binary cross-entropy of the gate sigmoid(fg_logit) against
    (gt > threshold), computed from the pre-sigmoid scores.

    mean(softplus(z) - label*z) with softplus(z) = relu(z) + log(1 + exp(-|z|))
    stays well-conditioned when the gate saturates.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if fg_logit.shape != gt.shape:
        raise ContractViolation(
            f"htc_loss_logits: shapes differ, gate {fg_logit.shape} vs gt {gt.shape}"
        )
    label = (gt > threshold).astype(np.float64)
    softplus = relu(fg_logit) + tlog(texp(-tabs(fg_logit)) + 1.0)
    return tmean(softplus - mul(Tensor(label), fg_logit))


# ---------------------------------------------------------------------------
# distribution constraints


@dataclass
class LossConfig:
    """Loss weights and constraint settings.

    Attributes:
        mu1, mu2, mu3: weights of chamfer, gate, and constraint terms.
        lambdas: per-level weights, aligned with the configured level list,
            nondecreasing.
        fg_family, bg_family: reference families for pixels above/below
            the foreground threshold.
        pm_source: 'predicted' uses the detached model probability of the
            GT bin as P_m; 'constant' uses pm_constant everywhere.
        pm_constant: P_m value when pm_source is 'constant'.
        pm_clamp: (lo, hi) clamp on P_m before solving scales.
        fg_threshold: meters separating fg from bg pixels, the run's one
            threshold: gate labels, the fg/bg family split, and evaluation
            (rmse_bg and gate accuracy) all read it.
        chamfer_max_points: optional cap on chamfer GT values per patch.
    """

    mu1: float = 0.01
    mu2: float = 1.0
    mu3: float = 1.0
    lambdas: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)
    fg_family: str = "gaussian"
    bg_family: str = "uniform"
    pm_source: str = "predicted"
    pm_constant: float = 0.5
    pm_clamp: tuple[float, float] = (1e-3, 1.0 - 1e-3)
    fg_threshold: float = 1.0
    chamfer_max_points: int | None = 4096

    def validate(self) -> None:
        for name, fam in (("fg_family", self.fg_family), ("bg_family", self.bg_family)):
            if fam not in FAMILIES:
                raise ConfigError(f"{name} '{fam}' not in {FAMILIES}")
        if min(self.mu1, self.mu2, self.mu3) < 0:
            raise ConfigError("mu weights must be nonnegative")
        if not self.lambdas:
            raise ConfigError("lambdas must be nonempty")
        if any(l < 0 for l in self.lambdas):
            raise ConfigError("lambdas must be nonnegative")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ConfigError("lambdas must be nondecreasing across levels")
        if self.pm_source not in ("predicted", "constant"):
            raise ConfigError(f"pm_source '{self.pm_source}' must be predicted|constant")
        lo, hi = self.pm_clamp
        if not (0.0 < lo < hi < 1.0):
            raise ConfigError(f"pm_clamp {self.pm_clamp} must satisfy 0 < lo < hi < 1")
        if not (0.0 < self.pm_constant < 1.0):
            raise ConfigError("pm_constant must lie in (0,1)")
        if self.chamfer_max_points is not None and self.chamfer_max_points < 1:
            raise ConfigError("chamfer_max_points must be >= 1 or null")


def _family_probs_grid(
    family: str, edges: np.ndarray, location: np.ndarray, p_m: np.ndarray
) -> np.ndarray:
    """Reference probabilities for one family over a pixel grid.

    Args:
        family: one of FAMILIES.
        edges: (N+1,) bin edges.
        location: (H, W) GT heights.
        p_m: (H, W) clamped mode probabilities.

    Returns:
        (N, H, W) reference probabilities.
    """
    n = len(edges) - 1
    h, w = location.shape
    if family == "none":
        return np.zeros((n, h, w))
    idx = _delta_bin_index(edges, location)
    if family == "delta":
        out = np.zeros((n, h, w))
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        inside = (location >= edges[0]) & (location <= edges[-1])
        out[idx[inside], ii[inside], jj[inside]] = 1.0
        return out
    delta = (edges[idx + 1] - edges[idx]).reshape(h, w)
    grid = edges.reshape(n + 1, 1, 1)
    if family == "gaussian":
        sigma = solve_gaussian_sigma(p_m, delta)
        cdf = 0.5 * (1.0 + np_erf((grid - location) / (sigma * _SQRT2)))
    elif family == "laplace":
        b = solve_laplace_b(p_m, delta)
        z = grid - location
        cdf = np.where(z < 0, 0.5 * np.exp(z / b), 1.0 - 0.5 * np.exp(-z / b))
    elif family == "uniform":
        width = delta / p_m
        a = location - 0.5 * width
        cdf = np.clip((grid - a) / width, 0.0, 1.0)
    else:
        raise ConfigError(f"unknown distribution family '{family}'")
    return np.maximum(np.diff(cdf, axis=0), 0.0)


def build_reference_probs(
    probs: np.ndarray, gt: np.ndarray, edges: np.ndarray, cfg: LossConfig
) -> np.ndarray:
    """Detached per-pixel reference distributions for a batch.

    Args:
        probs: (B, N, H, W) predicted bin probabilities (plain array).
        gt: (B, 1, H, W) GT heights.
        edges: (B, N+1) bin edges (plain array).
        cfg: LossConfig naming the fg/bg families and P_m handling.

    Returns:
        (B, N, H, W) reference probabilities; rows of zeros where the
        selected family is 'none'.
    """
    bsz, n, h, w = probs.shape
    out = np.empty((bsz, n, h, w))
    lo, hi = cfg.pm_clamp
    for b in range(bsz):
        e = edges[b]
        loc = gt[b, 0]
        if cfg.pm_source == "predicted":
            idx = _delta_bin_index(e, loc)
            p_m = np.take_along_axis(probs[b], idx[None], axis=0)[0]
        else:
            p_m = np.full((h, w), cfg.pm_constant)
        p_m = np.clip(p_m, lo, hi)
        fg_mask = loc > cfg.fg_threshold
        fg = _family_probs_grid(cfg.fg_family, e, loc, p_m)
        if cfg.bg_family == cfg.fg_family:
            bg = fg
        else:
            bg = _family_probs_grid(cfg.bg_family, e, loc, p_m)
        out[b] = np.where(fg_mask[None], fg, bg)
    return out


def dc_loss(
    probs: Tensor,
    gt: np.ndarray,
    bins,
    cfg: LossConfig,
    frozen_ref: np.ndarray | None = None,
) -> Tensor:
    """Mean per-pixel KL(reference || predicted) over the batch.

    Pixels whose family is 'none' contribute zero.  The reference is
    rebuilt from detached values on every call unless frozen_ref is given
    (finite-difference checks pass a fixed target so the differentiated
    function matches the tape's).
    """
    gt = np.asarray(gt, dtype=np.float64)
    bsz, n, h, w = probs.shape
    if gt.shape != (bsz, 1, h, w):
        raise ContractViolation(
            f"dc_loss: gt shape {gt.shape} does not match probs {probs.shape}"
        )
    if cfg.fg_family == "none" and cfg.bg_family == "none":
        return Tensor(0.0)
    ref = (
        frozen_ref
        if frozen_ref is not None
        else build_reference_probs(probs.data, gt, bins.edges.data, cfg)
    )
    # sum_i ref*log(ref) is a constant; only the cross term carries gradient
    ref_entropy = float(np.sum(np.where(ref > 0, ref * np.log(np.maximum(ref, _PROB_FLOOR)), 0.0)))
    cross = tsum(mul(Tensor(ref), tlog(clip(probs, _PROB_FLOOR, None))))
    n_pixels = bsz * h * w
    return (ref_entropy - cross) * (1.0 / n_pixels)


def average_pool_gt(gt: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool (B, 1, H, W) ground truth by an integer factor."""
    if factor == 1:
        return gt
    b, c, h, w = gt.shape
    if h % factor or w % factor:
        raise ContractViolation(f"cannot pool extent {h}x{w} by {factor}")
    return gt.reshape(b, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))


def total_loss(
    outputs: dict[str, "HeadOutput"],
    gt: np.ndarray,
    cfg: LossConfig,
    frozen_refs: dict[str, np.ndarray] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Weighted multi-level sum of the four loss terms.

    Args:
        outputs: level name -> HeadOutput, in configured level order.
        gt: (B, 1, H, W) ground truth at full resolution; average-pooled
            to each level, with fg labels recomputed from pooled values.
        cfg: LossConfig; cfg.lambdas must align with outputs.
        frozen_refs: optional per-level fixed constraint targets.

    Returns:
        (total, components): the scalar loss tensor and a float dict with
        per-level l1/chamfer/htc/dc entries plus 'total'.
    """
    cfg.validate()
    if len(cfg.lambdas) != len(outputs):
        raise ConfigError(
            f"lambdas count {len(cfg.lambdas)} does not match level count {len(outputs)}"
        )
    gt = np.asarray(gt, dtype=np.float64)
    full_h = gt.shape[-1]
    total = Tensor(0.0)
    components: dict[str, float] = {}
    for lam, (level, out) in zip(cfg.lambdas, outputs.items()):
        level_h = out.heights.shape[-1]
        gt_level = average_pool_gt(gt, full_h // level_h)
        l_h = l1_height_loss(out.heights, gt_level)
        bsz = gt_level.shape[0]
        l_b = Tensor(0.0)
        for b in range(bsz):
            l_b = l_b + chamfer_bin_loss(
                out.bins.edges[b], gt_level[b].reshape(-1), cfg.chamfer_max_points
            )
        l_b = l_b * (1.0 / bsz)
        if out.fg_logit is None:
            l_htc = Tensor(0.0)
        else:
            l_htc = htc_loss_logits(out.fg_logit, gt_level, cfg.fg_threshold)
        l_dc = dc_loss(
            out.probs,
            gt_level,
            out.bins,
            cfg,
            frozen_ref=None if frozen_refs is None else frozen_refs.get(level),
        )
        term = l_h + cfg.mu1 * l_b + cfg.mu2 * l_htc + cfg.mu3 * l_dc
        total = total + lam * term
        components[f"{level}/l1"] = float(l_h.data)
        components[f"{level}/chamfer"] = float(l_b.data)
        components[f"{level}/htc"] = float(l_htc.data)
        components[f"{level}/dc"] = float(l_dc.data)
    components["total"] = float(total.data)
    return total, components
