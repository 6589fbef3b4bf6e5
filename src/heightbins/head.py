"""Classification-phase head: adaptive bins, range attention, head-tail cut.

One head attaches to one feature-pyramid level.  A 3x3 convolution forms
the local branch L; a small pre-norm transformer over feature patches
forms the global branch E.  The first output token parameterizes the bin
widths, the next m tokens attend against L to score foreground bins, the
following m tokens score background bins.  A 1x1-conv sigmoid gate on the
foreground attention maps selects which branch each pixel uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError
from .nn import Conv2d, Linear, Module, TransformerBlock
from .regression import predict_heights
from .tensor import (
    Tensor,
    broadcast_to,
    concat,
    cumsum,
    matmul,
    reshape,
    sigmoid,
    softmax,
    transpose,
    where,
)

__all__ = [
    "HeadConfig",
    "BinSet",
    "HeadOutput",
    "PatchTransformer",
    "AdaBinsHead",
    "build_bins",
]

# smallest admissible relative bin width; see AdaBinsHead.compute_bins
_WIDTH_FLOOR = 1e-9


@dataclass
class HeadConfig:
    """Shape and range parameters of one head.

    Attributes:
        n_bins: N, number of height bins.
        token_count: m, tokens per branch (fg and bg each get m).
        patch_size: p, side length of transformer patches.
        embed_dim: d, token width; also the local-branch channel count.
        depth: transformer block count (0 = patch projection only).
        n_heads: attention heads per block.
        h_min, h_max: height range in meters.
        use_htc: enable the head-tail cut (fg/bg split plus gate); when
            False the head has a single branch and no gate.
    """

    n_bins: int = 32
    token_count: int = 16
    patch_size: int = 4
    embed_dim: int = 32
    depth: int = 2
    n_heads: int = 4
    h_min: float = 0.0
    h_max: float = 100.0
    use_htc: bool = True

    def validate(self) -> None:
        if self.n_bins < 1:
            raise ConfigError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.token_count < 1:
            raise ConfigError(f"token_count must be >= 1, got {self.token_count}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.embed_dim < 1 or self.embed_dim % max(self.n_heads, 1):
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be positive and divisible by "
                f"n_heads {self.n_heads}"
            )
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if not self.h_max > self.h_min:
            raise ConfigError(
                f"degenerate height range: h_max {self.h_max} must exceed h_min {self.h_min}"
            )


@dataclass
class BinSet:
    """Adaptive bin layout for a batch.

    Attributes:
        n_bins: N.
        h_min, h_max: range in meters.
        rel_widths: (B, N) softmax-normalized widths.
        edges: (B, N+1) meters, strictly increasing from h_min to h_max.
        centers: (B, N) bin midpoints.
    """

    n_bins: int
    h_min: float
    h_max: float
    rel_widths: Tensor
    edges: Tensor
    centers: Tensor

    def validate(self) -> None:
        w, e, c = self.rel_widths.data, self.edges.data, self.centers.data
        if w.shape[-1] != self.n_bins or e.shape[-1] != self.n_bins + 1:
            raise ContractViolation(
                f"bin arrays disagree with n_bins={self.n_bins}: "
                f"widths {w.shape}, edges {e.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(e)) and np.all(np.isfinite(c))):
            raise NumericError("bin arrays contain non-finite values")
        if np.any(w <= 0):
            raise ContractViolation("bin widths must be strictly positive")
        if np.max(np.abs(w.sum(axis=-1) - 1.0)) > 1e-9:
            raise ContractViolation("bin widths must sum to 1 within 1e-9")
        if np.any(np.diff(e, axis=-1) <= 0):
            raise ContractViolation("bin edges must be strictly increasing")
        if np.any(e[..., 0] != self.h_min):
            raise ContractViolation(f"first edge must equal h_min={self.h_min}")
        if np.max(np.abs(e[..., -1] - self.h_max)) > 1e-6:
            raise ContractViolation(f"last edge must equal h_max={self.h_max} within 1e-6")
        mid = 0.5 * (e[..., :-1] + e[..., 1:])
        if np.any(c != mid):
            raise ContractViolation("centers must be exact bin midpoints")


@dataclass
class HeadOutput:
    """Everything one head produces for a batch.

    Attributes:
        bins: BinSet.
        r_fg: (B, m, H, W) foreground range attention maps.
        r_bg: (B, m, H, W) background maps, None without HTC.
        p_fg_bins: (B, N, H, W) foreground bin probabilities.
        p_bg_bins: background bin probabilities, None without HTC.
        probs: (B, N, H, W) combined bin probabilities.
        fg_logit: (B, 1, H, W) pre-sigmoid gate scores, None without HTC;
            losses use these to avoid saturation near 0 and 1.
        fg_prob: (B, 1, H, W) foreground gate in (0,1), None without HTC.
        heights: (B, 1, H, W) predicted heights in meters.
    """

    bins: BinSet
    r_fg: Tensor
    r_bg: Tensor | None
    p_fg_bins: Tensor
    p_bg_bins: Tensor | None
    probs: Tensor
    fg_logit: Tensor | None
    fg_prob: Tensor | None
    heights: Tensor

    def validate(self) -> None:
        self.bins.validate()
        for label, p in (("P_fg", self.p_fg_bins), ("P_bg", self.p_bg_bins), ("P", self.probs)):
            if p is None:
                continue
            sums = p.data.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-6 or np.any(p.data < 0):
                raise ContractViolation(f"{label} rows are not valid distributions")
        if self.fg_prob is not None:
            g = self.fg_prob.data
            if np.any(g <= 0) or np.any(g >= 1):
                raise ContractViolation("fg_prob must lie strictly inside (0,1)")
            mask = g > 0.5
            want = np.where(mask, self.p_fg_bins.data, self.p_bg_bins.data)
            if np.any(self.probs.data != want):
                raise ContractViolation("combined P must equal the selected branch exactly")
        h = self.heights.data
        if np.any(h < self.bins.h_min) or np.any(h > self.bins.h_max):
            raise ContractViolation("predicted heights escape [h_min, h_max]")


def build_bins(rel_widths: Tensor, h_min: float, h_max: float) -> BinSet:
    """Bin layout from normalized widths.

    Widths are scaled by (h_max - h_min) and accumulated from h_min, so the
    edges span the full range; centers are exact midpoints.

    Args:
        rel_widths: (B, N) positive rows summing to 1.
        h_min, h_max: range in meters.

    Returns:
        validated BinSet.
    """
    b, n = rel_widths.shape
    scaled = rel_widths * (h_max - h_min)
    lead = Tensor(np.full((b, 1), float(h_min)))
    edges = concat([lead, cumsum(scaled, axis=1) + h_min], axis=1)
    centers = (edges[:, :-1] + edges[:, 1:]) * 0.5
    bins = BinSet(
        n_bins=n,
        h_min=h_min,
        h_max=h_max,
        rel_widths=rel_widths,
        edges=edges,
        centers=centers,
    )
    bins.validate()
    return bins


class PatchTransformer(Module):
    """Global branch: patch projection plus learned tokens and blocks.

    The sequence is [2m+1 learned tokens, then HW/p^2 patch tokens].
    Positional embeddings are added to patch tokens only.  No final
    layer norm, so depth 0 reduces to the patch projection itself.
    """

    def __init__(self, rng, in_channels: int, grid_hw: tuple[int, int], cfg: HeadConfig):
        h, w = grid_hw
        p = cfg.patch_size
        if h % p or w % p:
            raise ConfigError(
                f"feature extent {h}x{w} not divisible by patch size {p}"
            )
        self.n_patches = (h // p) * (w // p)
        self.n_learned = 2 * cfg.token_count + 1
        d = cfg.embed_dim
        self.patchify = Conv2d(rng, in_channels, d, p, stride=p)
        self.tokens = Tensor(0.02 * rng.standard_normal((self.n_learned, d)), requires_grad=True)
        self.pos = Tensor(0.02 * rng.standard_normal((self.n_patches, d)), requires_grad=True)
        self.blocks = [TransformerBlock(rng, d, cfg.n_heads) for _ in range(cfg.depth)]

    def patch_tokens(self, feat: Tensor) -> Tensor:
        """Patch projection without positional term: (B, HW/p^2, d)."""
        z = self.patchify(feat)  # (B, d, h/p, w/p)
        b, d, gh, gw = z.shape
        return transpose(reshape(z, (b, d, gh * gw)), (0, 2, 1))

    def encode(self, patch_seq: Tensor) -> Tensor:
        """Prepend learned tokens to a patch sequence and run the blocks."""
        b = patch_seq.shape[0]
        lead = broadcast_to(
            reshape(self.tokens, (1, self.n_learned, -1)),
            (b, self.n_learned, self.tokens.shape[1]),
        )
        seq = concat([lead, patch_seq], axis=1)
        for block in self.blocks:
            seq = block(seq)
        return seq

    def __call__(self, feat: Tensor) -> Tensor:
        _, _, h, w = feat.shape
        if (h // self.patchify.weight.shape[2]) * (w // self.patchify.weight.shape[2]) != self.n_patches:
            raise ContractViolation(
                f"feature extent {h}x{w} disagrees with the {self.n_patches} "
                f"positional embeddings this branch was built for"
            )
        return self.encode(self.patch_tokens(feat) + self.pos)


class AdaBinsHead(Module):
    """One HTC-AdaBins head bound to a fixed feature extent.

    Args:
        rng: parameter initializer.
        in_channels: channel count of the attached pyramid level.
        grid_hw: (H, W) of that level; fixes the positional embedding count.
        cfg: HeadConfig; validated here.
    """

    def __init__(self, rng, in_channels: int, grid_hw: tuple[int, int], cfg: HeadConfig):
        cfg.validate()
        self.cfg = cfg
        self.in_channels = in_channels
        d, n, m = cfg.embed_dim, cfg.n_bins, cfg.token_count
        self.local = Conv2d(rng, in_channels, d, 3, padding=1)
        self.vit = PatchTransformer(rng, in_channels, grid_hw, cfg)
        self.bin_fc = Linear(rng, d, n)
        self.fg_prob_conv = Conv2d(rng, m, n, 1)
        self.bg_prob_conv = Conv2d(rng, m, n, 1) if cfg.use_htc else None
        self.htc_conv = Conv2d(rng, m, 1, 1) if cfg.use_htc else None

    # individual stages, composed by __call__

    def local_branch(self, feat: Tensor) -> Tensor:
        """3x3 conv to d channels at unchanged extent."""
        if feat.shape[1] != self.in_channels:
            raise ContractViolation(
                f"head built for {self.in_channels} channels, got {feat.shape[1]}"
            )
        return self.local(feat)

    def global_branch(self, feat: Tensor) -> Tensor:
        """Token sequence (B, 2m+1 + HW/p^2, d)."""
        return self.vit(feat)

    def compute_bins(self, bin_token: Tensor) -> BinSet:
        """Adaptive bin layout from the first token.

        Args:
            bin_token: (B, d) embedding e_1.

        Returns:
            BinSet with edges h_min + cumulative scaled widths.
        """
        cfg = self.cfg
        rel = softmax(self.bin_fc(bin_token), axis=-1)  # (B, N)
        # softmax is positive in exact arithmetic but underflows to 0.0 for
        # logit gaps beyond ~745; floor and renormalize only in that regime
        # so bins never collapse, leaving ordinary widths bit-exact
        if float(np.min(rel.data)) < _WIDTH_FLOOR:
            rel = (rel + _WIDTH_FLOOR) * (1.0 / (1.0 + cfg.n_bins * _WIDTH_FLOOR))
        return build_bins(rel, cfg.h_min, cfg.h_max)

    @staticmethod
    def range_attention(local: Tensor, tokens: Tensor) -> Tensor:
        """Per-pixel dot products of local features against each token.

        Args:
            local: (B, d, H, W).
            tokens: (B, m, d).

        Returns:
            (B, m, H, W) attention maps.
        """
        b, d, h, w = local.shape
        if tokens.ndim != 3 or tokens.shape[2] != d:
            raise ContractViolation(
                f"range_attention: token dim {tokens.shape} does not match "
                f"local channels {d}"
            )
        flat = reshape(local, (b, d, h * w))
        return reshape(matmul(tokens, flat), (b, tokens.shape[1], h, w))

    def bin_probabilities(self, ram: Tensor, conv: Conv2d) -> Tensor:
        """1x1 conv m -> N, softmax over the bin axis."""
        return softmax(conv(ram), axis=1)

    def head_tail_cut(self, r_fg: Tensor) -> tuple[Tensor, Tensor]:
        """Foreground gate: 1x1 conv m -> 1; returns (logit, sigmoid(logit))."""
        logit = self.htc_conv(r_fg)
        return logit, sigmoid(logit)

    @staticmethod
    def combine(p_fg_bins: Tensor, p_bg_bins: Tensor, fg_prob: Tensor) -> Tensor:
        """Hard per-pixel branch selection by fg_prob > 0.5.

        The comparison uses detached gate values: gradients flow through
        the selected branch only; the gate itself trains via its own loss.
        """
        return where(fg_prob.data > 0.5, p_fg_bins, p_bg_bins)

    def __call__(self, feat: Tensor) -> HeadOutput:
        cfg = self.cfg
        m = cfg.token_count
        local = self.local_branch(feat)
        seq = self.global_branch(feat)
        if seq.shape[1] < 2 * m + 1:
            raise ConfigError(
                f"token sequence of length {seq.shape[1]} is shorter than 2m+1={2*m+1}"
            )
        bins = self.compute_bins(seq[:, 0])
        g_fg = seq[:, 1 : m + 1]
        r_fg = self.range_attention(local, g_fg)
        p_fg_bins = self.bin_probabilities(r_fg, self.fg_prob_conv)
        if cfg.use_htc:
            g_bg = seq[:, m + 1 : 2 * m + 1]
            r_bg = self.range_attention(local, g_bg)
            p_bg_bins = self.bin_probabilities(r_bg, self.bg_prob_conv)
            fg_logit, fg_prob = self.head_tail_cut(r_fg)
            probs = self.combine(p_fg_bins, p_bg_bins, fg_prob)
        else:
            r_bg = None
            p_bg_bins = None
            fg_logit = None
            fg_prob = None
            probs = p_fg_bins
        heights = predict_heights(probs, bins)
        return HeadOutput(
            bins=bins,
            r_fg=r_fg,
            r_bg=r_bg,
            p_fg_bins=p_fg_bins,
            p_bg_bins=p_bg_bins,
            probs=probs,
            fg_logit=fg_logit,
            fg_prob=fg_prob,
            heights=heights,
        )
