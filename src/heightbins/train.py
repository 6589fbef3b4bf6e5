"""Training and evaluation over manifest-listed raster corpora.

The loop is plain mini-batch descent: per-epoch shuffles come from a seed
derived as (run seed, epoch), validation runs after every epoch, the best
checkpoint by validation RMSE is kept, and training stops after `patience`
epochs without improvement.  Everything is deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import ConfigError, ContractViolation, DataError, DomainError, NumericError
from .losses import total_loss, average_pool_gt
from .metrics import EvalReport, MetricAccumulator
from .model import HTCDCNet, level_extent
from .optim import AdamW
from .raster import read_manifest, read_raster
from .tensor import Tape, Tensor

__all__ = [
    "PatchDataset",
    "TrainResult",
    "evaluate_model",
    "evaluate_split",
    "load_model_from_checkpoint",
    "run_training",
]

logger = logging.getLogger("heightbins.train")


class PatchDataset:
    """All patches of one split, loaded up front as float64 arrays."""

    def __init__(self, images: np.ndarray, heights: np.ndarray, footprints: np.ndarray):
        if not len(images) == len(heights) == len(footprints):
            raise DataError(
                f"triple counts differ: {len(images)} images, {len(heights)} heights, "
                f"{len(footprints)} footprints"
            )
        self.images = images
        self.heights = heights
        self.footprints = footprints

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_size(self) -> int:
        return self.images.shape[-1]

    @classmethod
    def from_manifest(cls, manifest_path: str | Path, split: str) -> "PatchDataset":
        entries = [e for e in read_manifest(manifest_path) if e.split == split]
        if not entries:
            raise DataError(f"manifest {manifest_path} has no '{split}' entries")
        images, heights, footprints = [], [], []
        for e in entries:
            triple = {}
            for kind, path in (("image", e.image), ("height", e.height), ("footprint", e.footprint)):
                patch = read_raster(path)
                if patch.kind != kind:
                    raise DataError(f"{path} declares kind {patch.kind!r}, manifest says {kind!r}")
                triple[kind] = patch.values.astype(np.float64)
            shapes = {k: v.shape[1:] for k, v in triple.items()}
            if len(set(shapes.values())) != 1:
                raise DataError(f"triple extents differ for entry {e.image}: {shapes}")
            images.append(triple["image"])
            heights.append(triple["height"])
            footprints.append(triple["footprint"])
        return cls(np.stack(images), np.stack(heights), np.stack(footprints))


def _epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    components: dict[str, float]
    val_rmse: float
    improved: bool


@dataclass
class TrainResult:
    best_epoch: int
    best_val_rmse: float
    checkpoint_path: str
    stopped_early: bool
    history: list[EpochRecord] = field(default_factory=list)

    def loss_curve(self) -> list[float]:
        return [r.train_loss for r in self.history]


def evaluate_model(
    model: HTCDCNet, ds: PatchDataset, fg_threshold: float, batch_size: int = 8
) -> EvalReport:
    """Pooled metrics of the finest-level prediction over a dataset.

    When the finest attached level is coarser than the input, ground truth
    is average-pooled to the prediction grid and footprints are pooled by
    majority vote.
    """
    factor = ds.image_size // level_extent(model.finest_level, ds.image_size)
    acc = MetricAccumulator(fg_threshold=fg_threshold)
    for start in range(0, len(ds), batch_size):
        sl = slice(start, start + batch_size)
        preds, fg = model.predict(ds.images[sl])
        gts = average_pool_gt(ds.heights[sl], factor)
        fps = average_pool_gt(ds.footprints[sl], factor) > 0.5
        for i in range(preds.shape[0]):
            acc.add(
                preds[i], gts[i],
                fg_prob=None if fg is None else fg[i],
                footprint=fps[i],
            )
    return acc.report()


def _checkpoint_meta(cfg: RunConfig, image_size: int, epoch: int, val_rmse: float) -> dict:
    return {
        "config": cfg.to_dict(),
        "image_size": image_size,
        "epoch": epoch,
        "val_rmse": val_rmse,
    }


def run_training(cfg: RunConfig, max_steps: int | None = None) -> TrainResult:
    """Train per the config; returns history plus the best checkpoint path.

    Args:
        cfg: validated run configuration.
        max_steps: optional hard cap on optimizer steps (overfit runs).
    """
    cfg.validate()
    train_ds = PatchDataset.from_manifest(cfg.manifest, "train")
    try:
        val_ds = PatchDataset.from_manifest(cfg.manifest, "val")
    except DataError:
        logger.info("no val split in manifest; validating on the training set")
        val_ds = train_ds
    if train_ds.image_size % 16:
        raise DataError(f"patch size {train_ds.image_size} is not divisible by 16")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "best.ckpt"

    rng = np.random.default_rng(cfg.seed)
    model = HTCDCNet(rng, train_ds.image_size, cfg.model, cfg.levels)
    opt = AdamW(
        model.named_parameters(),
        lr=cfg.optimizer.lr,
        betas=cfg.optimizer.betas,
        weight_decay=cfg.optimizer.weight_decay,
    )

    best = float("inf")
    best_epoch = 0
    wait = 0
    steps = 0
    stopped_early = False
    history: list[EpochRecord] = []
    t0 = time.time()

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_loss = 0.0
        epoch_n = 0
        last_components: dict[str, float] = {}
        for batch_idx in _epoch_batches(len(train_ds), cfg.batch_size, cfg.seed, epoch):
            with Tape() as tape:
                try:
                    outputs = model(Tensor(train_ds.images[batch_idx]))
                    loss, components = total_loss(outputs, train_ds.heights[batch_idx], cfg.loss)
                except NumericError as exc:
                    raise NumericError(
                        f"aborted at epoch {epoch} step {steps}: {exc}; "
                        f"batch seed ({cfg.seed}, {epoch})"
                    ) from exc
                except (ContractViolation, DomainError) as exc:
                    # a diverged step leaves nan/inf parameters, which then trip
                    # downstream value contracts; report those as divergence
                    if any(
                        not np.all(np.isfinite(p.data)) for _, p in model.named_parameters()
                    ):
                        raise NumericError(
                            f"non-finite parameters at epoch {epoch} step {steps} "
                            f"({exc}), batch seed ({cfg.seed}, {epoch})"
                        ) from exc
                    raise
                if not np.isfinite(float(loss.data)):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} step {steps}: "
                        f"components {components}, batch seed ({cfg.seed}, {epoch})"
                    )
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            steps += 1
            epoch_loss += float(loss.data) * len(batch_idx)
            epoch_n += len(batch_idx)
            last_components = components
            if max_steps is not None and steps >= max_steps:
                break

        train_loss = epoch_loss / max(epoch_n, 1)
        try:
            val_report = evaluate_model(
                model, val_ds, batch_size=cfg.batch_size, fg_threshold=cfg.loss.fg_threshold
            )
        except NumericError as exc:
            raise NumericError(
                f"aborted validating epoch {epoch}: {exc}; the last optimizer "
                f"step likely diverged (lr {cfg.optimizer.lr})"
            ) from exc
        val_rmse = val_report.rmse
        improved = val_rmse < best
        if improved:
            best = val_rmse
            best_epoch = epoch
            wait = 0
            save_checkpoint(
                ckpt_path, model.state_dict(),
                _checkpoint_meta(cfg, train_ds.image_size, epoch, val_rmse),
            )
        else:
            wait += 1
        history.append(EpochRecord(epoch, train_loss, last_components, val_rmse, improved))
        logger.info(
            "epoch %d train_loss %.6f val_rmse %.6f best %.6f wait %d/%d elapsed %.1fs",
            epoch, train_loss, val_rmse, best, wait, cfg.patience, time.time() - t0,
        )
        if wait >= cfg.patience:
            stopped_early = True
            break
        if max_steps is not None and steps >= max_steps:
            break

    if not ckpt_path.exists():
        save_checkpoint(
            ckpt_path, model.state_dict(),
            _checkpoint_meta(cfg, train_ds.image_size, best_epoch, best),
        )
    (out_dir / "history.json").write_text(
        json.dumps(
            [
                {
                    "epoch": r.epoch,
                    "train_loss": r.train_loss,
                    "val_rmse": r.val_rmse,
                    "improved": r.improved,
                    "components": r.components,
                }
                for r in history
            ],
            indent=1,
        )
        + "\n"
    )
    return TrainResult(
        best_epoch=best_epoch,
        best_val_rmse=best,
        checkpoint_path=str(ckpt_path),
        stopped_early=stopped_early,
        history=history,
    )


def load_model_from_checkpoint(path: str | Path) -> tuple[HTCDCNet, RunConfig, dict]:
    """Rebuild the network a checkpoint was trained with and load its weights."""
    tensors, meta = load_checkpoint(path)
    if "config" not in meta or "image_size" not in meta:
        raise DataError(f"checkpoint {path} lacks config metadata")
    cfg = RunConfig.from_dict(meta["config"])
    model = HTCDCNet(
        np.random.default_rng(cfg.seed), int(meta["image_size"]), cfg.model, cfg.levels
    )
    model.load_state_dict(tensors)
    return model, cfg, meta


def evaluate_split(checkpoint_path: str | Path, split: str, manifest: str | None = None) -> EvalReport:
    """Metrics of a trained checkpoint over one manifest split."""
    model, cfg, _ = load_model_from_checkpoint(checkpoint_path)
    ds = PatchDataset.from_manifest(manifest or cfg.manifest, split)
    if ds.image_size != model.image_size:
        raise ConfigError(
            f"checkpoint expects {model.image_size}px patches, split has {ds.image_size}px"
        )
    return evaluate_model(model, ds, batch_size=cfg.batch_size, fg_threshold=cfg.loss.fg_threshold)
