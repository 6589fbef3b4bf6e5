"""The benchmark's workloads and the round each one repeats.

A round is one pass of a user's whole pipeline through the public API:
``run_training`` on the train split, ``evaluate_split`` of the best
checkpoint on the test split, then one batch-1 ``HTCDCNet.predict`` per
test patch.  The workloads differ in corpus, model and the share of the
round each phase takes.  Corpus and run derive from the seed alone.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from heightbins import (
    HTCDCNet,
    HeadConfig,
    LossConfig,
    ModelConfig,
    OptimizerConfig,
    RunConfig,
    SceneSpec,
    Tensor,
    evaluate_split,
    generate_corpus,
    generate_scene,
    load_model_from_checkpoint,
    run_training,
)

import checks


@dataclass(frozen=True)
class Workload:
    """A corpus and a run configuration, both completed by the seed.

    Attributes:
        scene: ``SceneSpec`` fields other than the seed.
        splits: train, val and test patch counts.
        run: ``RunConfig`` fields other than manifest, out_dir and seed.
            ``patience`` equals ``max_epochs``, so every run trains every epoch.
    """

    scene: dict
    splits: tuple[int, int, int]
    run: dict


def _run(levels, model, loss, lr, batch_size, epochs=2) -> dict:
    return dict(
        levels=levels, model=model, loss=loss, optimizer=OptimizerConfig(lr=lr),
        batch_size=batch_size, max_epochs=epochs, patience=epochs,
    )


WORKLOADS = {
    # the criterion-7 model: default widths 8..64, 32 bins, 16 tokens, depth 2
    "train_default32": Workload(
        scene=dict(size=32),
        splits=(64, 8, 40),
        run=_run(("F5",), ModelConfig(), LossConfig(lambdas=(1.0,)), 2e-3, 4),
    ),
    # the criterion-8 configuration on its background-dominated 512-patch corpus
    "trend_run16": Workload(
        scene=dict(
            size=16, building_count=(1, 3), footprint_size=(3, 6),
            canopy_count=(0, 2), canopy_radius=(1.5, 3.0), building_height_sigma=0.9,
        ),
        splits=(358, 77, 77),
        run=_run(
            ("F5",),
            ModelConfig(
                widths=(4, 8, 16, 16, 16),
                head=HeadConfig(n_bins=16, token_count=4, patch_size=2, embed_dim=16,
                                depth=1, n_heads=2, use_htc=True),
            ),
            LossConfig(lambdas=(1.0,), fg_family="gaussian", bg_family="uniform"),
            3e-3, 8,
        ),
    ),
    # the default-width model with heads on F2..F5: a short fit, then forward only
    "eval_multilevel32": Workload(
        scene=dict(size=32),
        splits=(8, 8, 64),
        run=_run(("F2", "F3", "F4", "F5"), ModelConfig(), LossConfig(), 2e-3, 4),
    ),
}


@dataclass
class Round:
    """Timings and outputs of one round.

    Each batch-1 latency comes with the host's speed around it: the longer
    of the two ``host_probe_s`` readings taken just before and just after.
    """

    train_s: float
    eval_s: float
    latencies_s: list[float]
    latency_probe_s: list[float]
    loss_curve: list[float]
    report: dict
    preds: np.ndarray
    checkpoint: str


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def host_probe_s() -> float:
    """Seconds a fixed numpy kernel takes, about 0.06 ms on a quiet host.

    Other tenants of a shared host slow every process on it by 1.3-1.8x,
    for fractions of a second to minutes; this kernel shows when.
    """
    t0 = time.perf_counter()
    for _ in range(6):
        np.exp(-np.abs(_PROBE_MATRIX @ _PROBE_MATRIX)).sum()
    return time.perf_counter() - t0


def no_span(name):
    return contextlib.nullcontext()


class WidthFloorProbe:
    """A fixed case, independent of the seed, on which predictions depend on
    the batch.

    ``AdaBinsHead.compute_bins`` floors and renormalises the bin widths of
    the whole batch when the smallest width of any row falls below 1e-9, so
    one patch moves the prediction of another patch in its batch.  The probe
    sets the bin layer of a fixed model so that scene B's widths fall below
    the floor (a logit spread of 36) while scene A's stay above it (12), then
    compares A predicted alone with A predicted next to B.
    """

    def __init__(self):
        self.model = HTCDCNet(np.random.default_rng(0), 32, ModelConfig(), ("F5",))
        self.images = np.stack(
            [generate_scene(SceneSpec(seed=s, size=32))[0].values for s in (0, 1)]
        ).astype(np.float64)
        # the bias starts at zero, so log widths are the bin logits up to a
        # constant per row, and scaling the weight scales them
        log_w = np.log(self.model(Tensor(self.images))["F5"].bins.rel_widths.data)
        spread = log_w[1] - log_w[0]
        k = 24.0 / np.ptp(spread)
        state = self.model.state_dict()
        state["heads.F5.bin_fc.weight"] = k * state["heads.F5.bin_fc.weight"]
        state["heads.F5.bin_fc.bias"] = k * (0.5 * spread - log_w[0])
        self.model.load_state_dict(state)

    def agrees(self) -> bool:
        """Whether A's batch-1 prediction matches A predicted in a batch with B."""
        alone = self.model.predict(self.images[:1])[0]
        together = self.model.predict(self.images)[0][:1]
        try:
            checks.check_batch_consistency(alone, together)
        except checks.CheckFailed:
            return False
        return True


class Bench:
    """Set-up state of one workload: its corpus on disk, its run config and
    the test rasters the oracles read.

    Args:
        name: a key of ``WORKLOADS``.
        seed: passed to ``SceneSpec`` and ``RunConfig``.
        work_dir: directory for the corpus, checkpoints and history.
        span: context-manager factory naming the phases for a tracer.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, span=no_span):
        wl = WORKLOADS[name]
        self.span = span
        count = sum(wl.splits)
        with span("phase.setup"):
            entries = generate_corpus(
                work_dir / "data",
                SceneSpec(seed=seed, **wl.scene),
                count=count,
                split_fractions=tuple(n / count for n in wl.splits),
            )
        self.cfg = RunConfig(
            manifest=str(work_dir / "data" / "manifest.json"),
            out_dir=str(work_dir / "run"),
            seed=seed,
            **wl.run,
        )
        test = [e for e in entries if e.split == "test"]
        self.test_images = np.stack([checks.read_hmr(e.image) for e in test])
        self.test_heights = np.stack([checks.read_hmr(e.height) for e in test])
        self.test_footprints = np.stack([checks.read_hmr(e.footprint) for e in test])
        steps_per_epoch = math.ceil(wl.splits[0] / self.cfg.batch_size)
        self.train_patches = wl.splits[0] * self.cfg.max_epochs
        self.eval_patches = len(test)
        self.probe = WidthFloorProbe()
        host_probe_s()  # the first call pays for warming up
        # train steps, evaluated patches, batch-1 inference calls and the probe
        self.operations = steps_per_epoch * self.cfg.max_epochs + 2 * len(test) + 1

    def run_round(self) -> Round:
        with self.span("phase.train"):
            t0 = time.perf_counter()
            result = run_training(self.cfg)
            train_s = time.perf_counter() - t0
        with self.span("phase.eval"):
            t0 = time.perf_counter()
            report = evaluate_split(result.checkpoint_path, "test")
            eval_s = time.perf_counter() - t0
        with self.span("phase.infer"):
            model, _, _ = load_model_from_checkpoint(result.checkpoint_path)
            latencies, preds = [], []
            infer_probes = [host_probe_s()]
            for image in self.test_images:
                t0 = time.perf_counter()
                heights, _ = model.predict(image[None])
                latencies.append(time.perf_counter() - t0)
                infer_probes.append(host_probe_s())
                preds.append(heights[0])
        return Round(
            train_s=train_s,
            eval_s=eval_s,
            latencies_s=latencies,
            latency_probe_s=[max(a, b) for a, b in zip(infer_probes, infer_probes[1:])],
            loss_curve=result.loss_curve(),
            report=report.to_dict(),
            preds=np.stack(preds),
            checkpoint=result.checkpoint_path,
        )

    def check(self, rnd: Round, first: Round | None) -> None:
        """Check a round's outputs; raises ``checks.CheckFailed``.

        The first round is checked against the oracles.  Training is
        deterministic for a fixed seed, so every later round must repeat
        the first one's loss curve, report and predictions exactly.
        """
        with self.span("phase.check"):
            if first is not None:
                if (rnd.loss_curve, rnd.report) != (first.loss_curve, first.report) or not (
                    np.array_equal(rnd.preds, first.preds)
                ):
                    raise checks.CheckFailed("a round's outputs differ from the first round's")
                return
            checks.check_loss_falls(rnd.loss_curve)
            model, cfg, meta = load_model_from_checkpoint(rnd.checkpoint)
            checks.check_reload_rmse(meta["val_rmse"], evaluate_split(rnd.checkpoint, "val").rmse)
            # the batches evaluate_split predicts in
            bs = cfg.batch_size
            batched = np.concatenate(
                [model.predict(self.test_images[i : i + bs])[0]
                 for i in range(0, len(self.test_images), bs)]
            )
            checks.check_rmse_oracle(
                batched, self.test_heights, self.test_footprints,
                rnd.report["rmse"], rnd.report["rmse_m"],
            )
            checks.check_building_count(self.test_footprints, rnd.report["building_count"])
            head = cfg.model.head
            checks.check_height_range(np.concatenate([rnd.preds, batched]), head.h_min, head.h_max)
