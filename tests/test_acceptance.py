"""Acceptance suite: the package's headline claims, one test per criterion.

Every test registers a one-line summary (printed in the terminal section
"acceptance criteria") carrying the measured values, then asserts them at
the stated tolerances.  Criteria 7 and 8 train real models and dominate
the runtime of the whole test suite; everything they need is regenerated
from fixed seeds, so their numbers are reproducible bit for bit.
"""

import statistics
import struct
import time
import zlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf as sp_erf

from heightbins.config import ModelConfig, OptimizerConfig, RunConfig
from heightbins.errors import RasterParseError
from heightbins.gradcheck import run_composite_check, run_primitive_suite
from heightbins.head import AdaBinsHead, HeadConfig, build_bins
from heightbins.losses import (
    LossConfig,
    _family_probs_grid,
    chamfer_bin_loss,
    dc_loss,
    solve_gaussian_sigma,
    solve_laplace_b,
)
from heightbins.metrics import compute_report
from heightbins.raster import RasterPatch, read_raster, write_raster
from heightbins.synth import SceneSpec, generate_corpus
from heightbins.tensor import Tensor
from heightbins.train import evaluate_split, run_training


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_criterion_1_gradient_integrity(record_criterion):
    t0 = time.time()
    reports = run_primitive_suite(seed=0)
    reports.append(run_composite_check(seed=0))
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for r in reports)
    failed = [r.name for r in reports if not r.ok]
    record_criterion(
        1,
        f"gradient integrity: {len(reports)} checks, worst rel err {worst:.3e} "
        f"(< 1e-4), {elapsed:.1f}s (< 60s)",
    )
    assert failed == []
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. bin validity


def test_criterion_2_bin_validity(record_criterion):
    rng = np.random.default_rng(20)
    checked = 0
    for i in range(1000):
        h_min = float(rng.uniform(-5, 5))
        h_max = h_min + float(rng.uniform(1, 200))
        cfg = HeadConfig(
            n_bins=int(rng.integers(2, 12)),
            token_count=2,
            patch_size=int(rng.choice([1, 2, 4])),
            embed_dim=8,
            depth=1,
            n_heads=2,
            h_min=h_min,
            h_max=h_max,
            use_htc=bool(i % 2),
        )
        head = AdaBinsHead(rng, in_channels=3, grid_hw=(4, 4), cfg=cfg)
        scale = float(rng.choice([1.0, 10.0, 100.0]))
        out = head(Tensor(rng.normal(0, scale, (1, 3, 4, 4))))
        out.bins.validate()
        edges = out.bins.edges.data
        assert np.all(np.diff(edges, axis=-1) > 0)
        assert np.all(edges[:, 0] == h_min)
        assert np.max(np.abs(edges[:, -1] - h_max)) <= 1e-6
        sums = out.probs.data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6
        assert np.all(out.heights.data >= h_min) and np.all(out.heights.data <= h_max)
        checked += 1
    record_criterion(
        2,
        f"bin validity: {checked} random forwards, edges monotone, endpoints "
        "pinned, prob rows sum to 1 +/- 1e-6, heights in range",
    )


# ---------------------------------------------------------------------------
# 3. DC scale solvers round-trip


def _gaussian_mass(sigma, delta):
    val, _ = quad(
        lambda x: np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi)),
        -delta / 2, delta / 2, epsabs=1e-13, epsrel=1e-13,
    )
    return val


def _laplace_mass(b, delta):
    val, _ = quad(
        lambda x: np.exp(-abs(x) / b) / (2 * b),
        -delta / 2, delta / 2, epsabs=1e-13, epsrel=1e-13,
    )
    return val


def test_criterion_3_dc_round_trips(record_criterion):
    p_grid = np.round(np.arange(0.05, 0.951, 0.05), 2)
    deltas = (0.5, 2.0, 10.0)
    worst = 0.0
    for p_m in p_grid:
        for delta in deltas:
            sigma = float(solve_gaussian_sigma(p_m, delta))
            worst = max(worst, abs(_gaussian_mass(sigma, delta) - p_m))
            b = float(solve_laplace_b(p_m, delta))
            worst = max(worst, abs(_laplace_mass(b, delta) - p_m))
            # uniform: the mass the reference CDF puts in the centred GT bin
            edges = np.array([-delta / 2 - 100.0, -delta / 2, delta / 2, delta / 2 + 100.0])
            probs = _family_probs_grid("uniform", edges, np.zeros((1, 1)), np.full((1, 1), p_m))
            worst = max(worst, abs(float(probs[1, 0, 0]) - p_m))
    anchor_sigma = float(solve_gaussian_sigma(sp_erf(1 / np.sqrt(2)), 2.0))
    anchor_b = float(solve_laplace_b(1 - np.exp(-1.0), 2.0))
    record_criterion(
        3,
        f"DC round-trips: {len(p_grid) * len(deltas) * 3} solver cases, worst "
        f"mass error {worst:.2e} (< 1e-9); anchors sigma={anchor_sigma:.12f}, "
        f"b={anchor_b:.12f}",
    )
    assert worst < 1e-9
    assert abs(anchor_sigma - 1.0) < 1e-9
    assert abs(anchor_b - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 4. KL properties


def _kl(p_ref: np.ndarray, p: np.ndarray) -> float:
    """KL(p_ref || p) of one pixel through dc_loss with a frozen reference."""
    n = len(p)
    bins = build_bins(Tensor(np.full((1, n), 1.0 / n)), 0.0, 1.0)
    loss = dc_loss(
        Tensor(p.reshape(1, n, 1, 1)), np.zeros((1, 1, 1, 1)), bins, LossConfig(),
        frozen_ref=p_ref.reshape(1, n, 1, 1),
    )
    return float(loss.data)


def test_criterion_4_kl_properties(record_criterion):
    rng = np.random.default_rng(4)
    min_kl = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        p_ref = rng.uniform(0.0, 1.0, n)
        p_ref /= p_ref.sum()
        p = rng.uniform(1e-6, 1.0, n)
        p /= p.sum()
        min_kl = min(min_kl, _kl(p_ref, p))
    eq = rng.uniform(0.1, 1.0, 8)
    eq /= eq.sum()
    kl_self = _kl(eq, eq)
    # P_m = erf(1/sqrt(2)) in the width-2 GT bin solves to sigma = 1
    masses = _family_probs_grid(
        "gaussian", np.array([-3.0, -1.0, 1.0, 3.0]), np.zeros((1, 1)),
        np.full((1, 1), sp_erf(1 / np.sqrt(2))),
    )[:, 0, 0]
    expected = np.array([0.157305, 0.682689, 0.157305])
    mass_err = float(np.max(np.abs(masses - expected)))
    record_criterion(
        4,
        f"KL: min over 1000 random pairs {min_kl:.3e} (>= 0), self-KL "
        f"{kl_self:.2e} (< 1e-12), gaussian bin masses off by {mass_err:.2e} (< 1e-5)",
    )
    assert min_kl >= 0.0
    assert kl_self < 1e-12
    assert mass_err < 1e-5


# ---------------------------------------------------------------------------
# 5. chamfer oracle equivalence


def _chamfer_oracle(edges: np.ndarray, gt: np.ndarray) -> float:
    d2 = (edges[:, None] - gt[None, :]) ** 2
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def test_criterion_5_chamfer_oracle(record_criterion):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        edges = np.sort(rng.uniform(0, 100, int(rng.integers(2, 12))))
        gt = rng.uniform(0, 100, int(rng.integers(1, 40)))
        got = float(chamfer_bin_loss(Tensor(edges), gt).data)
        worst = max(worst, abs(got - _chamfer_oracle(edges, gt)))
    same = np.sort(rng.uniform(0, 50, 6))
    zero = float(chamfer_bin_loss(Tensor(same), same).data)
    record_criterion(
        5,
        f"chamfer: 100 random sets, worst |loss - oracle| {worst:.2e} (< 1e-12), "
        f"identical sets -> {zero}",
    )
    assert worst < 1e-12
    assert zero == 0.0


# ---------------------------------------------------------------------------
# 6. metrics oracles


def test_criterion_6_metrics_oracles(record_criterion):
    rng = np.random.default_rng(6)
    pred = rng.uniform(0, 30, (8, 8))
    gt = rng.uniform(0, 30, (8, 8))
    mask = rng.uniform(size=(8, 8)) > 0.4

    def loop_rmse(p, g, m):
        total, count = 0.0, 0
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                if m[i, j]:
                    total += (p[i, j] - g[i, j]) ** 2
                    count += 1
        return (total / count) ** 0.5

    rep = compute_report(pred, gt, footprint=mask)
    err_full = abs(rep.rmse - loop_rmse(pred, gt, np.ones_like(mask)))
    err_mask = abs(rep.rmse_m - loop_rmse(pred, gt, mask))

    fp = np.zeros((8, 8))
    fp[2:5, 2:4] = 1.0
    gt_b = np.zeros((8, 8))
    pred_b = np.zeros((8, 8))
    gt_b[2:5, 2] = [10, 10, 12]
    pred_b[2:5, 2] = [8, 9, 100]
    rmse_b = compute_report(pred_b, gt_b, footprint=fp).rmse_b

    n = mask.size
    n_m = int(mask.sum())
    lhs = rep.rmse**2 * n
    rhs = rep.rmse_m**2 * n_m + rep.rmse_nm**2 * (n - n_m)
    record_criterion(
        6,
        f"metrics: loop-oracle errors {max(err_full, err_mask):.2e}, medians case "
        f"RMSE-B {rmse_b} (= 1), partition identity residual {abs(lhs - rhs):.2e}",
    )
    assert err_full < 1e-12 and err_mask < 1e-12
    assert rmse_b == 1.0
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# 7. overfit run


def test_criterion_7_overfit_small_corpus(record_criterion, tmp_path):
    generate_corpus(tmp_path / "data", SceneSpec(seed=0, size=32), count=8,
                    split_fractions=(1.0, 0.0, 0.0))
    cfg = RunConfig(
        manifest=str(tmp_path / "data" / "manifest.json"),
        out_dir=str(tmp_path / "run"),
        seed=0,
        levels=("F5",),
        model=ModelConfig(),
        loss=LossConfig(lambdas=(1.0,)),
        optimizer=OptimizerConfig(lr=2e-3),
        batch_size=4,
        max_epochs=450,
        patience=450,
    )
    t0 = time.time()
    result = run_training(cfg, max_steps=900)
    elapsed = time.time() - t0
    l1 = [r.components["F5/l1"] for r in result.history]
    best = min(l1)
    hit_epoch = next((r.epoch for r, v in zip(result.history, l1) if v < 0.5), None)
    steps = None if hit_epoch is None else 2 * hit_epoch
    record_criterion(
        7,
        f"overfit: train L1 reaches {best:.3f} m (< 0.5) at step {steps} "
        f"(<= 2000), {elapsed:.0f}s (< 600s)",
    )
    assert best < 0.5
    assert hit_epoch is not None
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. desk-scale trend directions


def _trend_config(manifest, out_dir, seed, use_htc, fg, bg):
    return RunConfig(
        manifest=str(manifest),
        out_dir=str(out_dir),
        seed=seed,
        levels=("F5",),
        model=ModelConfig(
            widths=(4, 8, 16, 16, 16),
            head=HeadConfig(n_bins=16, token_count=4, patch_size=2, embed_dim=16,
                            depth=1, n_heads=2, use_htc=use_htc),
        ),
        loss=LossConfig(lambdas=(1.0,), fg_family=fg, bg_family=bg),
        optimizer=OptimizerConfig(lr=3e-3),
        batch_size=8,
        max_epochs=30,
        patience=30,
    )


def test_criterion_8_trend_directions(record_criterion, tmp_path):
    spec = SceneSpec(
        seed=100, size=16, building_count=(1, 3), footprint_size=(3, 6),
        canopy_count=(0, 2), canopy_radius=(1.5, 3.0), building_height_sigma=0.9,
    )
    generate_corpus(tmp_path / "data", spec, count=512)
    manifest = tmp_path / "data" / "manifest.json"
    variants = {
        "htc+dc": (True, "gaussian", "uniform"),
        "nohtc+dc": (False, "gaussian", "uniform"),
        "htc+nodc": (True, "none", "none"),
    }
    values: dict[str, list[float]] = {}
    for tag, (use_htc, fg, bg) in variants.items():
        values[tag] = []
        for seed in range(5):
            cfg = _trend_config(manifest, tmp_path / f"run_{tag}_s{seed}", seed,
                                use_htc, fg, bg)
            result = run_training(cfg)
            report = evaluate_split(result.checkpoint_path, "test")
            values[tag].append(report.rmse_m)
    med = {tag: statistics.median(v) for tag, v in values.items()}
    detail = "; ".join(
        f"{tag} rmse_m {[round(v, 3) for v in vals]} median {med[tag]:.4f}"
        for tag, vals in values.items()
    )
    record_criterion(
        8,
        f"trends (median RMSE-M, 5 seeds): htc+dc {med['htc+dc']:.4f} <= "
        f"nohtc+dc {med['nohtc+dc']:.4f} and <= htc+nodc {med['htc+nodc']:.4f} | {detail}",
    )
    assert med["htc+dc"] <= med["nohtc+dc"]
    assert med["htc+dc"] <= med["htc+nodc"]


# ---------------------------------------------------------------------------
# 9. determinism and persistence


def _random_patch(rng):
    kind = rng.choice(["image", "height", "footprint"])
    side = int(rng.integers(2, 12))
    channels = int(rng.integers(1, 4)) if kind == "image" else 1
    if kind == "image":
        values = rng.uniform(0, 1, (channels, side, side))
    elif kind == "height":
        values = rng.uniform(0, 80, (channels, side, side))
    else:
        values = (rng.uniform(size=(channels, side, side)) > 0.5).astype(np.float64)
    return RasterPatch(
        width=side, height=side, channels=channels,
        gsd=float(rng.uniform(0.2, 10)), kind=str(kind),
        values=values.astype(np.float32),
    )


def test_criterion_9_determinism_and_persistence(record_criterion, tiny_corpus, tmp_path):
    def run(out):
        cfg = RunConfig(
            manifest=str(tiny_corpus),
            out_dir=str(out),
            seed=0,
            levels=("F5",),
            model=ModelConfig(
                widths=(2, 4, 8, 8, 8),
                head=HeadConfig(n_bins=4, token_count=2, patch_size=4, embed_dim=8,
                                depth=1, n_heads=2),
            ),
            loss=LossConfig(lambdas=(1.0,)),
            optimizer=OptimizerConfig(lr=1e-3),
            batch_size=8,
            max_epochs=3,
            patience=10,
        )
        return run_training(cfg)

    a, b = run(tmp_path / "a"), run(tmp_path / "b")
    curves_identical = a.loss_curve() == b.loss_curve()

    first = evaluate_split(a.checkpoint_path, "test")
    second = evaluate_split(a.checkpoint_path, "test")
    reports_identical = first.to_dict() == second.to_dict()

    rng = np.random.default_rng(9)
    path = tmp_path / "fuzz.hmr"
    round_trips = 0
    rejections = 0
    for i in range(1000):
        patch = _random_patch(rng)
        write_raster(patch, path)
        raw = path.read_bytes()
        if i % 2 == 0:
            again = read_raster(path)
            assert again.values.tobytes() == patch.values.tobytes()
            assert (again.kind, again.gsd, again.width, again.height, again.channels) == (
                patch.kind, patch.gsd, patch.width, patch.height, patch.channels
            )
            round_trips += 1
        else:
            mutated = bytearray(raw)
            mode = rng.choice(["flip", "truncate", "extend", "header"])
            if mode == "flip":
                pos = int(rng.integers(0, len(mutated)))
                mutated[pos] ^= int(rng.integers(1, 256))
            elif mode == "truncate":
                mutated = mutated[: int(rng.integers(0, len(mutated)))]
            elif mode == "extend":
                mutated += bytes(rng.integers(0, 256, int(rng.integers(1, 32)), dtype=np.uint8))
            else:
                (header_len,) = struct.unpack_from("<I", raw, 8)
                pos = int(rng.integers(12, 12 + header_len))
                mutated[pos] ^= int(rng.integers(1, 256))
                body = bytes(mutated[:-4])
                mutated[-4:] = struct.pack("<I", zlib.crc32(body))
            path.write_bytes(bytes(mutated))
            try:
                patch2 = read_raster(path)
                patch2.validate()  # benign mutation: must still be well formed
            except RasterParseError as exc:
                assert exc.offset is None or 0 <= exc.offset <= len(mutated)
                rejections += 1
    record_criterion(
        9,
        f"determinism: identical curves {curves_identical}, checkpoint eval "
        f"round-trip {reports_identical}; fuzz: {round_trips} bit-exact "
        f"round-trips, {rejections} malformed inputs rejected with offsets",
    )
    assert curves_identical
    assert reports_identical
    assert round_trips == 500
    assert rejections > 300
