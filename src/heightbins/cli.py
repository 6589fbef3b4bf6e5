"""Command-line interface.

Subcommands: synth, train, eval, infer, gradcheck, ablate.  Errors exit
with distinct codes (2 config, 3 data, 4 numeric, 5 gradcheck) and print a
single machine-parseable line to stderr.  HEIGHTBINS_LOG selects the log
level (error, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    DomainError,
    GradCheckError,
    NumericError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5

logger = logging.getLogger("heightbins")


def _setup_logging() -> None:
    level_name = os.environ.get("HEIGHTBINS_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(
            f"HEIGHTBINS_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    logging.basicConfig(
        level=levels[level_name], format="%(levelname)s %(name)s %(message)s", stream=sys.stderr
    )


def _load_scene_spec(path: str | None, overrides: dict):
    from .synth import SceneSpec

    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read scene spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scene spec {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("scene spec must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(SceneSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"scene spec has unknown keys {unknown}; known keys: {sorted(known)}")
    spec = SceneSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    spec.validate()
    return spec


def cmd_synth(args) -> int:
    from .synth import generate_corpus

    spec = _load_scene_spec(args.spec, {"seed": args.seed, "size": args.size})
    fractions = tuple(float(x) for x in args.splits.split(","))
    if len(fractions) != 3:
        raise ConfigError(f"--splits wants three comma-separated fractions, got {args.splits!r}")
    entries = generate_corpus(args.out, spec, args.count, fractions)
    counts = {s: sum(1 for e in entries if e.split == s) for s in ("train", "val", "test")}
    print(f"wrote {len(entries)} patches to {args.out} (splits {counts})")
    return EXIT_OK


def cmd_train(args) -> int:
    from .train import run_training

    cfg = load_run_config(args.config)
    result = run_training(cfg, max_steps=args.max_steps)
    print(
        f"best epoch {result.best_epoch} val_rmse {result.best_val_rmse:.6f} "
        f"checkpoint {result.checkpoint_path}"
        + (" (early stop)" if result.stopped_early else "")
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    from .train import evaluate_split

    manifest = args.manifest
    if args.config is not None:
        manifest = manifest or load_run_config(args.config).manifest
    report = evaluate_split(args.checkpoint, args.split, manifest=manifest)
    print(report.format_text())
    print(report.to_json())
    return EXIT_OK


def cmd_infer(args) -> int:
    from .raster import RasterPatch, read_raster, write_raster
    from .tensor import Tensor
    from .train import load_model_from_checkpoint

    model, cfg, meta = load_model_from_checkpoint(args.checkpoint)
    patch = read_raster(args.input)
    if patch.kind != "image":
        raise DataError(f"infer wants an image raster, got kind {patch.kind!r}")
    if patch.width != model.image_size or patch.height != model.image_size:
        raise DataError(
            f"checkpoint expects {model.image_size}px inputs, raster is "
            f"{patch.width}x{patch.height}"
        )
    out = model(Tensor(patch.values.astype(np.float64)[None]))[model.finest_level]
    heights = out.heights.data
    side = heights.shape[-1]
    factor = model.image_size // side
    out_patch = RasterPatch(
        width=side, height=side, channels=1, gsd=patch.gsd * factor,
        kind="height", values=heights[0].astype(np.float32),
    )
    write_raster(out_patch, args.out)
    msg = f"wrote predicted heights to {args.out}"
    if args.probe is not None:
        try:
            x, y = (int(v) for v in args.probe.split(","))
        except ValueError as exc:
            raise ConfigError(f"--probe wants x,y integers, got {args.probe!r}") from exc
        if not (0 <= x < side and 0 <= y < side):
            raise ConfigError(f"--probe {args.probe} outside the {side}px output")
        probe = {
            "pixel": [x, y],
            "edges": [float(v) for v in out.bins.edges.data[0]],
            "centers": [float(v) for v in out.bins.centers.data[0]],
            "probs": [float(v) for v in out.probs.data[0, :, y, x]],
            "height": float(heights[0, 0, y, x]),
        }
        print(json.dumps(probe))
    print(msg)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_composite_check, run_primitive_suite

    reports = run_primitive_suite(seed=args.seed)
    reports.append(run_composite_check(seed=args.seed))
    worst = 0.0
    failed = 0
    for r in reports:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.name:16s} entries {r.n_entries:5d} max_rel {r.max_rel_err:.3e}")
        worst = max(worst, r.max_rel_err)
        failed += 0 if r.ok else 1
    print(f"{len(reports)} checks, worst relative error {worst:.3e}, {failed} failed")
    if failed:
        raise GradCheckError(f"{failed} gradient checks out of tolerance")
    return EXIT_OK


def cmd_ablate(args) -> int:
    from .ablate import run_ablation

    cfg = load_run_config(args.config)
    table = run_ablation(cfg, args.grid, seeds=args.seeds, max_steps=args.max_steps)
    print(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heightbins",
        description="Adaptive-bin monocular height estimation on synthetic rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus plus manifest")
    p.add_argument("--spec", help="scene spec JSON file (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of patches")
    p.add_argument("--seed", type=int, help="override spec seed")
    p.add_argument("--size", type=int, help="override patch side length")
    p.add_argument("--splits", default="0.7,0.15,0.15", help="train,val,test fractions")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--max-steps", type=int, help="hard cap on optimizer steps")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a manifest split")
    p.add_argument("--config", help="run config (for its manifest path)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--manifest", help="override manifest path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="predict heights for one image raster")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--probe", help="x,y pixel: dump its bin probabilities as JSON")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference check of all primitives")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run an ablation grid and print the table")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, choices=["dc", "htc", "levels"])
    p.add_argument("--seeds", type=int, default=3, help="seeds per setting")
    p.add_argument("--max-steps", type=int, help="cap steps per run")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error kind=config msg={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error kind=data msg={exc}", file=sys.stderr)
        return EXIT_DATA
    except GradCheckError as exc:
        print(f"error kind=gradcheck msg={exc}", file=sys.stderr)
        return EXIT_GRADCHECK
    except (NumericError, DomainError, ContractViolation) as exc:
        print(f"error kind=numeric msg={exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
