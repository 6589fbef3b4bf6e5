"""End-to-end command-line flows and exit-code contracts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from heightbins.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_GRADCHECK,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from heightbins.raster import read_raster


def write_tiny_config(path, manifest, out_dir, **overrides):
    doc = {
        "manifest": str(manifest),
        "out_dir": str(out_dir),
        "seed": 0,
        "levels": ["F5"],
        "model": {
            "widths": [2, 4, 8, 8, 8],
            "head": {
                "n_bins": 4, "token_count": 2, "patch_size": 4,
                "embed_dim": 8, "depth": 1, "n_heads": 2,
            },
        },
        "loss": {"lambdas": [1.0]},
        "optimizer": {"lr": 1e-3},
        "batch_size": 8,
        "max_epochs": 2,
        "patience": 10,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_corpus):
    """One synth+train round shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_tiny_config(root / "run.json", tiny_corpus, root / "run")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    return {
        "config": cfg_path,
        "checkpoint": root / "run" / "best.ckpt",
        "manifest": tiny_corpus,
        "root": root,
    }


def test_synth_writes_a_corpus(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--count", "12",
               "--seed", "3", "--size", "16"])
    assert rc == EXIT_OK
    assert (tmp_path / "d" / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "12 patches" in out
    entries = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert len(entries) == 12


def test_synth_rejects_malformed_splits(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--count", "4",
               "--size", "16", "--splits", "0.5,0.5"])
    assert rc == EXIT_CONFIG
    assert "error kind=config" in capsys.readouterr().err


def test_train_then_eval_round(trained, capsys):
    rc = main(["eval", "--checkpoint", str(trained["checkpoint"]),
               "--split", "test", "--manifest", str(trained["manifest"])])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    json_line = [ln for ln in out.splitlines() if ln.startswith("{")][-1]
    report = json.loads(json_line)
    assert report["rmse"] >= 0
    assert "rmse" in out


def test_eval_uses_manifest_from_config(trained, capsys):
    rc = main(["eval", "--checkpoint", str(trained["checkpoint"]),
               "--config", str(trained["config"]), "--split", "val"])
    assert rc == EXIT_OK
    assert "rmse" in capsys.readouterr().out


def test_infer_writes_height_raster_and_probe(trained, tmp_path, capsys):
    entries = json.loads(trained["manifest"].read_text())
    image = trained["manifest"].parent / entries[0]["image"]
    out_path = tmp_path / "pred.hmr"
    rc = main(["infer", "--checkpoint", str(trained["checkpoint"]),
               "--input", str(image), "--out", str(out_path), "--probe", "3,2"])
    assert rc == EXIT_OK
    patch = read_raster(out_path)
    assert patch.kind == "height"
    assert patch.values.shape == (1, 16, 16)
    probe_line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")][0]
    probe = json.loads(probe_line)
    assert probe["pixel"] == [3, 2]
    assert len(probe["probs"]) == 4
    assert abs(sum(probe["probs"]) - 1.0) < 1e-6
    assert min(probe["edges"]) == 0.0
    # the probe reads the same forward pass the raster was written from
    assert np.float32(probe["height"]) == patch.values[0, 2, 3]


def test_infer_rejects_probe_outside_image(trained, tmp_path, capsys):
    entries = json.loads(trained["manifest"].read_text())
    image = trained["manifest"].parent / entries[0]["image"]
    rc = main(["infer", "--checkpoint", str(trained["checkpoint"]),
               "--input", str(image), "--out", str(tmp_path / "p.hmr"),
               "--probe", "99,0"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("probe", ["a,b", "3", "1,2,3", ""])
def test_infer_rejects_malformed_probe(trained, tmp_path, capsys, probe):
    entries = json.loads(trained["manifest"].read_text())
    image = trained["manifest"].parent / entries[0]["image"]
    rc = main(["infer", "--checkpoint", str(trained["checkpoint"]),
               "--input", str(image), "--out", str(tmp_path / "p.hmr"),
               "--probe", probe])
    assert rc == EXIT_CONFIG
    assert "x,y integers" in capsys.readouterr().err


def test_infer_rejects_non_image_raster(trained, tmp_path, capsys):
    entries = json.loads(trained["manifest"].read_text())
    height = trained["manifest"].parent / entries[0]["height"]
    rc = main(["infer", "--checkpoint", str(trained["checkpoint"]),
               "--input", str(height), "--out", str(tmp_path / "p.hmr")])
    assert rc == EXIT_DATA
    assert "error kind=data" in capsys.readouterr().err


def test_missing_config_exits_with_config_code(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.json")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error kind=config msg=")


def test_missing_checkpoint_exits_with_data_code(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt")])
    assert rc == EXIT_DATA
    assert "error kind=data" in capsys.readouterr().err


def test_corrupt_raster_exits_with_data_code(trained, tmp_path, capsys):
    bad = tmp_path / "bad.hmr"
    bad.write_bytes(b"not a raster at all, nowhere close")
    rc = main(["infer", "--checkpoint", str(trained["checkpoint"]),
               "--input", str(bad), "--out", str(tmp_path / "p.hmr")])
    assert rc == EXIT_DATA


def test_bad_log_level_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setenv("HEIGHTBINS_LOG", "chatty")
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == EXIT_CONFIG
    assert "HEIGHTBINS_LOG" in capsys.readouterr().err


def test_gradcheck_command_passes(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert "FAIL" not in out


def test_numeric_divergence_exits_with_numeric_code(tiny_corpus, tmp_path, capsys):
    cfg = write_tiny_config(
        tmp_path / "run.json", tiny_corpus, tmp_path / "run",
        optimizer={"lr": 1e6}, max_epochs=50, patience=50,
    )
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_NUMERIC
    assert "error kind=numeric" in capsys.readouterr().err


def test_ablate_emits_a_table(tiny_corpus, tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "run.json", tiny_corpus, tmp_path / "run",
                            max_epochs=1)
    rc = main(["ablate", "--config", str(cfg), "--grid", "htc",
               "--seeds", "1", "--max-steps", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "rmse_m" in out
    assert "on" in out and "off" in out


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "heightbins.cli", "synth", "--out",
         str(tmp_path / "d"), "--count", "2", "--size", "16"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2 patches" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "heightbins.cli", "train", "--config",
         str(tmp_path / "absent.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.strip().splitlines()[-1].startswith("error kind=config msg=")
