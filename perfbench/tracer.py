"""Spans around the program's public entry points, recorded from outside.

``install`` wraps functions and methods of the ``heightbins`` modules in
place, for the life of the process; the program's files are not edited.
A span is ``[name, start, end, parent, step]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``step`` counts model passes, one
per training tape and one per ``predict`` call.  Spans stay in memory and
``summarise`` turns them into the per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

# traced tensor ops: function name in heightbins.tensor -> metric name
OPS = {
    "conv2d": "conv2d",
    "matmul": "matmul",
    "softmax": "softmax",
    "gelu": "gelu",
    "layer_norm": "layer_norm",
    "concat": "concat",
    "_getitem": "slice",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.step = 0
        self._open: list[int] = []
        self.records: dict[int, int] = {}
        self.tape_bytes: dict[int, int] = defaultdict(int)
        self.head_level: dict[int, str] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Point every heightbins module's reference to ``original`` at ``replacement``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("heightbins"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points so that calls record spans."""
    from heightbins import backbone, checkpoint, head, losses, metrics, model, optim, raster
    from heightbins import synth, tensor, train

    Tape = tensor.Tape

    enter = Tape.__enter__

    def tape_enter(tape):
        tracer.step += 1
        return enter(tape)

    record = Tape.record

    def tape_record(tape, out, parents, backward_fn):
        tracer.tape_bytes[tracer.step] += out.data.nbytes
        op = OPS.get(backward_fn.__qualname__.partition(".")[0])
        if op is not None:
            backward_fn = tracer.wrap(backward_fn, f"tensor.{op}.bwd")
        record(tape, out, parents, backward_fn)

    backward = Tape.backward

    def tape_backward(tape, loss):
        tracer.records[tracer.step] = len(tape)
        backward(tape, loss)

    Tape.__enter__ = tape_enter
    Tape.record = tape_record
    Tape.backward = tracer.wrap(tape_backward, "tensor.backward")

    for fn_name, op in OPS.items():
        original = getattr(tensor, fn_name)
        _replace_everywhere(original, tracer.wrap(original, f"tensor.{op}.fwd"))

    net_init = model.HTCDCNet.__init__

    def htcdc_init(net, *args, **kwargs):
        net_init(net, *args, **kwargs)
        for level, h in net.heads.items():
            tracer.head_level[id(h)] = level

    head_call = head.AdaBinsHead.__call__

    def traced_head(h, feat):
        idx = tracer.begin(f"head.{tracer.head_level.get(id(h), 'unknown')}.fwd")
        try:
            return head_call(h, feat)
        finally:
            tracer.end(idx)

    predict = model.HTCDCNet.predict

    def traced_predict(net, images):
        tracer.step += 1
        return predict(net, images)

    model.HTCDCNet.__init__ = htcdc_init
    model.HTCDCNet.predict = tracer.wrap(traced_predict, "model.predict")
    head.AdaBinsHead.__call__ = traced_head
    backbone.UNetBackbone.__call__ = tracer.wrap(backbone.UNetBackbone.__call__, "backbone.fwd")
    optim.AdamW.step = tracer.wrap(optim.AdamW.step, "optim.step")
    metrics.MetricAccumulator.add = tracer.wrap(metrics.MetricAccumulator.add, "metrics.add")

    for original, name in (
        (losses.total_loss, "losses.total"),
        (losses.dc_loss, "losses.dc"),
        (losses.chamfer_bin_loss, "losses.chamfer"),
        (train.evaluate_model, "train.evaluate_model"),
        (checkpoint.save_checkpoint, "checkpoint.save"),
        (checkpoint.load_checkpoint, "checkpoint.load"),
        (raster.read_raster, "raster.read"),
        (metrics.connected_components, "metrics.components"),
        (synth.generate_scene, "synth.scene"),
    ):
        _replace_everywhere(original, tracer.wrap(original, name))


# per-layer metrics: name -> (unit, how it is aggregated)
#   "train": per training step, median over the run's training steps
#   "infer": per batch-1 predict call of the infer phase
#   "call":  per call, median over calls
#   "round": count per round, median over rounds
PER_LAYER = {
    "tensor.backward_ms": ("ms", "train"),
    "tensor.backward_total_ms": ("ms", "train"),
    "tensor.records_per_step": ("count", "train"),
    "tensor.tape_mb_per_step": ("MB", "train"),
    **{
        f"tensor.{op}.{kind}": (unit, "train")
        for op in OPS.values()
        for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))
    },
    "backbone.fwd_ms": ("ms", "train"),
    "backbone.infer_fwd_ms": ("ms", "infer"),
    "head.fwd_ms": ("ms", "train"),
    "head.infer_fwd_ms": ("ms", "infer"),
    "losses.total_ms": ("ms", "train"),
    "losses.dc_ms": ("ms", "train"),
    "losses.chamfer_ms": ("ms", "train"),
    "optim.step_ms": ("ms", "train"),
    "train.validate_ms": ("ms", "call"),
    "checkpoint.save_ms": ("ms", "call"),
    "checkpoint.saves": ("count", "round"),
    "checkpoint.load_ms": ("ms", "call"),
    "raster.read_ms": ("ms", "call"),
    "raster.files_read": ("count", "round"),
    "metrics.add_ms": ("ms", "call"),
    "metrics.components_ms": ("ms", "call"),
    "model.predict_ms": ("ms", "call"),
    "synth.scene_ms": ("ms", "call"),
}

# span name -> the per-call metric its durations feed
_PER_CALL = {
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "raster.read": "raster.read_ms",
    "metrics.add": "metrics.add_ms",
    "metrics.components": "metrics.components_ms",
}
_PER_ROUND = {"checkpoint.save": "checkpoint.saves", "raster.read": "raster.files_read"}


def _step_key(name: str) -> str | None:
    """Per-step metric a span's duration adds to (the phase picks the prefix)."""
    if name.startswith("tensor.") and name != "tensor.backward":
        return name + "_ms"
    if name.startswith("head."):
        return "head.fwd_ms"
    return {
        "tensor.backward": "tensor.backward_total_ms",
        "backbone.fwd": "backbone.fwd_ms",
        "losses.total": "losses.total_ms",
        "losses.dc": "losses.dc_ms",
        "losses.chamfer": "losses.chamfer_ms",
        "optim.step": "optim.step_ms",
    }.get(name)


def summarise(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, plus head forward time per level per step.

    Spans inside the benchmark's own ``phase.setup`` and ``phase.check``
    count only where the layer runs nowhere else (corpus synthesis).
    """
    spans = tracer.spans
    phase: list[str | None] = []
    rnd: list[int | None] = []
    children_s = [0.0] * len(spans)
    rounds = 0
    for name, start, end, parent, _ in spans:
        if name == "round":
            rounds += 1
            rnd.append(rounds)
        else:
            rnd.append(rnd[parent] if parent >= 0 else None)
        if name.startswith("phase."):
            phase.append(name[len("phase."):])
        else:
            phase.append(phase[parent] if parent >= 0 else None)
        if parent >= 0:
            children_s[parent] += end - start

    per_step: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    per_level: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    per_call: dict[str, list[float]] = defaultdict(list)
    per_round: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    train_steps, infer_steps = set(), set()
    for i, (name, start, end, parent, step) in enumerate(spans):
        ms = (end - start) * 1e3
        ph = phase[i]
        if name == "synth.scene":
            per_call["synth.scene_ms"].append(ms)
        if ph not in ("train", "eval", "infer"):
            continue
        if name == "tensor.backward":
            train_steps.add(step)
            per_step["tensor.backward_ms"][step] += ms - children_s[i] * 1e3
        if name == "model.predict" and ph == "infer":
            infer_steps.add(step)
        if name == "model.predict" and parent >= 0 and spans[parent][0] == "train.evaluate_model":
            per_call["model.predict_ms"].append(ms)
        if name == "train.evaluate_model" and ph == "train":
            per_call["train.validate_ms"].append(ms)
        if name in _PER_CALL:
            per_call[_PER_CALL[name]].append(ms)
        if name in _PER_ROUND:
            per_round[_PER_ROUND[name]][rnd[i]] += 1
        if name.endswith(".fwd") and name.startswith("tensor."):
            per_step[name[: -len(".fwd")] + ".calls"][step] += 1
        key = _step_key(name)
        if key is None:
            continue
        if ph == "infer" and key in ("backbone.fwd_ms", "head.fwd_ms"):
            key = key.replace(".fwd_ms", ".infer_fwd_ms")
        per_step[key][step] += ms
        if name.startswith("head."):
            level = name.split(".")[1]
            per_level[f"head.{level}.{'infer_' if ph == 'infer' else ''}fwd_ms"][step] += ms
    for step, n in tracer.records.items():
        if step in train_steps:
            per_step["tensor.records_per_step"][step] = n
            per_step["tensor.tape_mb_per_step"][step] = tracer.tape_bytes[step] / 2**20

    def over_steps(table, key):
        steps = infer_steps if "infer_" in key else train_steps
        return statistics.median(table[key].get(s, 0.0) for s in steps) if steps else 0.0

    out = {}
    for key, (_, how) in PER_LAYER.items():
        if how in ("train", "infer"):
            out[key] = over_steps(per_step, key)
        elif how == "call":
            out[key] = statistics.median(per_call[key]) if per_call[key] else 0.0
        else:
            counts = [per_round[key].get(r, 0) for r in range(1, rounds + 1)]
            out[key] = statistics.median(counts) if counts else 0.0
    levels = {key: over_steps(per_level, key) for key in sorted(per_level)}
    return out, levels
