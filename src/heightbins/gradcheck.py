"""Finite-difference verification of tape gradients.

Central differences with step h compare every analytic gradient entry
against (f(x+h) - f(x-h)) / 2h.  An entry fails when the absolute gap
exceeds both the relative tolerance (scaled by the larger gradient
magnitude) and an absolute floor that absorbs roundoff noise of order
eps * |f| / h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GradCheckError
from .tensor import Tape, Tensor

__all__ = ["GradCheckReport", "check_gradients"]


@dataclass
class GradCheckReport:
    """Outcome of one gradient check.

    Attributes:
        name: label for the checked function.
        max_rel_err: worst relative error over entries above the noise floor.
        n_entries: number of parameter entries compared.
        failures: per-entry diagnostics for entries out of tolerance.
    """

    name: str
    max_rel_err: float
    n_entries: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_gradients(
    fn,
    params: list[Tensor],
    name: str = "fn",
    h: float = 1e-5,
    rtol: float = 1e-4,
    atol: float | None = None,
    raise_on_fail: bool = True,
) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    Args:
        fn: callable of no arguments returning a scalar Tensor; it must read
            the current values of params on every call.
        params: leaf tensors (requires_grad=True) to perturb.
        name: label used in the report and error message.
        h: finite-difference step.
        rtol: relative tolerance on each gradient entry.
        atol: absolute noise floor; defaults to 1e-7 * max(1, |f|).
        raise_on_fail: raise GradCheckError instead of returning a bad report.

    Returns:
        GradCheckReport with the worst relative error observed.
    """
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = fn()
    tape.backward(loss)
    f0 = float(loss.data)
    if atol is None:
        atol = 1e-7 * max(1.0, abs(f0))

    analytic = []
    for p in params:
        analytic.append(
            np.zeros_like(p.data) if p.grad is None else np.array(p.grad, dtype=np.float64)
        )

    max_rel = 0.0
    failures: list[str] = []
    n_entries = 0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        a_flat = analytic[pi].reshape(-1)
        for j in range(flat.size):
            n_entries += 1
            keep = flat[j]
            flat[j] = keep + h
            f_plus = float(fn().data)
            flat[j] = keep - h
            f_minus = float(fn().data)
            flat[j] = keep
            fd = (f_plus - f_minus) / (2.0 * h)
            a = a_flat[j]
            gap = abs(a - fd)
            scale = max(abs(a), abs(fd))
            if scale > atol:
                max_rel = max(max_rel, gap / scale)
            if gap > max(rtol * scale, atol):
                failures.append(
                    f"param {pi} entry {j}: analytic {a:.6e}, fd {fd:.6e}, gap {gap:.3e}"
                )
    report = GradCheckReport(name=name, max_rel_err=max_rel, n_entries=n_entries, failures=failures)
    if raise_on_fail and not report.ok:
        head = "; ".join(failures[:3])
        raise GradCheckError(
            f"gradcheck '{name}': {len(failures)}/{n_entries} entries out of tolerance: {head}"
        )
    return report


def run_primitive_suite(seed: int = 0, raise_on_fail: bool = False) -> list[GradCheckReport]:
    """Finite-difference check of every differentiable primitive.

    Each case builds small random inputs, composes the op with a frozen
    random linear projection to a scalar, and compares tape gradients
    against central differences.
    """
    from . import tensor as T

    rng = np.random.default_rng(seed)

    def rand(*shape, positive=False, lo=None):
        data = rng.standard_normal(shape)
        if positive:
            data = np.abs(data) + 0.5
        if lo is not None:
            data = data + lo
        return Tensor(data, requires_grad=True)

    cases = []

    def case(name, builder):
        cases.append((name, builder))

    case("add", lambda: ((a := rand(3, 4)), (b := rand(3, 4)), lambda: a + b))
    case("add_broadcast", lambda: ((a := rand(3, 4)), (b := rand(4)), lambda: a + b))
    case("sub", lambda: ((a := rand(3, 4)), (b := rand(3, 4)), lambda: a - b))
    case("mul", lambda: ((a := rand(3, 4)), (b := rand(3, 4)), lambda: a * b))
    case("div", lambda: ((a := rand(3, 4)), (b := rand(3, 4, positive=True)), lambda: a / b))
    case("neg", lambda: ((a := rand(3, 4)), lambda: -a))
    case("matmul", lambda: ((a := rand(3, 4)), (b := rand(4, 5)), lambda: T.matmul(a, b)))
    case(
        "matmul_batched",
        lambda: ((a := rand(2, 3, 4)), (b := rand(2, 4, 5)), lambda: T.matmul(a, b)),
    )
    case("reshape", lambda: ((a := rand(3, 4)), lambda: T.reshape(a, (2, 6))))
    case("transpose", lambda: ((a := rand(2, 3, 4)), lambda: T.transpose(a, (2, 0, 1))))
    case(
        "concat",
        lambda: ((a := rand(2, 3)), (b := rand(2, 2)), lambda: T.concat([a, b], axis=1)),
    )
    case("broadcast_to", lambda: ((a := rand(1, 4)), lambda: T.broadcast_to(a, (3, 4))))
    case("getitem", lambda: ((a := rand(4, 5)), lambda: a[1:3, ::2]))
    case("sum", lambda: ((a := rand(3, 4)), lambda: T.tsum(a, axis=1)))
    case("mean", lambda: ((a := rand(3, 4)), lambda: T.tmean(a, axis=0)))
    case("cumsum", lambda: ((a := rand(3, 4)), lambda: T.cumsum(a, axis=1)))
    case("reduce_min", lambda: ((a := rand(3, 4)), lambda: T.reduce_min(a, axis=1)))
    case("exp", lambda: ((a := rand(3, 4)), lambda: T.texp(a)))
    case("log", lambda: ((a := rand(3, 4, positive=True)), lambda: T.tlog(a)))
    case("sqrt", lambda: ((a := rand(3, 4, positive=True)), lambda: T.tsqrt(a)))
    case("abs", lambda: ((a := rand(3, 4, lo=5.0)), lambda: T.tabs(a)))
    case("clip", lambda: ((a := rand(3, 4)), lambda: T.clip(a, -0.4, 0.4)))
    case(
        "where",
        lambda: (
            (a := rand(3, 4)),
            (b := rand(3, 4)),
            lambda: T.where(a.data > 0, a * 2.0, b),
        ),
    )
    case("relu", lambda: ((a := rand(3, 4, lo=0.3)), lambda: T.relu(a)))
    case("gelu", lambda: ((a := rand(3, 4)), lambda: T.gelu(a)))
    case("sigmoid", lambda: ((a := rand(3, 4)), lambda: T.sigmoid(a)))
    case("erf", lambda: ((a := rand(3, 4)), lambda: T.erf(a)))
    case("softmax", lambda: ((a := rand(3, 4)), lambda: T.softmax(a, axis=-1)))
    case(
        "layer_norm",
        lambda: (
            (a := rand(3, 4)),
            (g := rand(4)),
            (b := rand(4)),
            lambda: T.layer_norm(a, g, b),
        ),
    )
    case(
        "conv2d_3x3",
        lambda: (
            (x := rand(1, 2, 5, 5)),
            (w := rand(3, 2, 3, 3)),
            (b := rand(3)),
            lambda: T.conv2d(x, w, b, stride=1, padding=1),
        ),
    )
    case(
        "conv2d_strided",
        lambda: (
            (x := rand(1, 2, 5, 5)),
            (w := rand(3, 2, 3, 3)),
            (b := rand(3)),
            lambda: T.conv2d(x, w, b, stride=2, padding=1),
        ),
    )
    case(
        "conv2d_1x1",
        lambda: (
            (x := rand(1, 2, 4, 4)),
            (w := rand(3, 2, 1, 1)),
            (b := rand(3)),
            lambda: T.conv2d(x, w, b),
        ),
    )
    case("upsample2x", lambda: ((a := rand(1, 2, 3, 3)), lambda: T.upsample2x(a)))

    reports = []
    for name, builder in cases:
        built = builder()
        params = [t for t in built[:-1] if isinstance(t, Tensor)]
        op = built[-1]
        proj_rng = np.random.default_rng(seed + 1)
        frozen = {}

        def fn(op=op, proj_rng=proj_rng, frozen=frozen):
            out = op()
            if "w" not in frozen:
                frozen["w"] = Tensor(proj_rng.standard_normal(int(np.prod(out.shape))))
            from .tensor import reshape, tsum

            flat = reshape(out, (int(np.prod(out.shape)),))
            return tsum(flat * frozen["w"])

        reports.append(
            check_gradients(fn, params, name=name, raise_on_fail=raise_on_fail)
        )
    return reports


def run_composite_check(seed: int = 0, raise_on_fail: bool = False) -> GradCheckReport:
    """End-to-end check: adaptive-bin head plus the full weighted loss on a
    4x4 feature patch with 8 bins and 4 tokens per branch.

    Loss references and the branch gate are functions of the prediction;
    both are frozen at the base point so finite differences probe the same
    function the tape differentiates.
    """
    from .head import AdaBinsHead, HeadConfig
    from .losses import LossConfig, build_reference_probs, total_loss

    rng = np.random.default_rng(seed)
    cfg = HeadConfig(
        n_bins=8, token_count=4, patch_size=1, embed_dim=8, depth=1, n_heads=2,
        h_min=0.0, h_max=20.0,
    )
    head = AdaBinsHead(rng, in_channels=3, grid_hw=(4, 4), cfg=cfg)
    feat = Tensor(rng.standard_normal((1, 3, 4, 4)))
    gt = rng.uniform(0.0, 20.0, (1, 1, 4, 4))
    gt[0, 0, :2, :] = rng.uniform(0.0, 0.8, (2, 4))  # some background pixels
    loss_cfg = LossConfig(lambdas=(1.0,), fg_family="gaussian", bg_family="uniform")

    base = head(feat)
    frozen_refs = {
        "F5": build_reference_probs(
            base.probs.data, gt, base.bins.edges.data, loss_cfg
        )
    }

    def fn():
        out = head(feat)
        total, _ = total_loss({"F5": out}, gt, loss_cfg, frozen_refs=frozen_refs)
        return total

    params = [p for _, p in head.named_parameters()]
    return check_gradients(
        fn, params, name="head+loss", raise_on_fail=raise_on_fail
    )
