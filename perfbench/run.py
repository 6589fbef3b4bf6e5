"""Benchmark of heightbins: one workload per run, one process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload trend_run16 --seed 1 --seconds 30 --trace 0

The run sets up its workload (imports, corpus synthesis), then repeats
whole rounds (train, evaluate, infer; see workloads.py) until ``--seconds``
have passed, checks the outputs and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the program's entry points are wrapped with spans and
the metrics are the per-layer ones.  The line before it records the
environment.  Results go to perfbench/results/, spans to perfbench/traces/.
"""

import time

_T0 = time.perf_counter()

import os

# pinned before numpy is imported, so BLAS starts with one thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_default32", "trend_run16", "eval_multilevel32")


def _process_age() -> float:
    """Seconds since this process started; from the first line of this file
    where /proc does not say."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        age = -1.0
    since_t0 = time.perf_counter() - _T0
    return age if since_t0 <= age < since_t0 + 60 else since_t0


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


QUIET_FACTOR = 1.3


def quiet_latencies(rounds) -> list[float]:
    """Sorted batch-1 latencies of the calls made while the host was quiet.

    Quiet means the slower host probe around the call ran within
    ``QUIET_FACTOR`` of the run's fast probe times (their 10th percentile).
    With no quiet call, every latency is kept.
    """
    samples = [s for r in rounds for s in zip(r.latencies_s, r.latency_probe_s)]
    limit = QUIET_FACTOR * statistics.quantiles([p for _, p in samples], n=10)[0]
    return sorted([v for v, p in samples if p <= limit] or [v for v, _ in samples])


def end_to_end(bench, rounds, latencies, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "train_patches_per_s": (
            statistics.median(bench.train_patches / r.train_s for r in rounds), "patches/s"),
        "eval_patches_per_s": (
            statistics.median(bench.eval_patches / r.eval_s for r in rounds), "patches/s"),
        "infer_ms": (statistics.median(latencies) * 1e3, "ms"),
        # the highest percentile with at least ten samples beyond it
        "infer_ms_tail": (latencies[max(len(latencies) - 11, 0)] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heightbins" / "__init__.py").is_file():
        print(f"error: no heightbins package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from heightbins import HeightbinsError

    import checks
    import workloads

    tracer = None
    span = workloads.no_span
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span

    work_dir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        bench = workloads.Bench(args.workload, args.seed, work_dir, span)
        setup_s = _process_age()
        rounds, attempted, failed, correct = [], 0, 0, True
        t_start = time.perf_counter()
        while True:
            attempted += bench.operations
            try:
                with span("round"):
                    rnd = bench.run_round()
            except HeightbinsError as exc:
                print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += bench.operations
            else:
                try:
                    bench.check(rnd, rounds[0] if rounds else None)
                except checks.CheckFailed as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    correct = False
                rounds.append(rnd)
                if not bench.probe.agrees():
                    failed += 1
            if not correct or time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not rounds:
        print("error: every round failed", file=sys.stderr)
        return 1

    latencies = quiet_latencies(rounds)
    e2e = end_to_end(bench, rounds, latencies, setup_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(rounds),
        "infer_calls": sum(len(r.latencies_s) for r in rounds),
        "infer_quiet_calls": len(latencies),
        "round_phase_s": [[r.train_s, r.eval_s, sum(r.latencies_s)] for r in rounds],
        "infer_ms_all_calls": 1e3 * statistics.median(s for r in rounds for s in r.latencies_s),
        "phase_s": {
            "train": statistics.median(r.train_s for r in rounds),
            "eval": statistics.median(r.eval_s for r in rounds),
            "infer": statistics.median(sum(r.latencies_s) for r in rounds),
        },
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if tracer is None:
        metrics = e2e
    else:
        layers, head_levels = tracing.summarise(tracer)
        metrics = {k: (v, tracing.PER_LAYER[k][0]) for k, v in layers.items()}
        record["head_levels_ms"] = head_levels
        trace_dir = BENCH_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with gzip.open(trace_dir / f"{args.workload}.json.gz", "wt") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "step"],
                    "spans": [
                        [n, round(s - t0, 7), round(e - t0, 7), p, st]
                        for n, s, e, p, st in tracer.spans
                    ],
                },
                fh,
            )
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({k: record[k] for k in ("environment", "rounds", "infer_calls", "phase_s")}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
