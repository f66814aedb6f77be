#!/usr/bin/env python3
"""Benchmark of the qsurfloss analysis chain.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report_sweep --seed 1 --seconds 30 --trace 0

Workloads: ``report_sweep``, ``solve_general``, ``measurement_analysis``
(see ``perfbench/README.md``).  The run starts one fresh interpreter per
set-up sample and one for the timed ops, all with BLAS pinned to one thread,
checks every op's outputs, prints each metric by name with its unit, writes
the full record (environment, per-op timings with the numbers they produced,
and in a traced run the spans) under ``.perfbench_results/``, and prints as
its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The run exits non-zero without a result when the
package sources are missing or a traced op escaped the wrappers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report_sweep", "solve_general", "measurement_analysis")
#: Set-up is measured this many times per run (one is the measuring process).
SETUP_SAMPLES = 7
#: One BLAS thread: a second one saves at most ~6% at N=1792 on two cores
#: but widened the spread between two processes' medians from 1.4% to 13%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Every process of a run ends within this many seconds of the run's start.
RUN_LIMIT_S = 170.0
#: Time of the worker's reference loop at the speed the reported seconds
#: refer to (its median on the two-core Xeon host the baseline was taken on).
#: Every time metric is scaled by this over the loop time measured next to
#: it, which cancels the host's drift: over eight 30 s runs this cut the
#: quartile spread of the op median from 14% to 6.5% (measurement_analysis)
#: and from 7.5% to 5% (solve_general).
REFERENCE_NOMINAL_S = 0.0022

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class RunError(RuntimeError):
    """A benchmark process failed; the run reports no result."""


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its record and its start time (wall)."""
    env = dict(os.environ, **BLAS_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run time limit reached before a worker could start")
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker printed nothing:\n{proc.stderr.strip()}")
    return json.loads(lines[-1]), started


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def tail(times: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            rank = max(math.ceil(pct / 100.0 * n), 1)
            return {"percentile": pct, "value": ordered[rank - 1], "beyond": n - rank}
    return None


def scaled(seconds: float, reference_s: float) -> float:
    """Seconds at the reference speed (see REFERENCE_NOMINAL_S)."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def summarize(record: dict, setup: list[float], imports: list[float],
              trace: bool, per_layer_names: list[str]) -> dict:
    samples = record["samples"]
    plain = [s for s in samples if not s["traced"]]
    times = [scaled(s["seconds"], s["reference_s"]) for s in plain]
    if trace:
        traced = [scaled(s["seconds"], s["reference_s"]) for s in samples if s["traced"]]
        metrics = {name: record["layers"].get(name, 0.0) for name in per_layer_names}
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
        return metrics
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "ops_per_s": sum(s["ok"] for s in plain) / sum(times),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qsurfloss benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's self-tests")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_results",
                        help="directory for the full record of the run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsurfloss" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{stem}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    setup, imports = [], []
    try:
        for i in range(SETUP_SAMPLES - 1):
            probe, started = _worker(
                common + ["--work-dir", str(work / f"probe{i}"), "--setup-only"], deadline)
            setup.append(scaled(probe["ready_wall"] - started, probe["reference_s"]))
            imports.append(probe["import_s"])
        spans = args.out / f"{stem}-spans.json"
        record, started = _worker(
            common + ["--work-dir", str(work / "run"), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--spans", str(spans)], deadline)
        setup.append(scaled(record["ready_wall"] - started, record["reference_s"]))
        imports.append(record["import_s"])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = summarize(record, setup, imports, bool(args.trace), list(units))
    samples = record["samples"]
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    plain = [s for s in samples if not s["traced"]]
    wall = [s["seconds"] for s in plain]
    errors = [s["outputs"]["rel_err"] for s in samples
              if s["ok"] and s["outputs"].get("rel_err") is not None]
    extra = {
        "fail_ratio": failed / attempted,
        "op_s.samples": len(plain),
        "op_s.tail": tail([scaled(s["seconds"], s["reference_s"]) for s in plain]),
        "op_s.p50.wall": statistics.median(wall),
        "ops_per_s.wall": sum(s["ok"] for s in plain) / sum(wall),
        "reference_s.p50": statistics.median(s["reference_s"] for s in samples),
        "accuracy.rel_err": statistics.median(errors) if errors else None,
        "setup_s.samples": setup,
    }
    environment = dict(
        record["environment"],
        seed=args.seed,
        blas_threads=BLAS_ENV,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        cpu_model=_cpu_model(),
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    for name, value in extra.items():
        print(f"info {name} = {json.dumps(value)}")
    if args.trace:
        for name, want in record["expected"].items():
            print(f"expected {name} = {want} at the parent commit, observed "
                  f"{metrics[name]:.6g}")
    for s in samples:
        if not s["ok"]:
            print(f"failed op {s['op']}: {s['error']}")

    args.out.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment,
        "inputs": record["inputs"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": extra,
        "expected": record["expected"],
        "layers": record.get("layers"),
        "samples": samples,
    }
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
