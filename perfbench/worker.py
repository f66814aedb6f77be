"""Workload process: import the package, build the inputs, run timed ops.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread,
so that set-up time and peak memory belong to one workload alone.  Prints a
single JSON object on its last line of standard output.

``--setup-only`` stops once the inputs exist; ``run.py`` starts several such
processes to take the median set-up time.  In a traced run (``--trace 1``)
even ops run untraced and odd ops traced, so the tracing overhead is measured
on the same inputs and at the same time as the traced numbers.

After set-up and after every op the process times a fixed pure-Python loop,
outside the timed region.  The host's speed drifts by up to 2x over tens of
seconds; ``run.py`` divides each time by the loop time measured next to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> float:
    """Cold import of the CLI module from this checkout's sources, in seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qsurfloss.cli  # noqa: F401  (timed import)

    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["qsurfloss"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qsurfloss imported from {origin}, not from {SRC}")
    return elapsed


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str | None:
        deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name')} {info.get('version')}" if info else None

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
    }


def _reference_loop_s() -> float:
    """Time of a fixed pure-Python loop that does not touch the package."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(12000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return time.perf_counter() - start


def reference_s(after_s: float = 0.0) -> float:
    """Mean loop time over at least 0.5% of ``after_s`` (and at least once),
    so that a long op gets as steady a reference as a short one."""
    times = [_reference_loop_s()]
    while sum(times) < 0.005 * after_s:
        times.append(_reference_loop_s())
    return statistics.fmean(times)


def _run_ops(workload, seconds: float, trace: bool) -> tuple[list, object]:
    from workloads import CheckFailed

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    samples = []
    reference = reference_s()
    start = time.perf_counter()
    k = 0
    # at least one op, and in a traced run at least one traced and one plain op
    while k < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1
        workload.prepare(k)
        first = None
        if traced:
            tracer.install()
            first = tracer.begin_op(k)
        error = result = None
        t0 = time.perf_counter()
        try:
            result = workload.op(k)
        except Exception:  # a failed op is recorded and the run goes on
            error = traceback.format_exc(limit=3)
        seconds_op = time.perf_counter() - t0
        if traced:
            try:
                tracer.end_op(first)
            finally:
                tracer.restore()
        outputs = None
        if error is None:
            try:
                outputs = workload.check(k, result)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        after = reference_s(seconds_op)
        samples.append({
            "op": k,
            "traced": traced,
            "seconds": seconds_op,
            "reference_s": 0.5 * (reference + after),
            "ok": error is None,
            "error": error,
            "outputs": outputs,
        })
        reference = after
        k += 1
    return samples, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = _import_package()
    from workloads import WORKLOADS

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir, args.size)
    ready_wall = time.time()
    record = {"import_s": import_s, "ready_wall": ready_wall,
              "reference_s": reference_s(2.0)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    samples, tracer = _run_ops(workload, args.seconds, bool(args.trace))
    record.update(
        environment=_environment(),
        inputs=workload.describe(),
        expected=workload.expected(),
        samples=samples,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        from tracing import layer_metrics

        traced = [s for s in samples if s["traced"]]
        layers = layer_metrics(tracer.spans, len(traced))
        if workload.accuracy_metric is not None:
            errors = [s["outputs"]["rel_err"] for s in traced if s["ok"]]
            if errors:
                layers[workload.accuracy_metric] = statistics.median(errors)
        record["layers"] = layers
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([vars(s) for s in tracer.spans], fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
