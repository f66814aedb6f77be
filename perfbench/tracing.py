"""Spans and counters recorded around the package's public functions.

The traced run wraps each function in :data:`TARGETS` from outside the
package.  A wrapper replaces every module-level name bound to the original
function object in any loaded ``qsurfloss`` module, and every value of the
``lossmodel.FITTERS`` dict, because callers look functions up there
(``from .solver import solve_cross_section`` in participation and pipeline;
``FITTERS[model]`` in pipeline and cli).  :meth:`Tracer.restore` puts the
originals back.

Each wrapped call records a span (name, start, end, parent span, op id) and
the counts its layer metrics need; spans stay in memory until the run ends.
Construction counters on the result classes give an independent count of
solves and fits, so a call site that bypassed the wrappers raises
:class:`TraceError` instead of under-reporting.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

#: (module, function) pairs wrapped in the traced run.
TARGETS = (
    ("qsurfloss.solver", "solve_cross_section"),
    ("qsurfloss.solver", "tangential_field"),
    ("qsurfloss.solver", "refine_until_converged"),
    ("qsurfloss.solver", "reconstruct_gap_voltage"),
    ("qsurfloss.solver", "solution_to_csv"),
    ("qsurfloss.participation", "psm_width_sweep"),
    ("qsurfloss.participation", "participation_set"),
    ("qsurfloss.participation", "cutoff_sensitivity"),
    ("qsurfloss.participation", "write_sweep_csv"),
    ("qsurfloss.geometry", "interdigital_unit_cell"),
    ("qsurfloss.lossmodel", "fit_sm_only"),
    ("qsurfloss.lossmodel", "fit_sm_plus_q0"),
    ("qsurfloss.lossmodel", "fit_sm_plus_j"),
    ("qsurfloss.qubitfit", "fit_exponential"),
    ("qsurfloss.qubitfit", "t1_statistics"),
    ("qsurfloss.qubitfit", "purcell_limit"),
    ("qsurfloss.qubitfit", "q_statistics_from_rounds"),
    ("qsurfloss.dataio", "save_device_table"),
    ("qsurfloss.dataio", "load_device_table"),
    ("qsurfloss.dataio", "group_for_fit"),
    ("qsurfloss.pipeline", "run_pipeline"),
    ("qsurfloss.pipeline", "write_report_json"),
)

#: Result classes whose constructions count solves and fits independently
#: of the wrappers: (module, class, span name that must match).
GROUND_TRUTH = (
    ("qsurfloss.solver", "FieldSolution", "solver.solve_cross_section"),
    ("qsurfloss.qubitfit", "T1Estimate", "qubitfit.fit_exponential"),
    ("qsurfloss.lossmodel", "LossFitResult", "lossmodel.fit_*"),
)

FITTER_SPANS = ("lossmodel.fit_sm_only", "lossmodel.fit_sm_plus_q0",
                "lossmodel.fit_sm_plus_j")

#: Per-layer metrics of the traced run, in BENCHMARK.json order: name, unit.
#: Counts and times are per traced op; a layer a workload never reaches
#: reads 0.
PER_LAYER = (
    ("solver.solve_cross_section.calls", "count/op"),
    ("solver.solve_cross_section.busy_s", "s/op"),
    ("solver.solve_cross_section.self_s", "s/op"),
    ("solver.solve_cross_section.unknowns", "count/op"),
    ("solver.solve_cross_section.unknowns_max", "count"),
    ("solver.solve_cross_section.residual_max", "1"),
    ("solver.solve_cross_section.failed", "count/op"),
    ("solver.solve_cross_section.lu_flops", "flop/op"),
    ("solver.solve_cross_section.matrix_bytes", "B/op"),
    ("solver.tangential_field.calls", "count/op"),
    ("solver.tangential_field.busy_s", "s/op"),
    ("solver.refine_until_converged.calls", "count/op"),
    ("solver.refine_until_converged.busy_s", "s/op"),
    ("solver.refine_until_converged.levels", "count/call"),
    ("solver.refine_until_converged.useful_unknowns_ratio", "ratio"),
    ("solver.reconstruct_gap_voltage.rel_err", "1"),
    ("solver.solution_to_csv.busy_s", "s/op"),
    ("participation.psm_width_sweep.calls", "count/op"),
    ("participation.psm_width_sweep.busy_s", "s/op"),
    ("participation.psm_width_sweep.self_s", "s/op"),
    ("participation.participation_set.calls", "count/op"),
    ("participation.participation_set.busy_s", "s/op"),
    ("participation.participation_set.self_s", "s/op"),
    ("participation.cutoff_sensitivity.calls", "count/op"),
    ("participation.cutoff_sensitivity.busy_s", "s/op"),
    ("participation.cutoff_sensitivity.self_s", "s/op"),
    ("participation.write_sweep_csv.calls", "count/op"),
    ("participation.write_sweep_csv.busy_s", "s/op"),
    ("participation.write_sweep_csv.self_s", "s/op"),
    ("geometry.interdigital_unit_cell.calls", "count/op"),
    ("lossmodel.fit_sm_only.calls", "count/op"),
    ("lossmodel.fit_sm_only.busy_s", "s/op"),
    ("lossmodel.fit_sm_only.failed", "count/op"),
    ("lossmodel.fit_sm_plus_q0.calls", "count/op"),
    ("lossmodel.fit_sm_plus_q0.busy_s", "s/op"),
    ("lossmodel.fit_sm_plus_q0.failed", "count/op"),
    ("lossmodel.fit_sm_plus_j.calls", "count/op"),
    ("lossmodel.fit_sm_plus_j.busy_s", "s/op"),
    ("lossmodel.fit_sm_plus_j.failed", "count/op"),
    ("qubitfit.fit_exponential.calls", "count/op"),
    ("qubitfit.fit_exponential.busy_s", "s/op"),
    ("qubitfit.fit_exponential.failed", "count/op"),
    ("qubitfit.fit_exponential.useful_ratio", "ratio"),
    ("qubitfit.fit_exponential.rel_err", "1"),
    ("qubitfit.t1_statistics.busy_s", "s/op"),
    ("qubitfit.purcell_limit.busy_s", "s/op"),
    ("qubitfit.q_statistics_from_rounds.busy_s", "s/op"),
    ("dataio.save_device_table.busy_s", "s/op"),
    ("dataio.save_device_table.rows", "count/op"),
    ("dataio.load_device_table.busy_s", "s/op"),
    ("dataio.load_device_table.rows", "count/op"),
    ("dataio.group_for_fit.busy_s", "s/op"),
    ("dataio.group_for_fit.rows", "count/op"),
    ("pipeline.run_pipeline.busy_s", "s/op"),
    ("pipeline.run_pipeline.self_s", "s/op"),
    ("pipeline.write_report_json.busy_s", "s/op"),
    ("pipeline.write_report_json.self_s", "s/op"),
    ("cli.import_s", "s"),
    ("cli.report.self_s", "s/op"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count/op"),
)


class TraceError(RuntimeError):
    """The wrappers missed calls that the ground-truth counters saw."""


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _unknowns(sol) -> int:
    return sol.elements_per_strip * len(sol.strips)


def _observe_solve(span, args, kwargs, sol) -> None:
    span.attrs["n"] = _unknowns(sol)
    span.attrs["residual"] = sol.residual_norm


def _observe_refine(span, args, kwargs, sol) -> None:
    span.attrs["n"] = _unknowns(sol)
    span.attrs["levels"] = sol.refinement_levels


def _observe_rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = len(result)


def _observe_saved_rows(span, args, kwargs, result) -> None:
    records = args[0] if args else kwargs["records"]
    span.attrs["rows"] = len(records)


OBSERVERS = {
    "solver.solve_cross_section": _observe_solve,
    "solver.refine_until_converged": _observe_refine,
    "dataio.load_device_table": _observe_rows,
    "dataio.group_for_fit": _observe_rows,
    "dataio.save_device_table": _observe_saved_rows,
}


class Tracer:
    """Installs the wrappers, records spans and checks them per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.truth: dict[str, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qsurfloss" or name.startswith("qsurfloss.")]
        for mod_name, fn_name in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, fn_name)
            span_name = f"{mod_name.rsplit('.', 1)[1]}.{fn_name}"
            self._rebind(modules, orig, self._wrap(span_name, orig))
        cli = importlib.import_module("qsurfloss.cli")
        callback = cli.report.callback
        self._patches.append((cli.report, "callback", callback))
        cli.report.callback = self._wrap("cli.report", callback)
        for mod_name, cls_name, span_name in GROUND_TRUTH:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._count(span_name, cls.__init__)

    def _rebind(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        fitters = sys.modules["qsurfloss.lossmodel"].FITTERS
        for key, value in list(fitters.items()):
            if value is orig:
                self._patches.append((fitters, key, orig))
                fitters[key] = wrapper

    def restore(self) -> None:
        while self._patches:
            target, key, orig = self._patches.pop()
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, init):
        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.truth[key] = self.truth.get(key, 0) + 1

        return counted

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op: int) -> int:
        self.op = op
        self.truth = {}
        return len(self.spans)

    def end_op(self, first: int) -> None:
        """Check the op's spans against the ground-truth counters."""
        spans = self.spans[first:]
        seen = {key: 0 for _, _, key in GROUND_TRUTH}
        for s in spans:
            if s.failed:
                continue
            if s.name in FITTER_SPANS:
                seen["lossmodel.fit_*"] += 1
            elif s.name in seen:
                seen[s.name] += 1
        for key, count in seen.items():
            built = self.truth.get(key, 0)
            if built != count:
                raise TraceError(
                    f"op {self.op}: {built} results built but {count} wrapped "
                    f"{key} calls seen; a call site bypassed the wrappers"
                )
        index = {id(s): first + i for i, s in enumerate(spans)}
        for s in spans:
            if s.name != "solver.refine_until_converged" or s.failed:
                continue
            me = index[id(s)]
            solves = sum(1 for c in spans
                         if c.parent == me and c.name == "solver.solve_cross_section")
            if solves != s.attrs["levels"] + 1:
                raise TraceError(
                    f"op {self.op}: refine_until_converged reached level "
                    f"{s.attrs['levels']} but {solves} solves were seen "
                    f"(want levels + 1)"
                )


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Aggregate spans into the per-op layer metrics of :data:`PER_LAYER`.

    ``busy_s`` is the time inside a function's outermost spans; ``self_s``
    subtracts the time covered by its child spans (children of one span run
    one after another, so their durations add up).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def outermost(i: int) -> bool:
        name, p = spans[i].name, spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return False
            p = spans[p].parent
        return True

    per_op = max(n_ops, 1)
    out: dict[str, float] = {}
    for name, idx in by_name.items():
        out[f"{name}.calls"] = len(idx) / per_op
        out[f"{name}.failed"] = sum(spans[i].failed for i in idx) / per_op
        out[f"{name}.busy_s"] = sum(spans[i].seconds for i in idx if outermost(i)) / per_op
        out[f"{name}.self_s"] = sum(spans[i].seconds - child_time[i] for i in idx) / per_op

    solves = [spans[i] for i in by_name.get("solver.solve_cross_section", [])
              if not spans[i].failed]
    ns = [s.attrs["n"] for s in solves]
    out["solver.solve_cross_section.unknowns"] = sum(ns) / per_op
    out["solver.solve_cross_section.unknowns_max"] = max(ns, default=0)
    out["solver.solve_cross_section.residual_max"] = max(
        (s.attrs["residual"] for s in solves), default=0.0)
    # operation and byte counts computed from N for the (N+1)-square system
    out["solver.solve_cross_section.lu_flops"] = sum(
        2.0 / 3.0 * (n + 1) ** 3 for n in ns) / per_op
    out["solver.solve_cross_section.matrix_bytes"] = sum(
        8.0 * (n + 1) ** 2 for n in ns) / per_op

    refines = [i for i in by_name.get("solver.refine_until_converged", [])
               if not spans[i].failed]
    out["solver.refine_until_converged.levels"] = (
        statistics.fmean(spans[i].attrs["levels"] for i in refines) if refines else 0.0)
    refine_set = set(refines)
    solved = sum(s.attrs["n"] for s in solves if s.parent in refine_set)
    final = sum(spans[i].attrs["n"] for i in refines)
    out["solver.refine_until_converged.useful_unknowns_ratio"] = (
        final / solved if solved else 0.0)

    fits = by_name.get("qubitfit.fit_exponential", [])
    out["qubitfit.fit_exponential.useful_ratio"] = (
        sum(not spans[i].failed for i in fits) / len(fits) if fits else 0.0)
    for name in ("dataio.save_device_table", "dataio.load_device_table",
                 "dataio.group_for_fit"):
        out[f"{name}.rows"] = sum(
            spans[i].attrs.get("rows", 0) for i in by_name.get(name, [])) / per_op
    out["trace.spans"] = len(spans) / per_op
    return out
