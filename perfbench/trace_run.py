"""Run one srx CLI command in process with a span around every layer call.

    python3 perfbench/trace_run.py SPANS_FILE [--count-poly-evals] -- <srx arguments>

Every public function defined in the srx pipeline modules is wrapped under
each name a module binds it to (srx.cli.verify_certificate,
srx.certify.natural_homotopy, srx.homotopy.integrate_trajectory, ...).  A
wrapper records a span (name, start, end, parent) and, for a few functions,
work counts computed from its arguments or result.  With --count-poly-evals,
calls to _StackedPolys.eval, the frame's polynomial evaluation, and the
points they evaluate are counted too (not spanned); that adds a Python call
per evaluation, so the benchmark takes no timings from such an invocation.
Spans stay in memory and are written to SPANS_FILE as JSON when the command
returns.

The summary helpers at the bottom turn a spans file into per-layer metrics;
they import nothing from srx.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "scenario", "flows", "extremals", "homotopy", "certify", "io")
ROOT_SPAN = "cli.main"


def _span_columns(a: dict) -> int:
    """Columns fed to the per-node span SVDs by one nsre_check call."""
    nodes = a["traj"].grid.shape[0]
    stride = a["sample_stride"]
    if a["tau_range"] == "0..T":
        per_node = [len(range(0, nodes, stride))] * nodes
    else:
        per_node = [len(range(0, m + 1, stride)) for m in range(nodes)]
    return (a["frame"].k - 1) * sum(per_node)


# span name -> counts from (bound arguments, result)
COUNTS = {
    "flows.integrate_trajectory": lambda a, r: {
        "flows.integrate_calls": 1,
        "flows.rk4_cell_steps": a["u"].n_cells * a["substeps"]},
    "flows.tangent_flow": lambda a, r: {
        "flows.rk4_cell_steps": a["u"].n_cells * a["substeps"]},
    "homotopy.natural_homotopy": lambda a, r: {
        "homotopy.members": len(r.trajectories)},
    "extremals.nsre_check": lambda a, r: {
        "extremals.span_columns": _span_columns(a)},
    "certify.verify_certificate": lambda a, r: {
        "certify.trials": r.n_trials,
        "certify.sampler_rejections": r.total_rejected,
        "certify.violations": r.violation_count},
    "io.write_csv": lambda a, r: {"io.bytes_written": a["path"].stat().st_size},
    "io.write_json": lambda a, r: {"io.bytes_written": a["path"].stat().st_size},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, result))
            return result

        return traced

    def count_poly_evals(self, stacked_polys_cls) -> None:
        original = stacked_polys_cls.eval
        counts = self.counts

        @functools.wraps(original)
        def counted(poly_self, points):
            counts["core.poly_evals"] += 1
            shape = getattr(points, "shape", None)
            counts["core.poly_points"] += (
                math.prod(shape[:-1]) if shape is not None else 1)
            return original(poly_self, points)

        stacked_polys_cls.eval = counted

    def install(self, count_poly_evals: bool) -> None:
        modules = {layer: importlib.import_module(f"srx.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for module in [*modules.values(), importlib.import_module("srx")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        if count_poly_evals:
            self.count_poly_evals(
                importlib.import_module("srx.core")._StackedPolys)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: trace_run.py SPANS_FILE [--count-poly-evals]"
                         " -- <srx arguments>")
    sep = argv.index("--")
    (spans_file, *options), cli_args = argv[:sep], argv[sep + 1:]
    if options not in ([], ["--count-poly-evals"]):
        raise SystemExit(f"trace_run.py: unknown options {options}")
    tracer = Tracer()
    tracer.install(count_poly_evals=bool(options))
    cli = importlib.import_module("srx.cli")
    code = cli.main(cli_args)
    Path(spans_file).write_text(json.dumps(
        {"spans": tracer.spans, "counts": dict(tracer.counts)}))
    return code


# -- summary of a spans file ------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer timings and counts of one traced invocation."""
    spans = trace["spans"]
    own = self_times(spans)
    inclusive: Counter = Counter()
    exclusive: Counter = Counter()
    for (name, start, end, _), self_s in zip(spans, own):
        inclusive[name] += end - start
        exclusive[name] += self_s
        exclusive[name.split(".")[0] + ".layer"] += self_s
    counts = Counter(trace["counts"])
    metrics = {
        "trace.main_s": inclusive[ROOT_SPAN],
        "scenario.load_s": inclusive["scenario.load_scenario"],
        "flows.integrate_s": inclusive["flows.integrate_trajectory"],
        "flows.tangent_flow_s": inclusive["flows.tangent_flow"],
        "homotopy.natural_homotopy_s": inclusive["homotopy.natural_homotopy"],
        "homotopy.variation_s": inclusive["homotopy.variation_fields"],
        "extremals.nsre_s": inclusive["extremals.nsre_check"],
        "extremals.hamiltonian_s": inclusive["extremals.hamiltonian_extremal"],
        "certify.verify_s": inclusive["certify.verify_certificate"],
        "certify.verify_self_s": exclusive["certify.verify_certificate"],
        "certify.constants_s": inclusive["certify.estimate_constants"],
        "certify.certificate_s": inclusive["certify.compute_eta"]
        + inclusive["certify.compute_epsilon"],
        "io.write_s": inclusive["io.write_csv"] + inclusive["io.write_json"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = exclusive[f"{layer}.layer"]
    for name in ("flows.integrate_calls", "flows.rk4_cell_steps",
                 "homotopy.members", "core.poly_evals", "core.poly_points",
                 "extremals.span_columns", "certify.trials",
                 "certify.sampler_rejections", "certify.violations",
                 "io.bytes_written"):
        metrics[name] = counts[name]
    metrics["core.points_per_eval"] = (
        counts["core.poly_points"] / counts["core.poly_evals"]
        if counts["core.poly_evals"] else 0.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
