"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each fblf_ilc module, and the
callables of the models the built-in factories return, with timing
wrappers.  Spans are aggregated by name (calls, total time, self time =
total minus the time of wrapped calls made inside it) rather than kept
one by one: a pinned run makes millions of one-element model calls, and
a span list that long would dominate memory and time.

The bookkeeping a wrapper does outside its own timed interval would
otherwise land in the caller's self time; ``calibrate`` measures it per
call so that it can be taken out of the caller's self time.

A function that a later version of the program no longer has or no
longer calls simply reports zero calls.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import fblf_ilc
from fblf_ilc import (analysis, barrier, cli, controller, engine, learner,
                      plant, svgplot)

_MODULES = (fblf_ilc, cli, engine, learner, plant, controller, barrier,
            analysis, svgplot)

# (span name, module, attribute) of the wrapped module-level functions
FUNCTIONS = (
    ("cli.main", cli, "main"),
    ("cli.parse_config", cli, "parse_config"),
    ("engine.run", engine, "run"),
    ("engine.run_iteration", engine, "run_iteration"),
    ("engine.monitor_L", engine, "monitor_L"),
    ("engine.check_delta_L", engine, "check_delta_L"),
    ("engine.write_trace_csv", engine, "write_trace_csv"),
    ("engine.write_summary_csv", engine, "write_summary_csv"),
    ("plant.theta_true", plant, "theta_true"),
    ("barrier.blf_eval", barrier, "blf_eval"),
    ("barrier.blf_d1", barrier, "blf_d1"),
    ("barrier.blf_d2", barrier, "blf_d2"),
    ("barrier.verify_order", barrier, "verify_order"),
    ("barrier.ibp_probe", barrier, "ibp_probe"),
    ("analysis.lemma1_check", analysis, "lemma1_check"),
    ("analysis.lemma2_check", analysis, "lemma2_check"),
    ("analysis.blf_report", analysis, "blf_report"),
    ("analysis.convergence_metrics", analysis, "convergence_metrics"),
    ("svgplot.line_plot", svgplot, "line_plot"),
)
# model callables, by dataclass field: (field of the model or of one of
# its sub-records, span name)
MODEL_FIELDS = {
    None: ("f", "g", "x_d"),
    "uncertainty": ("w", "rho"),
    "certificate": ("V", "LgV"),
}
PLANT_CALLABLES = ("V", "LgV", "f", "g", "w", "rho", "x_d", "theta_true")
# per-layer metrics in report order, with their units
LAYER_UNITS = {
    "engine.run_iteration.self_s": "s",
    "engine.us_per_step": "us",
    "learner.update_node.calls": "count",
    "learner.update_node.us_per_call": "us",
    "learner.sat_active_frac": "frac",
    **{f"plant.{n}.calls": "count" for n in PLANT_CALLABLES},
    "plant.us_per_step": "us",
    "engine.monitor_L.us_per_node": "us",
    "engine.check_delta_L.s": "s",
    "engine.run.fixed_s": "s",
    "engine.write_trace_csv.us_per_row": "us",
    "engine.write_trace_csv.bytes": "count",
    "engine.write_summary_csv.s": "s",
    "cli.parse_config.s": "s",
    "svgplot.line_plot.s": "s",
    "engine.node_steps": "count",
    "engine.breach_iters": "count",
    "engine.nonfinite": "count",
    "engine.delta_L_fails": "count",
    "barrier.blf_eval.ns_per_sample": "ns",
    "barrier.blf_d1.ns_per_sample": "ns",
    "barrier.blf_d2.ns_per_sample": "ns",
    "barrier.verify_order.s": "s",
    "barrier.ibp_probe.s": "s",
    "barrier.calls": "count",
    "barrier.computed.ops_per_sample": "ops",
    "barrier.computed.bytes_per_sample": "B",
    "barrier.computed.ops_per_byte": "ops/B",
    "analysis.lemma.us_per_element": "us",
    "analysis.blf_report.s": "s",
    "analysis.convergence_metrics.s": "s",
    "tracing_overhead": "frac",
}

# Computed traffic of the vector barrier kernels: elementwise array
# operations per sample of (value, d1, d2) as the closed forms are
# written, counting operations on scalars only once per call (so
# 2b/(b-V)^3 is a subtraction, a power and a division), plus the two
# domain comparisons; bytes are the compulsory 8-byte read of V and
# 8-byte write of the result.  Temporaries and cache
# misses are not counted, so these are computed, not measured.
KERNEL_OPS = {"LI": (3, 2, 3), "LII": (4, 3, 3), "FI": (2, 3, 3),
              "FII": (3, 3, 3), "FIII": (4, 4, 3), "FIV": (4, 4, 3),
              "FV": (3, 3, 3)}
DOMAIN_OPS = 2
BYTES_PER_SAMPLE = 16

# barrier kernels whose scalar calls are traced apart (as <name>.scalar),
# so that per-sample times describe the vector path only
VECTOR_KERNELS = ("barrier.blf_eval", "barrier.blf_d1", "barrier.blf_d2")


def _scalar_apart(name, args):
    return name if np.ndim(args[1]) else name + ".scalar"


class Tracer:
    """Aggregated spans; ``active`` gates recording around the timed calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)   # samples, rows, bytes, elements
        self.results = []                # RunResults returned by engine.run
        self.active = False
        self.overhead = 0.0              # s per traced call, see calibrate
        self._stack = []
        self._restore = []

    # -------------------------------------------------------- wrapping

    def wrap(self, name, fn, after=None, rename=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name if rename is None else rename(name, args)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self.calls[span] += 1
                self.total[span] += dt
                self.self_time[span] += dt - child
                if self._stack:
                    self._stack[-1] += dt + self.overhead
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def calibrate(self, calls: int = 20000, rounds: int = 5) -> float:
        """Median per-call cost a traced call adds to its caller's self
        time, over ``rounds`` loops of ``calls`` calls to a no-op."""
        def noop():
            return None

        traced = self.wrap("calibrate", noop)
        samples = []
        self.active = True
        try:
            for _ in range(rounds):
                t0 = time.perf_counter()
                for _ in range(calls):
                    noop()
                plain = time.perf_counter() - t0
                self._stack.append(0.0)
                t0 = time.perf_counter()
                for _ in range(calls):
                    traced()
                # the caller's self time: elapsed minus the traced calls
                caller = time.perf_counter() - t0 - self._stack.pop()
                samples.append((caller - plain) / calls)
        finally:
            self.active = False
            for table in (self.calls, self.total, self.self_time):
                table.pop("calibrate", None)
        self.overhead = max(statistics.median(samples), 0.0)
        return self.overhead

    def _hooks(self):
        def samples(name, q):
            def after(args, kwargs, out):
                if np.ndim(args[1]):
                    n = int(np.size(args[1]))
                    self.counts[name + ".samples"] += n
                    ops = KERNEL_OPS.get(getattr(args[0], "value", None))
                    if ops is not None:
                        self.counts["barrier.computed.samples"] += n
                        self.counts["barrier.computed.ops"] += n * (
                            ops[q] + DOMAIN_OPS)
            return after

        def run_done(args, kwargs, result):
            self.results.append(result)

        def csv_done(args, kwargs, out):
            result, path = args[0], args[1]
            self.counts["engine.write_trace_csv.rows"] += sum(
                len(tr.t) for tr in result.traces)
            self.counts["engine.write_trace_csv.bytes"] += os.path.getsize(path)

        def delta_done(args, kwargs, verdicts):
            self.counts["engine.delta_L_fails"] += sum(
                not v.passed for v in verdicts)

        def lemma_done(args, kwargs, out):
            self.counts["analysis.lemma.elements"] += len(args[0].r)

        return {
            "engine.run": run_done,
            "engine.write_trace_csv": csv_done,
            "engine.check_delta_L": delta_done,
            "barrier.blf_eval": samples("barrier.blf_eval", 0),
            "barrier.blf_d1": samples("barrier.blf_d1", 1),
            "barrier.blf_d2": samples("barrier.blf_d2", 2),
            "analysis.lemma1_check": lemma_done,
            "analysis.lemma2_check": lemma_done,
        }

    def instrument_model(self, model):
        """A copy of ``model`` whose callables are traced as plant.*."""
        changes = {}
        for sub, names in MODEL_FIELDS.items():
            holder = model if sub is None else getattr(model, sub, None)
            if holder is None or not dataclasses.is_dataclass(holder):
                continue
            fields = {f.name for f in dataclasses.fields(holder)}
            wrapped = {n: self.wrap(f"plant.{n}", getattr(holder, n))
                       for n in names if n in fields}
            if sub is None:
                changes.update(wrapped)
            elif wrapped:
                changes[sub] = dataclasses.replace(holder, **wrapped)
        return dataclasses.replace(model, **changes)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._hooks()
        for name, module, attr in FUNCTIONS:
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            traced = self.wrap(name, orig, hooks.get(name),
                               _scalar_apart if name in VECTOR_KERNELS else None)
            # rebind every module-level alias (e.g. names imported with
            # `from .barrier import ...`) so internal calls are seen too
            for mod in _MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, traced)
        update = getattr(getattr(learner, "ParamMemory", None), "update_node",
                         None)
        if update is not None:
            self._set(learner.ParamMemory, "update_node",
                      self.wrap("learner.update_node", update))
        factories = getattr(plant, "BUILTIN_MODELS", {})
        for key, factory in list(factories.items()):
            def traced_factory(*a, _factory=factory, **kw):
                return self.instrument_model(_factory(*a, **kw))
            self._restore.append((factories, key, factory))
            factories[key] = traced_factory

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --------------------------------------------------------- metrics

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics of ``passes`` identical traced passes."""
        per_pass = max(passes, 1)
        calls, total, self_t, counts = (self.calls, self.total,
                                        self.self_time, self.counts)

        def per_call(name):
            return total[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps = breach_iters = nonfinite = sat_active = sat_all = 0
        for result in self.results:
            theta_bar = result.config.theta_bar
            star = np.abs(result.memory.theta_star)
            sat_active += int(np.count_nonzero(star > theta_bar))
            sat_all += star.size
            for tr in result.traces:
                steps += int(np.count_nonzero(np.isfinite(tr.V)))
                breach_iters += int(tr.breach)
                sel = tr.valid
                nonfinite += sum(
                    int(np.count_nonzero(~np.isfinite(getattr(tr, f)[sel])))
                    for f in ("e", "u", "theta_hat"))
        plant_self = sum(self_t[f"plant.{n}"] for n in PLANT_CALLABLES)
        run_fixed = (total["engine.run"] - total["engine.run_iteration"]
                     - total["engine.monitor_L"])
        barrier_calls = sum(calls[n] for n in calls
                            if n.startswith("barrier."))
        lemma_s = total["analysis.lemma1_check"] + total["analysis.lemma2_check"]
        m = {
            "engine.run_iteration.self_s": self_t["engine.run_iteration"] / per_pass,
            "engine.us_per_step": ratio(self_t["engine.run_iteration"], steps, 1e6),
            "learner.update_node.calls": calls["learner.update_node"] // per_pass,
            "learner.update_node.us_per_call": 1e6 * per_call("learner.update_node"),
            "learner.sat_active_frac": ratio(sat_active, sat_all),
        }
        for n in PLANT_CALLABLES:
            m[f"plant.{n}.calls"] = calls[f"plant.{n}"] // per_pass
        m.update({
            "plant.us_per_step": ratio(plant_self, steps, 1e6),
            "engine.monitor_L.us_per_node": ratio(total["engine.monitor_L"],
                                                  steps, 1e6),
            "engine.check_delta_L.s": per_call("engine.check_delta_L"),
            "engine.run.fixed_s": ratio(run_fixed, calls["engine.run"]),
            "engine.write_trace_csv.us_per_row": ratio(
                total["engine.write_trace_csv"],
                counts["engine.write_trace_csv.rows"], 1e6),
            "engine.write_trace_csv.bytes":
                counts["engine.write_trace_csv.bytes"] // per_pass,
            "engine.write_summary_csv.s": per_call("engine.write_summary_csv"),
            "cli.parse_config.s": per_call("cli.parse_config"),
            "svgplot.line_plot.s": per_call("svgplot.line_plot"),
            "engine.node_steps": steps // per_pass,
            "engine.breach_iters": breach_iters // per_pass,
            "engine.nonfinite": nonfinite // per_pass,
            "engine.delta_L_fails": counts["engine.delta_L_fails"] // per_pass,
        })
        for n in ("blf_eval", "blf_d1", "blf_d2"):
            m[f"barrier.{n}.ns_per_sample"] = ratio(
                total[f"barrier.{n}"], counts[f"barrier.{n}.samples"], 1e9)
        m.update({
            "barrier.verify_order.s": per_call("barrier.verify_order"),
            "barrier.ibp_probe.s": per_call("barrier.ibp_probe"),
            "barrier.calls": barrier_calls // per_pass,
            "barrier.computed.ops_per_sample": ratio(
                counts["barrier.computed.ops"],
                counts["barrier.computed.samples"]),
            "barrier.computed.bytes_per_sample":
                BYTES_PER_SAMPLE if counts["barrier.computed.samples"] else 0,
            "barrier.computed.ops_per_byte": ratio(
                counts["barrier.computed.ops"],
                BYTES_PER_SAMPLE * counts["barrier.computed.samples"]),
            "analysis.lemma.us_per_element": ratio(
                lemma_s, counts["analysis.lemma.elements"], 1e6),
            "analysis.blf_report.s": per_call("analysis.blf_report"),
            "analysis.convergence_metrics.s":
                per_call("analysis.convergence_metrics"),
        })
        return m

    def span_table(self) -> list[str]:
        """One line per span name: calls, total and self time."""
        rows = sorted((n for n in self.calls if self.calls[n]),
                      key=lambda n: -self.total[n])
        return [f"  {n:<32} calls={self.calls[n]:<9d} "
                f"total_s={self.total[n]:.6f} self_s={self.self_time[n]:.6f}"
                for n in rows]
