"""Span recording around the program's module functions, installed from outside.

``install`` replaces every public function of the program's modules (and a
few named private hooks of the CLI) with a wrapper that records a span:
name, start, end, parent span and process id, plus a few counts taken
from the arguments or the result.  Spans stay in memory and are appended
to ``<trace_dir>/spans-<pid>.jsonl`` by ``flush``.  Forked pool workers
start an empty record and flush after each job they run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "dataset", "engine", "selection", "evaluation", "simulate")
TRACED_MODULES = LAYERS[1:]
# span ids are "<pid>:<n>"; one counter per process, so that the tracers a
# process makes one after another (one per scoring request) never reuse one
_SPAN_IDS = itertools.count(1)
# the CLI commands the workloads run; each has a metric of its own
COMMANDS = ("select-k", "mine", "stats", "simulate")


def _rows_of_result(args, kwargs, result):
    return {"rows": result.n}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": args[0].rows}


def _k_of_second_arg(args, kwargs, result):
    return {"k": int(args[1])}


# counts recorded with a span, by span name
ATTRS = {
    "dataset.load_dataset": _rows_of_result,
    "engine.assign_matrix": _rows_of_first_arg,
    "selection.instability": _k_of_second_arg,
}


class Tracer:
    """Spans of one process; a forked child starts over with its own."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._pid = os.getpid()

    def _owner_check(self) -> None:
        if os.getpid() != self._pid:
            self.spans, self._stack = [], []
            self._pid = os.getpid()

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a span measured by the caller, under the current parent."""
        self._owner_check()
        self.spans.append({
            "id": f"{self._pid}:{next(_SPAN_IDS)}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name, "start": start, "end": end, "pid": self._pid,
            **attrs,
        })

    def wrap(self, name: str, fn, flush_in_child: bool = False):
        attrs_of = ATTRS.get(name)
        owner = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._owner_check()
            span_id = f"{self._pid}:{next(_SPAN_IDS)}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "pid": self._pid}
            if attrs_of is not None:
                span.update(attrs_of(args, kwargs, result))
            self.spans.append(span)
            if flush_in_child and os.getpid() != owner:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def install(tracer: Tracer):
    """Wrap the program's functions; returns a callable that undoes it."""
    package = importlib.import_module("permpatterns")
    modules = {name: importlib.import_module(f"permpatterns.{name}")
               for name in LAYERS}
    replaced: dict[int, object] = {}    # id(original) -> wrapper
    undo = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for layer in TRACED_MODULES:
        mod = modules[layer]
        for attr, obj in vars(mod).copy().items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            replaced[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)

    cli = modules["cli"]
    replaced[id(cli._write_manifest)] = tracer.wrap(
        "cli.manifest", cli._write_manifest)
    replaced[id(cli._instability_job)] = tracer.wrap(
        "cli.instability_job", cli._instability_job, flush_in_child=True)
    for command in cli.main.commands.values():
        patch(command, "callback",
              tracer.wrap(f"cli.{command.name}", command.callback))

    dataset = modules["dataset"]
    patch(dataset.Dataset, "to_matrix",
          tracer.wrap("dataset.to_matrix", dataset.Dataset.to_matrix))

    # rebind every module-level reference, including `from x import f` copies
    for mod in [package, *modules.values()]:
        for attr, obj in vars(mod).copy().items():
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                patch(mod, attr, wrapper)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def load_spans(trace_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part covered by its direct children.

    Children recorded in another process (pool workers) run concurrently
    with their caller and are not subtracted: the caller's self time then
    includes the time it waited for them.
    """
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans}


def layer_metrics(spans: list[dict], rounds: int,
                  k_range: range) -> dict[str, tuple[float, str]]:
    """Per-round per-layer metrics: name -> (value, unit).

    Every metric is reported; one whose spans did not occur is 0.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        rows[span["name"]] += span.get("rows", 0)
    out: dict[str, tuple[float, str]] = {}

    def seconds(metric, span_name):
        out[metric] = (total[span_name] / rounds, "s")

    def count(metric, value):
        out[metric] = (value / rounds, "count")

    seconds("cli.import_s", "cli.import")
    seconds("cli.manifest.s", "cli.manifest")
    for command in COMMANDS:
        seconds(f"cli.{command}.s", f"cli.{command}")
    for name in ("load_dataset", "to_matrix", "summary_stats",
                 "filter_reputation"):
        seconds(f"dataset.{name}.s", f"dataset.{name}")
    count("dataset.rows_parsed", rows["dataset.load_dataset"])
    for name in ("fit", "em_step", "assign_matrix", "assign_patterns"):
        seconds(f"engine.{name}.s", f"engine.{name}")
    count("engine.fit.calls", calls["engine.fit"])
    count("engine.em_step.count", calls["engine.em_step"])
    count("engine.assign_matrix.rows", rows["engine.assign_matrix"])
    count("engine.assign_patterns.calls", calls["engine.assign_patterns"])
    for name in ("instability", "split_dataset", "match_patterns"):
        seconds(f"selection.{name}.s", f"selection.{name}")
    per_k: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] == "selection.instability":
            per_k[span["k"]] += span["end"] - span["start"]
    for k in k_range:
        out[f"selection.instability.k{k}.s"] = (per_k[k] / rounds, "s")
    # slowest K job / mean K job; 0 when no K job ran
    out["selection.pool_imbalance"] = (
        max(per_k.values()) / statistics.fmean(per_k.values())
        if any(per_k.values()) else 0.0, "ratio")
    for name in ("error_rates", "pcp_matrix", "category_divergence",
                 "pattern_frequencies"):
        seconds(f"evaluation.{name}.s", f"evaluation.{name}")
    for name in ("marginal_probs", "simulate_independent", "pcp_histogram"):
        seconds(f"simulate.{name}.s", f"simulate.{name}")

    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[span["name"].split(".", 1)[0]] += own[span["id"]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / rounds, "s")
    return out
