"""Traced in-process replay of a workload's CLI commands.

Run as a child of ``run.py`` (so that it gets the pinned BLAS environment)::

    python3 bench/trace_replay.py PLAN.json SECONDS RESULT.json SPANS.json

It calls ``roweis.cli.main`` with each command's argv, alternating a replay
with the wrappers off and one with them on until SECONDS have passed. The
wrappers replace every public function of the roweis modules (``main`` only,
for ``cli``) wherever a module looks the function up, so
``roweis.rda.generalized_eig`` and ``roweis.kernel_rda.generalized_eig`` both
record a ``linalg.generalized_eig`` span. Nothing in the package is edited.

A span is (name, start, end, parent span, command id, replay, attrs); attrs
hold counts read off argument and result shapes. Spans stay in memory and
are written to SPANS.json at the end. ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time

import checks

MODULES = (
    "cli", "datasets", "dual", "evaluate", "experiments", "kernel_rda",
    "kernels", "linalg", "persist", "rda", "scatter",
)

# Functions reported as per-layer metrics: <name>.calls and <name>.self_s.
LAYER_FUNCTIONS = (
    "cli.main",
    "datasets.load_csv", "datasets.train_test_split", "datasets.gen_regression_benchmark",
    "kernels.label_gram", "kernels.gram", "kernels.squared_distances", "kernels.double_center",
    "kernels.center_test_kernel", "kernels.median_heuristic_gamma",
    "scatter.within_scatter",
    "rda.fit", "rda.blend_label_kernel", "rda.robustify", "rda.project", "rda.reconstruct",
    "linalg.generalized_eig", "linalg.symmetric_eig", "linalg.psd_factor", "linalg.require_symmetric",
    "dual.fit_dual", "dual.project_dual", "dual.reconstruct_dual",
    "kernel_rda.fit_direct", "kernel_rda.kernel_objective_matrix", "kernel_rda.kernel_within_scatter",
    "kernel_rda.fit_kernel_pca", "kernel_rda.fit_kernel_spca", "kernel_rda.project",
    "evaluate.knn_classify", "evaluate.linear_regression_rmse",
    "experiments.regression_benchmark_table", "experiments.embedding_panels",
    "persist.save_model", "persist.load_model",
)

# (name, unit, better) of the metrics computed from span attributes.
DERIVED = (
    ("datasets.load_csv.cells", "count", "lower"),
    ("kernels.label_gram.bytes", "B", "lower"),
    ("kernels.gram.bytes", "B", "lower"),
    ("rda.blend_label_kernel.bytes", "B", "lower"),
    ("linalg.generalized_eig.order_max", "count", "lower"),
    ("linalg.generalized_eig.flops", "count", "lower"),
    ("linalg.generalized_eig.shifted", "count", "lower"),
    ("linalg.generalized_eig.used_fraction", "ratio", "higher"),
    ("persist.model_bytes", "B", "lower"),
    ("trace.replay_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _cells(args, kwargs, result):
    x, y, _ = result
    return {"cells": int(x.size + (0 if y is None else y.size))}


def _nbytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _eig(args, kwargs, result):
    return {"m": int(result.values.size), "shifted": int(result.shift > 0.0)}


def _kept(args, kwargs, result):
    return {"p": int(result.n_components)}


def _saved(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


ATTRS = {
    "datasets.load_csv": _cells,
    "kernels.label_gram": _nbytes,
    "kernels.gram": _nbytes,
    "rda.blend_label_kernel": _nbytes,
    "linalg.generalized_eig": _eig,
    "rda.fit": _kept,
    "kernel_rda.fit_direct": _kept,
    "persist.save_model": _saved,
}


class Tracer:
    """Wraps the roweis functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cid = None
        self.replay = None
        self.patches = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            done, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and done else None
                self.spans[sid] = (name, start, end, parent, self.cid, self.replay, attrs)

        return traced

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and (short != "cli" or attr == "main")):
                    wrapped[value] = self._wrap(f"{short}.{attr}", value)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def remove(self) -> None:
        for module, attr, value in reversed(self.patches):
            setattr(module, attr, value)
        self.patches = []


def replay(package, commands: list, tracer: Tracer) -> tuple[float, list]:
    """Run every command once through cli.main; wall time and per-command status."""
    for command in commands:
        for path in command["outputs"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    status = []
    start = time.perf_counter()
    for command in commands:
        tracer.cid = command["cid"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = package.cli.main(list(command["argv"]))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback from the program is a failed command
                print(f"{type(exc).__name__}: {exc}")
                rc = 1
        status.append({"cid": command["cid"], "rc": rc, "log": sink.getvalue()[-2000:]})
    wall = time.perf_counter() - start
    for command, entry in zip(commands, status):
        entry["hashes"] = {path: checks.sha256(path) for path in command["outputs"]}
    return wall, status


def layer_metrics(spans: list, replays: list) -> dict:
    """Per-layer metrics: median over traced replays of self time, plus counts."""
    reps = sorted({s[5] for s in spans})
    by_replay = {r: {} for r in reps}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    for sid, (name, start, end, _, _, rep, _) in enumerate(spans):
        calls, self_s = by_replay[rep].get(name, (0, 0.0))
        by_replay[rep][name] = (calls + 1, self_s + (end - start) - child_time[sid])

    metrics = {}
    for name in LAYER_FUNCTIONS:
        per = [by_replay[r].get(name, (0, 0.0)) for r in reps] or [(0, 0.0)]
        metrics[f"{name}.calls"] = (per[0][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(p[1] for p in per), "s")

    first = reps[0] if reps else None
    attrs, kept = {}, []
    for name, _, _, parent, _, rep, a in spans:
        if rep != first or not a:
            continue
        attrs.setdefault(name, []).append(a)
        if name == "linalg.generalized_eig" and parent is not None and spans[parent][6]:
            kept.append((spans[parent][6].get("p", 0), a["m"]))
    eig = attrs.get("linalg.generalized_eig", [])
    used = sum(p for p, _ in kept)
    computed = sum(m for _, m in kept)
    untraced = [r["wall_s"] for r in replays if not r["traced"] and not r["warmup"]]
    traced_walls = [r["wall_s"] for r in replays if r["traced"]]
    values = {
        "datasets.load_csv.cells": sum(a["cells"] for a in attrs.get("datasets.load_csv", [])),
        "kernels.label_gram.bytes": sum(a["bytes"] for a in attrs.get("kernels.label_gram", [])),
        "kernels.gram.bytes": sum(a["bytes"] for a in attrs.get("kernels.gram", [])),
        "rda.blend_label_kernel.bytes": sum(a["bytes"] for a in attrs.get("rda.blend_label_kernel", [])),
        "linalg.generalized_eig.order_max": max((a["m"] for a in eig), default=0),
        "linalg.generalized_eig.flops": sum(a["m"] ** 3 for a in eig),
        "linalg.generalized_eig.shifted": sum(a["shifted"] for a in eig),
        "linalg.generalized_eig.used_fraction": used / computed if computed else 0.0,
        "persist.model_bytes": sum(a["bytes"] for a in attrs.get("persist.save_model", [])),
        "trace.replay_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced),
    }
    for name, unit, _ in DERIVED:
        metrics[name] = (values[name], unit)
    return metrics


def main(argv: list) -> int:
    plan_path, seconds, result_path, spans_path = argv[0], float(argv[1]), argv[2], argv[3]
    with open(plan_path) as handle:
        plan = json.load(handle)
    os.chdir(plan["workdir"])
    package = importlib.import_module("roweis")
    importlib.import_module("roweis.cli")  # the package does not import its CLI
    tracer = Tracer()
    wall, status = replay(package, plan["commands"], tracer)  # warm-up, untimed
    replays = [{"traced": False, "warmup": True, "wall_s": wall, "commands": status}]
    begin = time.perf_counter()
    while len(replays) < 5 or (time.perf_counter() - begin < seconds and len(replays) < 41):
        traced = len(replays) % 2 == 0
        tracer.replay = len(replays)
        if traced:
            tracer.install(package)
        try:
            wall, status = replay(package, plan["commands"], tracer)
        finally:
            tracer.remove()
        replays.append({"traced": traced, "warmup": False, "wall_s": wall, "commands": status})
    with open(spans_path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "cid", "replay", "attrs"],
                   "spans": tracer.spans}, handle)
    with open(result_path, "w") as handle:
        json.dump({"replays": replays, "metrics": layer_metrics(tracer.spans, replays)}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
