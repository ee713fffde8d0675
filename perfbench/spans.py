"""Tracing for the linsys benchmark, done entirely from outside the program.

``install`` wraps each layer's public entry points at every module
attribute that holds them, binds a traced ``KernelSet`` wherever ``ACTIVE``
is imported, and wraps ``LinearSystem.__init__``. It returns a function
that puts every original back. Spans (name, start, end, parent, op id)
are kept in memory; ``write_jsonl`` dumps them when the run ends.

A span's self time is its duration minus the time its direct child spans
cover; with one thread the children never overlap. Every ``*_ms`` layer
metric is a sum of self times over one pass, so the layer times add up
to the traced part of the pass without counting any interval twice.
"""

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter

# span name -> layer metric that receives its self time
SPAN_METRIC = {
    "kernels.tau_search": "kernels.tau_ms",
    "kernels.gamma_search": "kernels.gamma_ms",
    "kernels.nu2_search": "kernels.nu2_ms",
    "kernels.pairwise_intersections": "kernels.pairwise_ms",
    "solvers.transversal_number": "solvers.tau_self_ms",
    "solvers.domination_number": "solvers.gamma_self_ms",
    "solvers.two_packing_number": "solvers.nu2_self_ms",
    "solvers.verify_transversal": "solvers.verify_ms",
    "solvers.verify_domination": "solvers.verify_ms",
    "solvers.verify_two_packing": "solvers.verify_ms",
    "core.LinearSystem": "core.construct_ms",
    "core.pendant_reduction": "core.pendant_reduction_ms",
    "core.are_isomorphic": "core.iso_ms",
    "core.embeds_in": "core.embed_ms",
    "formats.loads_json": "formats.load_ms",
    "formats.loads_text": "formats.load_ms",
    "formats.system_from_dict": "formats.load_ms",
    "formats.dumps_json": "formats.dump_ms",
    "formats.dumps_text": "formats.dump_ms",
    "formats.dumps_plane_json": "formats.dump_ms",
    "formats.system_to_dict": "formats.dump_ms",
    "formats.plane_to_dict": "formats.dump_ms",
    "field.make_field": "field.make_field_ms",
    "geometry.projective_plane": "geometry.plane_ms",
    "geometry.verify_plane_axioms": "geometry.axioms_ms",
    "geometry.hyperoval": "geometry.hyperoval_ms",
    "constructions.derive": "constructions.derive_self_ms",
    "constructions.check_plane_reconstruction": "constructions.reconstruction_self_ms",
    "constructions.verification_battery": "constructions.battery_self_ms",
    "cli.main": "cli.self_ms",
}

KERNEL_NAMES = ("tau_search", "gamma_search", "nu2_search", "pairwise_intersections")
COUNTED = {"core.delete_point": "core.delete_point_calls"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def search_result(self, kind):
        counts = self.counts

        def record(out):
            if kind == "nu2":
                counts["nodes.nu2"] += int(out[2])
                return
            counts[f"nodes.{kind}"] += int(out[3])
            counts["searches"] += 1
            counts["improved"] += int(out[1])

        return record

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _linsys_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "linsys" or name.startswith("linsys."))
    ]


def install(tracer):
    """Wrap linsys for tracing; returns a function that undoes it."""
    layers = {name.split(".")[0] for name in list(SPAN_METRIC) + list(COUNTED)}
    for layer in layers:
        importlib.import_module(f"linsys.{layer}")
    core, kernels = sys.modules["linsys.core"], sys.modules["linsys.kernels"]
    modules = _linsys_modules()
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(original, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, attr, new)

    for span_name in list(SPAN_METRIC) + list(COUNTED):
        layer, func = span_name.split(".")
        if layer == "kernels" or func == "LinearSystem":
            continue
        original = getattr(sys.modules[f"linsys.{layer}"], func)
        if span_name in COUNTED:
            new = tracer.counted(COUNTED[span_name], original)
        else:
            new = tracer.wrap(span_name, original)
        patch_everywhere(original, new)

    cls = core.LinearSystem
    patch(cls, "__init__", tracer.wrap("core.LinearSystem", cls.__init__))

    active = kernels.ACTIVE
    traced = dataclasses.replace(
        active,
        **{
            k: tracer.wrap(
                f"kernels.{k}",
                getattr(active, k),
                None if k == "pairwise_intersections"
                else tracer.search_result(k.split("_")[0]),
            )
            for k in KERNEL_NAMES
        },
    )
    for mod in modules:
        if vars(mod).get("ACTIVE") is active:
            patch(mod, "ACTIVE", traced)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def self_times(spans, start=0):
    """Self time in ns of each span from index `start` on: duration minus
    its children's. Parents are indices into the whole list."""
    child = [0] * (len(spans) - start)
    for rec in spans[start:]:
        if rec[3] >= start:
            child[rec[3] - start] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans[start:], child)]


def pass_metrics(spans, start, counts, pass_ns):
    """Layer metrics of one traced pass: its spans are spans[start:]."""
    out = {m: 0.0 for m in SPAN_METRIC.values()}
    for rec, own in zip(spans[start:], self_times(spans, start)):
        out[SPAN_METRIC[rec[0]]] += own / 1e6
    out["core.systems_built"] = sum(
        1 for rec in spans[start:] if rec[0] == "core.LinearSystem"
    )
    out["core.delete_point_calls"] = counts["core.delete_point_calls"]
    nodes = 0
    for kind in ("tau", "gamma", "nu2"):
        out[f"kernels.{kind}_nodes"] = counts[f"nodes.{kind}"]
        nodes += counts[f"nodes.{kind}"]
    search_ms = out["kernels.tau_ms"] + out["kernels.gamma_ms"] + out["kernels.nu2_ms"]
    out["kernels.nodes_per_s"] = nodes / (search_ms / 1e3) if search_ms else 0.0
    out["kernels.seed_improved_ratio"] = (
        counts["improved"] / counts["searches"] if counts["searches"] else 0.0
    )
    kernel_ms = search_ms + out["kernels.pairwise_ms"]
    out["kernels.pass_share"] = kernel_ms / (pass_ns / 1e6)
    return out
