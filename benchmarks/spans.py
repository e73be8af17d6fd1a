"""Span tracing for the benchmark, done from outside the package.

`Tracer.install` rebinds the public functions and methods listed in TARGETS
to timing wrappers. A function is rebound in every `facevox` module namespace
and module-level dict that holds it, so calls through `from x import f` names
and dispatch tables are caught as well; a method is replaced on its class.
`src/` is not modified. Spans (name, start, end, parent, phase) are kept in
memory and written out when the benchmark ends; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# (module, function or Class.method); metric names are
# `<module without the facevox. prefix>.<function>.<stat>`
TARGETS = (
    ("facevox.geometry", "synth_face"),
    ("facevox.geometry", "render_depth"),
    ("facevox.geometry", "voxelize"),
    ("facevox.formats", "write_depth"),
    ("facevox.formats", "read_depth"),
    ("facevox.formats", "write_grid"),
    ("facevox.formats", "read_grid"),
    ("facevox.formats", "write_mesh"),
    ("facevox.formats", "write_manifest"),
    ("facevox.formats", "read_manifest"),
    ("facevox.autograd", "conv2d"),
    ("facevox.autograd", "transpose_conv2d"),
    ("facevox.autograd", "leaky_relu"),
    ("facevox.autograd", "sigmoid"),
    ("facevox.autograd", "softmax"),
    ("facevox.autograd", "global_max_pool"),
    ("facevox.autograd", "concat_channels"),
    ("facevox.autograd", "reshape"),
    ("facevox.autograd", "mul_spatial"),
    ("facevox.autograd", "mul_channel"),
    ("facevox.autograd", "tmean"),
    ("facevox.autograd", "tsum"),
    ("facevox.autograd", "absolute"),
    ("facevox.autograd", "custom_op"),
    ("facevox.autograd", "backward"),
    ("facevox.model", "generator_forward"),
    ("facevox.model", "critic_forward"),
    ("facevox.model", "spatial_attention"),
    ("facevox.model", "channel_attention"),
    ("facevox.model", "NetworkParams.snapshot"),
    ("facevox.model", "NetworkParams.restore"),
    ("facevox.objectives", "gradient_penalty_parts"),
    ("facevox.objectives", "weighted_bce"),
    ("facevox.objectives", "sparsity_loss"),
    ("facevox.training", "Adam.step"),
    ("facevox.training", "Adam.snapshot"),
    ("facevox.training", "Trainer.train_iteration"),
    ("facevox.training", "Trainer.save"),
    ("facevox.training", "Trainer.load"),
    ("facevox.training", "run_training"),
    ("facevox.checkpoint", "save_checkpoint"),
    ("facevox.checkpoint", "load_checkpoint"),
    ("facevox.evaluation", "iou"),
    ("facevox.evaluation", "ce_metric"),
    ("facevox.evaluation", "extract_surface"),
    ("facevox.evaluation", "per_point_distance_field"),
    ("facevox.evaluation", "evaluate_pairs"),
    ("facevox.evaluation", "write_report"),
    ("facevox.dataset", "synthesize_dataset"),
    ("facevox.dataset", "load_pairs"),
    ("facevox.cli", "cmd_synth"),
    ("facevox.cli", "cmd_train"),
    ("facevox.cli", "cmd_predict"),
    ("facevox.cli", "cmd_eval"),
)


def _count_voxelize(tracer, args, result):
    tracer.add("geometry.triangles", len(args[0].triangles))
    tracer.add("geometry.voxels_occupied", int(np.count_nonzero(result.values)))


def _count_written(tracer, args, result):
    tracer.add("formats.bytes_written", os.path.getsize(args[0]))


def _count_checkpoint(tracer, args, result):
    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


def _count_iou(tracer, args, result):
    threshold = args[2] if len(args) > 2 else 0.5
    pred = args[0].values if hasattr(args[0], "values") else args[0]
    tracer.add("evaluation.pred_occupied", int(np.count_nonzero(pred > threshold)))


def _gauge_mean_iou(tracer, args, result):
    tracer.gauge("evaluation.mean_iou", result.mean_iou)


# counters taken after the call returns, outside its span
COUNTERS = {
    "geometry.voxelize": _count_voxelize,
    "formats.write_depth": _count_written,
    "formats.write_grid": _count_written,
    "formats.write_mesh": _count_written,
    "formats.write_manifest": _count_written,
    "checkpoint.save_checkpoint": _count_checkpoint,
    "checkpoint.load_checkpoint": _count_checkpoint,
    "evaluation.iou": _count_iou,
    "evaluation.evaluate_pairs": _gauge_mean_iou,
}


class Tracer:
    """Collects spans and counters, tagged with the current phase."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, phase]
        self.counters = {}       # (phase, name) -> total
        self.gauges = {}         # (phase, name) -> [values]
        self.phase = "setup"
        self._stack = []
        self._saved = []         # (namespace, key, original) to undo install()

    # -- recording --

    def add(self, name, amount):
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def gauge(self, name, value):
        self.gauges.setdefault((self.phase, name), []).append(float(value))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.phase])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # -- rebinding --

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "facevox" or n.startswith("facevox.")]
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = module_name.removeprefix("facevox.") + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                if isinstance(original, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._saved.append((namespace, key, original))
                        namespace[key] = wrapped
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._saved.append((value, k, original))
                                value[k] = wrapped

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._saved.clear()

    # -- reading --

    def table(self, phase):
        """name -> {"ms", "self_ms", "calls"} totals over one phase."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, parent, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            row = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
            row["calls"] += 1
        return out

    def descendant_counts(self, root_name, phase):
        """For each span named root_name: {descendant name: count}."""
        roots = {}
        for i, (name, _, _, _, span_phase) in enumerate(self.spans):
            if name == root_name and span_phase == phase:
                roots[i] = {}
        for name, _, _, parent, _ in self.spans:
            ancestor = parent
            while ancestor >= 0:
                if ancestor in roots:
                    roots[ancestor][name] = roots[ancestor].get(name, 0) + 1
                    break
                ancestor = self.spans[ancestor][3]
        return list(roots.values())

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tphase\n")
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{phase}\n")
