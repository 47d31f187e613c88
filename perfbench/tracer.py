"""Spans around the calls into each hscmae module, recorded from outside it.

``install`` rebinds every public function the benchmark times, at every
module that holds a binding to it (``hscmae.trainer`` and ``hscmae.cli``
import names directly, so wrapping only the defining module would miss those
calls). Each call becomes a span ``(name, start, end, parent)`` kept in
memory; self times fall out of the parent links. ``diffcore`` primitives get a
forward span each, and ``_node`` is wrapped so that every tape node's backward
closure records its own span inside ``diffcore.backward``.

The same rebinding serves the correctness probes in ``workloads``, which keep
references to a function's inputs and outputs without timing anything.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# Tape ops with their own forward/backward metrics; the rest pool into "other".
DIFFCORE_OPS = ("matmul", "add", "layer_norm", "batch_norm", "tanh", "dropout",
                "row_log_softmax", "l2_normalize_rows", "mse")

# module -> public functions whose summed inclusive time is "<module>.<fn>_s"
LAYER_FUNCTIONS = {
    "data_io": ("generate_synthetic", "load_features", "batches"),
    "masking": ("make_plan", "apply_value_mask", "make_grad_gate"),
    "model": ("encode", "fuse", "project", "decode", "embed_arrays", "save_entries", "load_entries"),
    "losses": ("dcca_loss", "soft_infonce", "rec_loss", "distill_loss", "total_loss"),
    "teacher": ("mine_affinities", "ema_update"),
    "optim": ("clip_global_norm", "adamw_step"),
    "trainer": ("train_step", "load_checkpoint", "save_checkpoint"),
    "cca_linear": ("fit", "transform"),
    "evaluate": ("retrieval_embeddings", "cross_modal_map"),
    "cli": ("main",),
}

# diffcore functions that are not tape primitives
_DIFFCORE_SKIP = {"backward", "grad_check"}


def metric_units():
    """Ordered (name, unit, better) of every per-layer metric."""
    out = []
    for op in DIFFCORE_OPS + ("other",):
        out.append((f"diffcore.{op}.fwd_s", "s", "lower"))
        out.append((f"diffcore.{op}.bwd_s", "s", "lower"))
    out += [("diffcore.dcca.bwd_s", "s", "lower"),
            ("diffcore.backward_s", "s", "lower"),
            ("diffcore.backward_self_s", "s", "lower"),
            ("diffcore.nodes", "count", "lower")]
    for module, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            out.append((f"{module}.{fn}_s", "s", "lower"))
        if module == "model":
            out.append(("model.param_count", "count", "lower"))
        elif module == "optim":
            out.append(("optim.clip_events", "count", "lower"))
        elif module == "trainer":
            out.append(("trainer.train_step_self_s", "s", "lower"))
            out.append(("trainer.steps", "count", "higher"))
    return out


def _hscmae_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hscmae" or name.startswith("hscmae."))]


def rebind(original, replacement):
    """Point every hscmae module binding of ``original`` at ``replacement``.

    Returns the undo list for ``restore``."""
    undo = []
    for module in _hscmae_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    if not undo:
        raise LookupError(f"no hscmae binding of {getattr(original, '__name__', original)!r}")
    return undo


def restore(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def probe(module, name, on_call):
    """Rebind ``module.name`` so that ``on_call(args, kwargs, result)`` sees
    each call's inputs and output. Returns the undo list."""
    inner = getattr(module, name)

    def probed(*args, **kwargs):
        result = inner(*args, **kwargs)
        on_call(args, kwargs, result)
        return result

    return rebind(inner, probed)


class Tracer:
    """In-memory span recorder; ``paused`` calls pass straight through."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.paused = False
        self.nodes = 0
        self.clip_events = 0
        self.param_count = 0

    def wrap(self, fn, name):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every timed function at all of its bindings; returns the undo list."""
        import hscmae.cli  # noqa: F401  (imports every other hscmae module)
        from hscmae import diffcore, optim, trainer

        undo = []
        for module_name, fns in LAYER_FUNCTIONS.items():
            module = sys.modules[f"hscmae.{module_name}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                undo += rebind(original, self.wrap(original, f"{module_name}.{fn_name}"))

        # counts read at the layer boundary from the call's inputs and output
        clip = optim.clip_global_norm

        def counted_clip(params, max_norm):
            norm = clip(params, max_norm)
            if not self.paused and norm > max_norm:
                self.clip_events += 1
            return norm

        undo += rebind(clip, counted_clip)
        save = trainer.save_checkpoint

        def counted_save(path, result):
            if not self.paused:
                self.param_count = sum(p.value.size for p in result.params.parameters())
            return save(path, result)

        undo += rebind(save, counted_save)

        for fn_name, fn in list(vars(diffcore).items()):
            if (callable(fn) and getattr(fn, "__module__", None) == diffcore.__name__
                    and not isinstance(fn, type) and not fn_name.startswith("_")
                    and fn_name not in _DIFFCORE_SKIP):
                undo += rebind(fn, self.wrap(fn, f"diffcore.{fn_name}"))
        undo += rebind(diffcore.backward, self.wrap(diffcore.backward, "diffcore.backward"))

        make_node = diffcore._node

        def traced_node(op, value, parents, backward):
            if self.paused or backward is None:
                return make_node(op, value, parents, backward)
            self.nodes += 1
            return make_node(op, value, parents, self.wrap(backward, f"diffcore.{op}.bwd"))

        undo += rebind(make_node, traced_node)
        return undo

    # -- reduction -----------------------------------------------------------

    def durations(self):
        """(duration, self time) per span, as arrays."""
        starts = np.asarray(self.starts, dtype=np.float64)
        dur = np.asarray(self.ends, dtype=np.float64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def layer_metrics(self):
        """Per-layer metric dict (every name of ``metric_units``)."""
        dur, self_time = self.durations()
        total, own = {}, {}
        for name, d, s in zip(self.names, dur.tolist(), self_time.tolist()):
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + s
        steps = sum(1 for name in self.names if name == "trainer.train_step")

        out = {name: 0.0 for name, _, _ in metric_units()}
        for name, value in total.items():
            parts = name.split(".")
            if parts[0] == "diffcore":
                if name == "diffcore.backward":
                    out["diffcore.backward_s"] += value
                    out["diffcore.backward_self_s"] += own[name]
                    continue
                op = parts[1]
                if parts[-1] == "bwd":
                    key = "dcca" if op == "dcca" else (op if op in DIFFCORE_OPS else "other")
                    out[f"diffcore.{key}.bwd_s"] += value
                else:
                    key = op if op in DIFFCORE_OPS else "other"
                    out[f"diffcore.{key}.fwd_s"] += value
            else:
                out[f"{name}_s"] += value
        out["trainer.train_step_self_s"] = own.get("trainer.train_step", 0.0)
        out["diffcore.nodes"] = self.nodes
        out["optim.clip_events"] = self.clip_events
        out["model.param_count"] = self.param_count
        out["trainer.steps"] = steps
        return out

    def write(self, path):
        """Spans as columns: a name table plus per-span name index, start,
        end (perf_counter seconds) and parent span index (-1 for roots)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table,
                       "name": [index[n] for n in self.names],
                       "start": self.starts, "end": self.ends,
                       "parent": self.parents}, fh)


def merge_metrics(a, b):
    """Sum two per-layer metric dicts; the parameter count is a size, not a tally."""
    out = dict(a)
    for name, value in b.items():
        out[name] = max(out[name], value) if name == "model.param_count" else out[name] + value
    return out
