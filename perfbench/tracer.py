"""Span tracer installed from outside the xprompt package.

The tracer replaces public functions of the xprompt modules with timing
wrappers, in every ``xprompt.*`` namespace that holds them (``harness`` and
``pruning`` import ``tune`` by name, ``prompt`` imports ``forward_batch``).
An autograd op's backward is timed by wrapping the ``_backprop`` closure of
the node the op returns. Each span records its name, start, end, parent and
thread; parents come from a per-thread stack, so spans of the worker threads
of ``--jobs 2`` nest correctly. Spans stay in memory and are written out once,
when the workload ends. ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import statistics
import sys
import threading
import time

OPS = ("matmul", "add", "bias_add", "transpose", "rowwise_scale", "blockwise_scale",
       "concat_rows", "embedding_lookup", "mean_pool", "gelu", "layer_norm",
       "attention_blocks", "softmax_cross_entropy")


def _forward_rows(args, kwargs, out):
    """Packed rows of one forward_batch call: prompt rows plus tokens, per sequence."""
    prompt_rows, sequences = args[1], args[2]
    m = 0 if prompt_rows is None else prompt_rows.rows
    return sum(m + len(seq) for seq in sequences)


def _pretrain_steps(args, kwargs, out):
    return len(out.pretrain_losses)


def _tune_work(args, kwargs, out):
    """(optimizer steps, training examples seen) of one tune call."""
    train, epochs = args[2], args[4]
    return [out.steps, epochs * len(train)]


def _score_key(args, kwargs, out):
    """Hash of the sweep's inputs: prompt values and both masks."""
    bank = args[0]
    h = hashlib.sha256()
    for arr in (bank.p, bank.token_mask, bank.piece_mask):
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _cells(args, kwargs, out):
    return len(out.cells)


def _saved_bytes(args, kwargs, out):
    """Bytes of the checkpoint just written: its manifest and matrix blobs."""
    dirpath = args[1]
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for name in os.listdir(dirpath)
               if name == "manifest.txt" or name.endswith(".bin"))


# (module, function, span name, info extractor, metric prefixes the target feeds)
FUNCTIONS = (
    ("autograd", "backward", "autograd.backward", None, ("autograd.backward.",)),
    ("backbone", "forward_batch", "backbone.forward_batch", _forward_rows,
     ("backbone.forward_batch.",)),
    ("backbone", "pretrain", "backbone.pretrain", _pretrain_steps, ("backbone.pretrain.",)),
    ("prompt", "tune", "prompt.tune", _tune_work,
     ("prompt.tune.", "prompt.step_ms", "prompt.examples_per_s", "pruning.retrain.")),
    ("prompt", "evaluate", "prompt.evaluate", None,
     ("prompt.evaluate.", "prompt.step_ms", "prompt.examples_per_s")),
    ("pruning", "score_tokens", "pruning.score_tokens", _score_key,
     ("pruning.score_tokens.",)),
    ("pruning", "select_tokens", "pruning.select", None, ("pruning.select.",)),
    ("pruning", "select_pieces", "pruning.select", None, ("pruning.select.",)),
    ("pruning", "hierarchical_prune", "pruning.hierarchical_prune", _cells,
     ("pruning.hierarchical_prune.", "pruning.cells", "pruning.retrain.")),
    ("checkpoint", "save_backbone", "checkpoint.save", _saved_bytes, ("checkpoint.save.",)),
    ("checkpoint", "save_prompt", "checkpoint.save", _saved_bytes, ("checkpoint.save.",)),
    ("checkpoint", "load_backbone", "checkpoint.load", None, ("checkpoint.load.",)),
    ("checkpoint", "load_prompt", "checkpoint.load", None, ("checkpoint.load.",)),
    ("tasks", "generate", "tasks.generate", None, ("tasks.generate.",)),
)

# (metric, unit); harness.cpu_s, harness.parallelism, harness.dev_acc and
# trace.overhead come from the benchmark's own measurements, the rest from spans.
METRICS = tuple(
    [(f"autograd.{op}.{part}", unit) for op in OPS
     for part, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))]
    + [("autograd.backward.self_s", "s"), ("autograd.backward.calls", "count"),
       ("backbone.pretrain.s", "s"), ("backbone.pretrain.steps", "count"),
       ("backbone.forward_batch.self_s", "s"), ("backbone.forward_batch.calls", "count"),
       ("backbone.forward_batch.rows", "count"),
       ("prompt.tune.s", "s"), ("prompt.tune.steps", "count"), ("prompt.step_ms", "ms"),
       ("prompt.examples_per_s", "1/s"), ("prompt.evaluate.s", "s"),
       ("prompt.evaluate.ms", "ms"), ("prompt.evaluate.calls", "count"),
       ("optim.step.s", "s"), ("optim.step.calls", "count"),
       ("pruning.score_tokens.s", "s"), ("pruning.score_tokens.ms", "ms"),
       ("pruning.score_tokens.calls", "count"), ("pruning.score_tokens.distinct", "count"),
       ("pruning.score_tokens.useful_ratio", "ratio"), ("pruning.select.s", "s"),
       ("pruning.hierarchical_prune.s", "s"), ("pruning.cells", "count"),
       ("pruning.retrain.s", "s"),
       ("checkpoint.save.s", "s"), ("checkpoint.save.bytes", "bytes"),
       ("checkpoint.load.s", "s"), ("tasks.generate.s", "s"),
       ("harness.cpu_s", "s"), ("harness.parallelism", "ratio"), ("harness.self_s", "s"),
       ("harness.dev_acc", "fraction"), ("trace.overhead", "ratio")])


class Tracer:
    """Collects spans from wrapped xprompt functions; one per workload process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, thread, info)
        self.missing: list[str] = []  # metric prefixes whose target no longer exists
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, info=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                               None if info is None else info(args, kwargs, out)))
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _time_backprop(self, op):
        name = f"autograd.{op}.bwd"

        def on_result(out):
            node = getattr(out, "node", out)  # softmax_cross_entropy returns a LossScalar
            if node._backprop is not None:
                node._backprop = self._timed(name, node._backprop)
        return on_result

    def _replace(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "xprompt" or modname.startswith("xprompt.")):
                continue
            for attr in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every target; targets that no longer exist are listed in missing."""
        mods = {name: sys.modules.get(f"xprompt.{name}") for name in
                ("autograd", "backbone", "prompt", "optim", "pruning", "checkpoint", "tasks")}
        for op in OPS:
            fn = getattr(mods["autograd"], op, None)
            if fn is None:
                self.missing.append(f"autograd.{op}.")
                continue
            self._replace(fn, self._timed(f"autograd.{op}.fwd", fn,
                                          on_result=self._time_backprop(op)))
        for modname, fname, span, info, prefixes in FUNCTIONS:
            fn = getattr(mods[modname], fname, None)
            if fn is None:
                self.missing.extend(prefixes)
                continue
            self._replace(fn, self._timed(span, fn, info))
        base = getattr(mods["optim"], "OptimizerState", None)
        classes = [] if base is None else [
            c for c in vars(mods["optim"]).values()
            if isinstance(c, type) and issubclass(c, base) and "step" in vars(c)]
        if not classes:
            self.missing.append("optim.step.")
        for cls in classes:
            cls.step = self._timed("optim.step", vars(cls)["step"])

    def dump(self, path: str, setup_done: float, work_end: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"setup_done": setup_done, "work_end": work_end,
                       "missing": self.missing, "spans": self.spans}, fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workload process, except those run.py
    takes from its own measurements, and without those of missing targets."""
    spans = trace["spans"]
    names = {s[0]: s[1] for s in spans}
    child_time: dict[int, float] = {}
    for sid, name, start, end, parent, thread, info in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    infos: dict[str, list] = {}
    eval_in_tune = retrain = 0.0
    for sid, name, start, end, parent, thread, info in spans:
        d = end - start
        dur.setdefault(name, []).append(d)
        self_s[name] = self_s.get(name, 0.0) + d - child_time.get(sid, 0.0)
        infos.setdefault(name, []).append(info)
        if name == "prompt.evaluate" and names.get(parent) == "prompt.tune":
            eval_in_tune += d
        if name == "prompt.tune" and names.get(parent) == "pruning.hierarchical_prune":
            retrain += d

    def total(name):
        return float(sum(dur.get(name, ())))

    def calls(name):
        return len(dur.get(name, ()))

    def median_ms(name):
        return 1000.0 * statistics.median(dur[name]) if name in dur else 0.0

    m: dict[str, float] = {}
    for op in OPS:
        m[f"autograd.{op}.fwd_s"] = total(f"autograd.{op}.fwd")
        m[f"autograd.{op}.bwd_s"] = total(f"autograd.{op}.bwd")
        m[f"autograd.{op}.calls"] = calls(f"autograd.{op}.fwd")
    m["autograd.backward.self_s"] = self_s.get("autograd.backward", 0.0)
    m["autograd.backward.calls"] = calls("autograd.backward")

    m["backbone.pretrain.s"] = total("backbone.pretrain")
    m["backbone.pretrain.steps"] = sum(infos.get("backbone.pretrain", ()))
    m["backbone.forward_batch.self_s"] = self_s.get("backbone.forward_batch", 0.0)
    m["backbone.forward_batch.calls"] = calls("backbone.forward_batch")
    m["backbone.forward_batch.rows"] = sum(infos.get("backbone.forward_batch", ()))

    tune_work = infos.get("prompt.tune", ())
    steps = sum(w[0] for w in tune_work)
    train_s = total("prompt.tune") - eval_in_tune
    m["prompt.tune.s"] = total("prompt.tune")
    m["prompt.tune.steps"] = steps
    m["prompt.step_ms"] = 1000.0 * train_s / steps if steps else 0.0
    m["prompt.examples_per_s"] = sum(w[1] for w in tune_work) / train_s if steps else 0.0
    m["prompt.evaluate.s"] = total("prompt.evaluate")
    m["prompt.evaluate.ms"] = median_ms("prompt.evaluate")
    m["prompt.evaluate.calls"] = calls("prompt.evaluate")

    m["optim.step.s"] = total("optim.step")
    m["optim.step.calls"] = calls("optim.step")

    n_score = calls("pruning.score_tokens")
    distinct = len(set(infos.get("pruning.score_tokens", ())))
    m["pruning.score_tokens.s"] = total("pruning.score_tokens")
    m["pruning.score_tokens.ms"] = median_ms("pruning.score_tokens")
    m["pruning.score_tokens.calls"] = n_score
    m["pruning.score_tokens.distinct"] = distinct
    m["pruning.score_tokens.useful_ratio"] = distinct / n_score if n_score else 0.0
    m["pruning.select.s"] = total("pruning.select")
    m["pruning.hierarchical_prune.s"] = total("pruning.hierarchical_prune")
    m["pruning.cells"] = sum(infos.get("pruning.hierarchical_prune", ()))
    m["pruning.retrain.s"] = retrain

    m["checkpoint.save.s"] = total("checkpoint.save")
    m["checkpoint.save.bytes"] = sum(infos.get("checkpoint.save", ()))
    m["checkpoint.load.s"] = total("checkpoint.load")
    m["tasks.generate.s"] = total("tasks.generate")

    setup_done, work_end = trace["setup_done"], trace["work_end"]
    roots = [(max(s[2], setup_done), s[3]) for s in spans if s[4] == -1 and s[3] > setup_done]
    m["harness.self_s"] = (work_end - setup_done) - _covered(roots)

    return {k: v for k, v in m.items()
            if not any(k.startswith(p) for p in trace["missing"])}
