"""Spans recorded from outside the package, by swapping timing wrappers
onto the attributes the callers resolve at call time.

Each span is (name, start_ns, end_ns, parent index), kept in memory and
written out when the run ends. Layer metrics are aggregated from the
spans afterwards: total seconds (`_s`), call counts (`_calls`), and self
seconds (`_self_s`: the span minus its children) for the spans in SELF.
Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# (module, attribute, span name). Functions imported by name into another
# module are wrapped where that module looks them up.
TARGETS = (
    ("diffcf.dataset", "parse_interactions", "dataset.parse_interactions"),
    ("diffcf.dataset", "split_holdout", "dataset.split_holdout"),
    ("diffcf.dataset", "save_matrix", "dataset.save_matrix"),
    ("diffcf.dataset", "load_matrix", "dataset.load_matrix"),
    ("diffcf.dataset", "dense_rows", "dataset.dense_rows"),
    ("diffcf.train", "dense_rows", "dataset.dense_rows"),
    ("diffcf.eval", "dense_rows", "dataset.dense_rows"),
    ("diffcf.graph", "build_contexts", "graph.build_contexts"),
    ("diffcf.graph", "save_contexts", "graph.save_contexts"),
    ("diffcf.graph", "load_contexts", "graph.load_contexts"),
    ("diffcf.graph:HopContexts", "batch_rows", "graph.batch_rows"),
    ("diffcf.train", "diffuse_to", "schedule.diffuse_to"),
    ("diffcf.eval", "diffuse_to", "schedule.diffuse_to"),
    ("diffcf.train", "posterior_mean", "schedule.posterior_mean"),
    ("diffcf.camae", "init_params", "camae.init_params"),
    ("diffcf.camae", "camae_forward", "camae.camae_forward"),
    ("diffcf.ndtensor:Tape", "record", "ndtensor.record"),
    ("diffcf.ndtensor:Tape", "backward", "ndtensor.backward"),
    ("diffcf.ndtensor", "adam_step", "ndtensor.adam_step"),
    ("diffcf.ndtensor", "save_checkpoint", "ndtensor.save_checkpoint"),
    ("diffcf.ndtensor", "load_checkpoint", "ndtensor.load_checkpoint"),
    ("diffcf.train", "train_step", "train.train_step"),
    ("diffcf.eval", "evaluate", "eval.evaluate"),
    ("diffcf.eval", "denoise_infer", "eval.denoise_infer"),
    ("diffcf.eval", "rank_topk", "eval.rank_topk"),
    ("diffcf.eval", "ranking_metrics", "eval.ranking_metrics"),
    ("diffcf.eval", "popularity_report", "eval.popularity_report"),
)

RECORD_OPS = ("cross_attention", "matmul", "relu", "mse")
TIMED = tuple(dict.fromkeys(name for _, _, name in TARGETS if name != "ndtensor.record"))
SELF = ("camae.camae_forward", "train.train_step", "eval.evaluate", "eval.denoise_infer")
CALL_COUNTS = ("camae.camae_forward", "ndtensor.backward", "train.train_step")
# Ranking done for the popularity floor is reported under its own span
# only, so that eval.rank_topk_s and friends describe the model's passes.
FLOOR = "eval.popularity_report"


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def held_bytes(tape) -> int:
    """Bytes of every distinct array buffer a tape holds: node values and
    the values saved for the backward pass."""
    seen: dict[int, int] = {}
    for node in tape.nodes:
        for a in (node.value, *node.ctx.values()):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                seen[id(a)] = a.nbytes
    return sum(seen.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.tape_bytes = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_name = f"{name}.{args[1]}" if name == "ndtensor.record" else name
            idx = len(spans)
            spans.append([span_name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "camae.camae_forward":
                self.tape_bytes = max(self.tape_bytes, held_bytes(args[0]))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for spec, attr, name in TARGETS:
            owner = _owner(spec)
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"trace: {spec}.{attr} not found, {name} not traced", file=sys.stderr)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, f)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit) aggregated over every recorded span."""
        total: dict[str, int] = {}
        calls: dict[str, int] = {}
        child: dict[str, int] = {}
        in_floor = [False] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            in_floor[idx] = name == FLOOR or (parent >= 0 and in_floor[parent])
            if in_floor[idx] and name != FLOOR:
                continue
            if name.startswith("ndtensor.record."):
                op = name[len("ndtensor.record."):]
                name = f"ndtensor.record.{op if op in RECORD_OPS else 'other'}"
            total[name] = total.get(name, 0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0) + end - start
        out: dict[str, tuple[float, str]] = {}
        names = list(TIMED) + [f"ndtensor.record.{op}" for op in (*RECORD_OPS, "other")]
        for name in names:
            out[f"{name}_s"] = (total.get(name, 0) / 1e9, "s")
            if name in SELF:
                own = total.get(name, 0) - child.get(name, 0)
                out[f"{name}_self_s"] = (own / 1e9, "s")
            if name.startswith("ndtensor.record.") or name in CALL_COUNTS:
                out[f"{name}_calls"] = (calls.get(name, 0), "count")
        out["ndtensor.tape_bytes"] = (self.tape_bytes, "bytes")
        return out
