"""Span tracing of the aefs layers, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of the modules
under ``src/aefs`` (and the two private snapshot helpers of ``training``) so
that every call records a span: name, start, end and parent. Spans stay in
memory until the run ends; a span's self time is its duration minus the time
its direct children cover.

Backward time is charged to the layer whose forward call created the graph
node: while a layer's span is open, every new ``Tensor`` with a backward
closure gets that closure wrapped in a span named after the layer. Closures
of nodes created outside any layer (the training loop's loss sums) run
unwrapped and so count as the tape's own time.

A name that no longer exists is recorded in ``absent`` and skipped; the run
goes on and that layer reads 0.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, child_seconds, root]
        self._open: list[int] = []
        self._check_roots: set[int] = set()  # top-level spans opened by the checks
        self._layers: list[str | None] = []  # backward-attribution name per open span
        self.absent: list[str] = []
        self.recording = True  # when False, the wrappers call straight through
        # set by the benchmark: setup | train | score | checkpoint | check,
        # and the method being trained
        self.phase = "setup"
        self.method: str | None = None
        self.step_starts: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._embedding_weights: set[int] = set()
        self._aux_predictors: set[int] = set()

    # -- spans ------------------------------------------------------------
    def open(self, name: str, layer: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        root = self.spans[parent][5] if parent >= 0 else index
        if parent < 0 and self.phase == "check":
            self._check_roots.add(index)
        self.spans.append([name, now(), 0.0, parent, 0.0, root])
        self._open.append(index)
        self._layers.append(layer)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = now()
        self._open.pop()
        self._layers.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _wrap(self, fn, name, layer=None):
        """`name` and `layer` may be callables of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            lay = layer(args) if callable(layer) else layer
            index = tracer.open(span, lay)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installation -----------------------------------------------------
    def _function(self, module: str, attr: str, name, layer=None):
        """Wrap a module-level function everywhere it was imported by name."""
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
            return
        traced = self._wrap(fn, name, layer)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("aefs"):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def _method(self, module: str, cls_name: str, attr: str, make):
        cls = getattr(importlib.import_module(module), cls_name, None)
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            self.absent.append(f"{module}.{cls_name}.{attr}")
            return
        setattr(cls, attr, make(fn))

    def install(self) -> "Tracer":
        importlib.import_module("aefs")
        wrap = self._wrap
        m = self._method
        f = self._function

        f("aefs.data", "read_format_b", "data.read")
        f("aefs.data", "split_dataset", "data.split")
        f("aefs.data", "build_vocab", "data.build_vocab")
        f("aefs.data", "quantize_all", "data.quantize")

        m("aefs.embedding", "EmbeddingSet", "__init__", self._register_embedding)
        m("aefs.embedding", "EmbeddingSet", "embed",
          lambda fn: wrap(fn, "embedding.fwd", "embedding.bwd"))
        m("aefs.embedding", "EmbeddingSet", "embed_selected",
          lambda fn: wrap(fn, "embedding.fwd", "embedding.bwd"))
        f("aefs.embedding", "record_batch_activation", "embedding.ledger")

        m("aefs.numerics", "Tensor", "__init__", self._attribute_backward)
        m("aefs.numerics", "Tensor", "backward", lambda fn: wrap(fn, "numerics.backward"))
        m("aefs.numerics", "Adam", "step", self._count_step)

        f("aefs.selection", "aefs_forward", "selection.aefs_fwd", "selection.bwd")
        m("aefs.selection", "LateSelectionModel", "forward",
          lambda fn: wrap(fn, "selection.adafs_fwd", "selection.bwd"))
        for loss in ("embedding_alignment_loss", "prediction_alignment_loss"):
            f("aefs.selection", loss, "selection.align_loss", "selection.align_loss")
        m("aefs.selection", "DualModel", "__init__", self._register_dual)

        m("aefs.predictors", "Controller", "__call__",
          lambda fn: wrap(fn, "predictors.controller_fwd", "predictors.controller_bwd"))
        side = lambda args: "aux" if id(args[0]) in self._aux_predictors else "main"
        for cls_name in ("MLPPredictor", "DeepFMPredictor", "DCNPredictor"):
            m("aefs.predictors", cls_name, "__call__",
              lambda fn: wrap(fn, lambda a: f"predictors.{side(a)}_fwd",
                              lambda a: f"predictors.{side(a)}_bwd"))
        f("aefs.predictors", "bce", "predictors.bce", "predictors.bce")

        f("aefs.training", "train", "training.train")
        f("aefs.training", "evaluate",
          lambda args: {"train": "training.val_eval"}.get(self.phase, "training.evaluate"))
        m("aefs.training", "FittedModel", "forward_scores",
          lambda fn: wrap(fn, lambda a: "training.score_call" if self.phase == "score"
                          else "training.forward_scores"))
        f("aefs.training", "_snapshot", "training.snapshot")
        f("aefs.training", "_restore", "training.snapshot")
        f("aefs.training", "save_checkpoint", "training.ckpt_save")
        f("aefs.training", "load_checkpoint", "training.ckpt_load")
        f("aefs.metrics", "auc", "metrics.auc")
        return self

    def _register_embedding(self, init):
        def traced_init(emb, *args, **kwargs):
            init(emb, *args, **kwargs)
            self._embedding_weights.add(id(emb.weight))

        return traced_init

    def _register_dual(self, init):
        def traced_init(pair, *args, **kwargs):
            init(pair, *args, **kwargs)
            self._aux_predictors.add(id(pair.aux_predictor))

        return traced_init

    def _attribute_backward(self, init):
        def traced_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            layer = self._layers[-1] if self.recording and self._layers else None
            if layer is not None and tensor._backward is not None:
                tensor._backward = self._wrap(tensor._backward, layer)

        return traced_init

    def _count_step(self, step):
        """Before each Adam step, count what it is about to update."""
        traced = self._wrap(step, "numerics.adam")

        def counted_step(opt):
            if not self.recording:
                return step(opt)
            self.step_starts[self.method].append(now())
            c = self.counts
            for p in opt.params:
                if p.grad is None:
                    continue
                c["adam_elems"] += p.data.size
                if id(p) in self._embedding_weights:
                    c["grad_rows"] += p.grad.shape[0]
                    c["emb_updated"] += p.grad.size
                    c["emb_touched"] += int(np.count_nonzero(p.grad.any(axis=1))) * p.grad.shape[1]
            c["steps"] += 1
            return traced(opt)

        return counted_step

    # -- summary ----------------------------------------------------------
    def totals(self, roots=None):
        """Per span name: [inclusive seconds, self seconds, durations],
        over the spans below top-level spans named in `roots` (default: all),
        leaving out the calls the checks make."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, []])
        for name, start, end, _parent, child, root in self.spans:
            if root in self._check_roots or (roots and self.spans[root][0] not in roots):
                continue
            entry = out[name]
            entry[0] += end - start
            entry[1] += end - start - child
            entry[2].append(end - start)
        return out

    def step_ms(self, method: str) -> float:
        starts = self.step_starts.get(method, [])
        if len(starts) < 2:
            return 0.0
        return 1e3 * statistics.median(np.diff(starts))
