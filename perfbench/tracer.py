"""Per-layer tracing of the mcrf package from outside.

The package binds its functions across modules with ``from .crf import ...``,
so one function object lives under several names (``mcrf.crf.viterbi``,
``mcrf.cli.viterbi``, ``mcrf.masking.viterbi``, ``mcrf.viterbi``). The tracer
finds every ``mcrf`` module attribute that is a traced function object and
replaces it with a wrapper, then puts the originals back on exit. Calls made
inside the defining module go through the module global too, so they are
traced as well.

Each wrapped call records a span ``(name, start, end, parent, run)`` in
memory; a layer's self time is its spans' durations minus the durations of
their direct children. Counters are updated after the span closes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_counts(args, kwargs, result) -> dict[str, int]:
    batch = _arg(args, kwargs, 0, "batch")
    return {"sentences": len(batch), "tokens": sum(len(gold) for _, gold in batch)}


def _token_ids(args, kwargs, result) -> dict[str, int]:
    return {"tokens": len(_arg(args, kwargs, 0, "token_ids"))}


def _emission_rows(args, kwargs, result) -> dict[str, int]:
    return {"tokens": len(_arg(args, kwargs, 0, "emissions"))}


def _enumerated_paths(args, kwargs, result) -> dict[str, int]:
    first = args[0] if args else kwargs.get("emissions", kwargs.get("batch"))
    if isinstance(first, list) and first and isinstance(first[0], tuple):
        # brute_force_loss_and_gradients takes a batch of (emissions, gold)
        return {"paths": sum(_path_count(em) for em, _ in first)}
    return {"paths": _path_count(first)}


def _path_count(emissions) -> int:
    T, d = np.shape(emissions)
    return d**T


def _changed(args, kwargs, result) -> dict[str, int]:
    return {"changed": int(list(_arg(args, kwargs, 0, "tags")) != result)}


def _file_bytes(args, kwargs, result) -> dict[str, int]:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


@dataclass(frozen=True)
class Layer:
    """A traced layer: the functions it covers and the counts it keeps."""

    name: str
    functions: tuple[str, ...]  # "module.function" under the mcrf package
    stats: tuple[str, ...] = ()  # counts besides calls and self_s
    counter: Callable | None = None


# Layers are named after the mcrf module that defines them. diagnostics is on
# no CLI path and is left out.
MCRF_LAYERS = (
    Layer("cli.main", ("cli.main",)),
    Layer("training.train", ("training.train",)),
    Layer("verification.run_verification", ("verification.run_verification",)),
    Layer("crf.loss_and_gradients", ("crf.loss_and_gradients",),
          ("sentences", "tokens"), _batch_counts),
    Layer("crf.viterbi", ("crf.viterbi",), ("tokens",), _emission_rows),
    Layer("crf.nll_loss", ("crf.nll_loss",)),
    Layer("crf.log_partition", ("crf.log_partition",)),
    Layer("crf.brute_force",
          ("crf.brute_force_log_partition", "crf.brute_force_best",
           "crf.brute_force_loss_and_gradients"),
          ("paths",), _enumerated_paths),
    Layer("encoder.encode", ("encoder.encode",), ("tokens",), _token_ids),
    Layer("encoder.encoder_backward", ("encoder.encoder_backward",), ("tokens",), _token_ids),
    Layer("schemes.illegal_transition_set", ("schemes.illegal_transition_set",),
          ("reuse_ratio",)),
    Layer("masking.constrained_viterbi", ("masking.constrained_viterbi",),
          ("tokens",), _emission_rows),
    Layer("masking.guard_threshold", ("masking.guard_threshold",)),
    Layer("masking.apply_mask", ("masking.apply_mask",)),
    Layer("masking.reapply_mask_in_place", ("masking.reapply_mask_in_place",)),
    Layer("training.adam_step", ("training.adam_step",)),
    Layer("postproc.extract_segments", ("postproc.extract_segments",)),
    Layer("postproc.repair_tags", ("postproc.repair_tags",), ("changed",), _changed),
    Layer("evaluation.chunk_prf", ("evaluation.chunk_prf",)),
    Layer("evaluation.illegal_stats", ("evaluation.illegal_stats",)),
    Layer("data.read_conll", ("data.read_conll",), ("bytes",), _file_bytes),
    Layer("data.write_conll", ("data.write_conll",), ("bytes",), _file_bytes),
    Layer("data.load_model", ("data.load_model",), ("bytes",), _file_bytes),
)

_UNITS = {"calls": "count", "self_s": "s", "tokens": "tok", "bytes": "B", "reuse_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every metric name a traced run reports, with its unit."""
    out = {}
    for layer in MCRF_LAYERS:
        for stat in ("calls", *layer.stats, "self_s"):
            out[f"{layer.name}.{stat}"] = _UNITS.get(stat, "count")
    return out


@dataclass
class Tracer:
    """Context manager that wraps the layers' functions while it is open."""

    run: int = 0  # recorded with every span
    spans: list = field(default_factory=list, init=False)
    counts: dict = field(default_factory=lambda: defaultdict(int), init=False)
    _patched: list = field(default_factory=list, init=False)
    _stack: list = field(default_factory=list, init=False)
    _tagsets: set = field(default_factory=set, init=False)

    def __enter__(self) -> "Tracer":
        targets = [
            (layer, importlib.import_module(f"mcrf.{module_name}"), func_name)
            for layer in MCRF_LAYERS
            for module_name, func_name in (q.rsplit(".", 1) for q in layer.functions)
        ]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mcrf" or name.startswith("mcrf."))
        ]
        try:
            for layer, module, func_name in targets:
                original = getattr(module, func_name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        counts = self.counts
        spans = self.spans
        stack = self._stack
        is_ruleset = name == "schemes.illegal_transition_set"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
                counts[f"{name}.calls"] += 1
            if layer.counter is not None:
                for stat, value in layer.counter(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += value
            if is_ruleset:
                self._tagsets.add(_arg(args, kwargs, 0, "tagset"))
            return result

        return functools.wraps(fn)(traced)

    def metrics(self) -> dict[str, float]:
        """Counts and self times for every layer, zero for layers never called."""
        values: dict[str, float] = {name: 0 for name in metric_units()}
        for key, value in self.counts.items():
            values[key] = value
        for name, seconds in self_times(self.spans).items():
            values[f"{name}.self_s"] = seconds
        key = "schemes.illegal_transition_set.reuse_ratio"
        if key in values:
            calls = self.counts.get("schemes.illegal_transition_set.calls", 0)
            values[key] = len(self._tagsets) / calls if calls else 0.0
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")


def self_times(spans: list) -> dict[str, float]:
    """Per-name duration of each span minus the durations of its direct
    children. Spans come from one thread, so children never overlap."""
    child_total = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child_total[index]
    return dict(out)
