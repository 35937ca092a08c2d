"""Outside-in tracing of the tsforge layers.

:class:`Tracer` rebinds each function in :data:`TARGETS` at every
module-level name in the ``tsforge`` package that refers to it, which is
the name its callers look up at call time (``tsforge.gan.critic_forward``,
``tsforge.cli.save_checkpoint``, ``tsforge.tensor.backward``, ...), and
``Graph.clear`` on its class. Each call records one span (name, start,
end, parent) in memory; leaving the ``with`` block restores every name
to the original object. Nothing in ``src/`` is modified.

:func:`layer_metrics` turns the spans of one traced phase into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

MODULES = ("tsforge", "tsforge.tensor", "tsforge.nn", "tsforge.gan", "tsforge.optim",
           "tsforge.data", "tsforge.stats", "tsforge.plot", "tsforge.checkpoint",
           "tsforge.cli")

# Span names; "layer.function" wraps tsforge.<layer>.<function>.
TARGETS = (
    "tensor.backward", "tensor.grad",
    "nn.lstm_cell_step", "nn.critic_forward", "nn.generator_forward",
    "gan.train", "gan.gradient_penalty", "gan.wasserstein_estimate",
    "gan.lipschitz_ratio_check", "gan.generate",
    "optim.rmsprop_step", "optim.clip_weights",
    "data.sample_real_batch", "data.load_csv", "data.build_dataset",
    "stats.compare_distributions", "stats.moments", "stats.acf", "stats.qq_points",
    "plot.render_chart", "plot.render_panels", "plot.write_svg",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "cli.main",
)
CLEAR = "tensor.Graph.clear"

# What a span notes about its call: taken from the arguments on entry, or
# from the arguments and the result on exit.
_ON_ENTRY = {
    "tensor.backward": lambda args: len(args[0]),       # tape length of the graph
    CLEAR: lambda args: len(args[0]),
    "optim.rmsprop_step": lambda args: args[0].kind,    # "critic" or "generator"
    "gan.train": lambda args: args[0].epochs,
}
_ON_EXIT = {
    "tensor.backward": lambda args, out: len(out),      # nodes the gradient reached
    "plot.write_svg": lambda args, out: os.path.getsize(args[0]),
    "checkpoint.save_checkpoint": lambda args, out: os.path.getsize(args[0]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "entry", "exit")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.entry = None
        self.exit = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "entry": self.entry, "exit": self.exit}


class Tracer:
    """Context manager that records a span around every call of the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        on_entry, on_exit = _ON_ENTRY.get(name), _ON_EXIT.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            if on_entry is not None:
                span.entry = on_entry(args)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if on_exit is not None:
                    span.exit = on_exit(args, out)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for name in TARGETS:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"tsforge.{layer}"), func)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapped)
        graph_cls = importlib.import_module("tsforge.tensor").Graph
        self._rebind(graph_cls, "clear", self._wrap(CLEAR, graph_cls.clear))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def step_counts(spans: list[Span]) -> dict[str, list]:
    """Tape sizes per optimizer step, keyed by the network the step updates.

    Within one step the outer backward and ``Graph.clear`` come before
    ``rmsprop_step``, whose ParamSet names the network.
    """
    out: dict[str, list] = {"critic": [], "generator": []}
    pending: dict = {}
    for s in spans:
        if s.name == "tensor.backward" and not _has_ancestor(spans, s, "tensor.grad"):
            pending["forward"], pending["reached"] = s.entry, s.exit
        elif s.name == CLEAR:
            pending["clear"] = s.entry
        elif s.name == "optim.rmsprop_step" and pending:
            out[s.entry].append(dict(pending))
            pending = {}
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced phase that lasted ``wall_s`` seconds.

    Spans inside ``gan.train`` are summed per training epoch; spans of the
    command layers are medians per call; sizes are medians per file.
    """
    selfs = self_times(spans)
    in_train = [_has_ancestor(spans, s, "gan.train") for s in spans]
    epochs = sum(s.entry for s in spans if s.name == "gan.train")

    def per_epoch(name: str, count: bool = False) -> float:
        picked = [s for i, s in enumerate(spans) if s.name == name and in_train[i]]
        if not epochs:
            return 0.0
        return (len(picked) if count else sum(s.duration for s in picked)) / epochs

    def per_call(name: str) -> float:
        return _median(s.duration for s in spans if s.name == name)

    def sizes(name: str) -> float:
        return _median(s.exit for s in spans if s.name == name)

    outer_backward = [i for i, s in enumerate(spans) if s.name == "tensor.backward"
                      and in_train[i] and not _has_ancestor(spans, s, "tensor.grad")]
    steps = step_counts(spans)
    critic, generator = steps["critic"], steps["generator"]
    top_level = sum(s.duration for s in spans if s.parent is None)
    return {
        "tensor.backward_s": sum(selfs[i] for i in outer_backward) / epochs if epochs else 0.0,
        "tensor.grad_s": per_epoch("tensor.grad"),
        "tensor.tape_nodes_critic_step": _median(c["clear"] for c in critic),
        "tensor.tape_nodes_generator_step": _median(g["clear"] for g in generator),
        "tensor.forward_nodes_critic_step": _median(c["forward"] for c in critic),
        "tensor.backward_reached_ratio": _median(c["reached"] / c["forward"] for c in critic),
        "nn.lstm_cell_step_s": per_call("nn.lstm_cell_step"),
        "nn.lstm_cell_step_calls": per_epoch("nn.lstm_cell_step", count=True),
        "nn.critic_forward_s": per_epoch("nn.critic_forward"),
        "nn.critic_forward_calls": per_epoch("nn.critic_forward", count=True),
        "nn.generator_forward_s": per_epoch("nn.generator_forward"),
        "gan.gradient_penalty_s": per_epoch("gan.gradient_penalty"),
        "gan.wasserstein_estimate_s": per_epoch("gan.wasserstein_estimate"),
        "gan.train_self_s": sum(selfs[i] for i, s in enumerate(spans)
                                if s.name == "gan.train") / epochs if epochs else 0.0,
        "gan.lipschitz_ratio_check_s": per_call("gan.lipschitz_ratio_check"),
        "gan.generate_s": per_call("gan.generate"),
        "optim.rmsprop_step_s": per_epoch("optim.rmsprop_step"),
        "optim.clip_weights_s": per_epoch("optim.clip_weights"),
        "data.sample_real_batch_s": per_epoch("data.sample_real_batch"),
        "data.load_csv_s": per_call("data.load_csv"),
        "data.build_dataset_s": per_call("data.build_dataset"),
        "stats.compare_distributions_s": per_call("stats.compare_distributions"),
        "stats.moments_s": per_call("stats.moments"),
        "stats.acf_s": per_call("stats.acf"),
        "stats.qq_points_s": per_call("stats.qq_points"),
        "plot.render_chart_s": per_call("plot.render_chart"),
        "plot.render_panels_s": per_call("plot.render_panels"),
        "plot.write_svg_s": per_call("plot.write_svg"),
        "plot.svg_bytes": sizes("plot.write_svg"),
        "checkpoint.save_checkpoint_s": per_call("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint_s": per_call("checkpoint.load_checkpoint"),
        "checkpoint.bytes": sizes("checkpoint.save_checkpoint"),
        "cli.self_s": _median(selfs[i] for i, s in enumerate(spans) if s.name == "cli.main"),
        "trace.uncovered_share": max(0.0, wall_s - top_level) / wall_s,
    }
