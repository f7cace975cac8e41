"""Spans around tapgkit's public entry points, installed from outside the package.

``Tracer.install`` replaces each target attribute (a module function, in every
tapgkit module that binds it, or a class method) with a wrapper that records
a span: name, start, end and the enclosing span. Probes attach counts to the
span from the call's arguments and result. ``Tracer.remove`` puts the
original objects back, and ``Tracer.leftovers`` names any that are not.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None", start: float = 0.0,
                 end: float = 0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it its child spans cover."""
    return span.duration - covered([(c.start, c.end) for c in children],
                                   span.start, span.end)


# ---------------------------------------------------------------------------
# probes: counts taken from a call's arguments and result
# ---------------------------------------------------------------------------

def _file_bytes(counts, args, result):
    counts["bytes"] = os.path.getsize(args[0])


def _features(counts, args, result):
    counts["bytes"] = os.path.getsize(args[0])
    counts["snippets"] = result.num_snippets


def _attention(counts, args, result):
    info = result[1]
    counts["rows_in"] = args[1].data.shape[0]
    counts["rows_kept"] = 0 if info.used_default else len(info.selected)
    counts["fallback"] = int(info.used_default)


def _nbytes(counts, args, result):
    counts["bytes"] = result.nbytes


def _tape(counts, args, result):
    counts["records"] = len(args[0])


def _length(counts, args, result):
    counts["items"] = len(result)


def _train(counts, args, result):
    counts["degenerate"] = sum(r.degenerate_terms for r in result)


def _matched(counts, args, result):
    total = sum(len(g) for g in args[1].values())
    counts["matched"] = int(round(float(result.sum()) * total))


@dataclass(frozen=True)
class Target:
    module: str
    attr: str          # "function" or "Class.method"
    span: str
    probe: object = None
    only_under: str | None = None   # record only when called inside this span


TARGETS = (
    Target("tapgkit.data.annotations", "load_annotations", "data.annotations", _file_bytes),
    Target("tapgkit.data.features", "load_features", "data.features", _features),
    Target("tapgkit.representation", "SnippetRepresentation.video", "representation"),
    Target("tapgkit.attention", "AdaptiveAttention.__call__", "attention", _attention),
    Target("tapgkit.boundary_net", "BoundaryNet.__call__", "boundary_net"),
    Target("tapgkit.autodiff.layers", "Conv1d.__call__", "boundary_net.conv1d"),
    Target("tapgkit.autodiff.layers", "Conv2d.__call__", "boundary_net.conv2d"),
    Target("tapgkit.autodiff.layers", "Conv3d.__call__", "boundary_net.conv3d"),
    Target("tapgkit.autodiff.tensor", "matmul", "boundary_net.matching",
           only_under="boundary_net"),
    Target("tapgkit.boundary_net", "build_sampling_weights", "boundary_net.sampling_build",
           _nbytes),
    Target("tapgkit.autodiff.tensor", "Tape.backward", "autodiff.backward", _tape),
    Target("tapgkit.autodiff.optim", "Adam.step", "autodiff.adam"),
    Target("tapgkit.autodiff.checkpoint", "save_checkpoint", "autodiff.checkpoint_save",
           _file_bytes),
    Target("tapgkit.autodiff.checkpoint", "load_checkpoint", "autodiff.checkpoint_load"),
    Target("tapgkit.training", "train", "training.train", _train),
    Target("tapgkit.training", "video_labels", "training.labels"),
    Target("tapgkit.training", "total_loss", "training.loss"),
    Target("tapgkit.inference", "generate_proposals", "inference.generate", _length),
    Target("tapgkit.inference", "pair_candidates", "inference.pair", _length),
    Target("tapgkit.inference", "suppress", "inference.suppress"),
    Target("tapgkit.inference", "save_proposals", "inference.save"),
    Target("tapgkit.inference", "load_proposals", "evaluation.load_proposals"),
    Target("tapgkit.evaluation", "recall_curve", "evaluation.recall_curve"),
    Target("tapgkit.evaluation", "recall_at_budget", "evaluation.recall_at_budget", _matched),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._open: list[Span] = []
        # (owner, attribute, original, owner defined it itself)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            if target.only_under is not None and (
                    parent is None or parent.name != target.only_under):
                return fn(*args, **kwargs)
            span = Span(target.span, parent)
            tracer.spans.append(span)
            tracer._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if target.probe is not None:
                target.probe(span.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, owned))
        self._originals.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target that exists; a target the program lacks is skipped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                continue
            owner_name, _, method = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or not hasattr(owner, method):
                    continue
                self._patch(owner, method, self._wrap(getattr(owner, method), target))
                continue
            fn = getattr(module, method, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, target)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "tapgkit" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Every attribute ever wrapped that is not its original object now."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._originals
                if getattr(owner, attr, None) is not original]


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

class SpanTable:
    """Totals, counts and self times by span name."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        self._children = children

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def ms(self, name: str) -> float:
        return 1000.0 * sum(s.duration for s in self.by_name.get(name, ()))

    def self_ms(self, name: str) -> float:
        return 1000.0 * sum(self_time(s, self._children.get(id(s), ()))
                            for s in self.by_name.get(name, ()))

    def counted(self, name: str, key: str) -> float:
        return float(sum(s.counts.get(key, 0) for s in self.by_name.get(name, ())))

    def last(self, name: str, key: str) -> float:
        spans = self.by_name.get(name, ())
        return float(spans[-1].counts.get(key, 0)) if spans else 0.0


def unit_of(metric: str) -> str:
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def _per(value: float, units: float) -> float:
    return value / units if units else 0.0


def layer_metrics(setup_spans: list[Span], cycle_spans: list[Span],
                  cycles: int) -> dict[str, float]:
    """Per-layer metrics. ``setup_spans`` cover one set-up; ``cycle_spans`` cover
    ``cycles`` traced train -> infer -> eval cycles.

    Times are milliseconds per natural unit: per model forward pass for the
    representation, attention and boundary_net layers, per training step for
    backward, Adam and the loss, and per call otherwise.
    """
    s = SpanTable(setup_spans)
    c = SpanTable(cycle_spans)
    forwards = c.count("boundary_net")
    steps = c.count("autodiff.backward")
    trains = c.count("training.train")
    videos = c.count("inference.generate")
    evals = c.count("evaluation.recall_curve")
    loads = s.count("data.annotations")
    rows_in = c.counted("attention", "rows_in")
    rows_kept = c.counted("attention", "rows_kept")
    candidates = c.counted("inference.pair", "items")
    proposals = c.counted("inference.generate", "items")
    builds = s.count("boundary_net.sampling_build")
    return {
        "data.load_ms": _per(s.ms("data.annotations") + s.ms("data.features"), loads),
        "data.bytes_read": _per(s.counted("data.annotations", "bytes")
                                + s.counted("data.features", "bytes"), loads),
        "data.snippets_loaded": _per(s.counted("data.features", "snippets"), loads),
        "attention.calls": _per(c.count("attention"), cycles),
        "attention.ms": _per(c.self_ms("attention"), forwards),
        "attention.rows_in": _per(rows_in, forwards),
        "attention.rows_kept": _per(rows_kept, forwards),
        "attention.keep_ratio": _per(rows_kept, rows_in),
        "attention.default_fallbacks": _per(c.counted("attention", "fallback"), forwards),
        "representation.calls": _per(c.count("representation"), cycles),
        "representation.ms": _per(c.self_ms("representation"), forwards),
        "boundary_net.ms": _per(c.self_ms("boundary_net"), forwards),
        "boundary_net.conv1d_ms": _per(c.ms("boundary_net.conv1d"), forwards),
        "boundary_net.matching_ms": _per(c.ms("boundary_net.matching"), forwards),
        "boundary_net.conv3d_ms": _per(c.ms("boundary_net.conv3d"), forwards),
        "boundary_net.conv2d_ms": _per(c.ms("boundary_net.conv2d"), forwards),
        "boundary_net.sampling_build_ms": _per(s.ms("boundary_net.sampling_build"), builds),
        "boundary_net.sampling_bytes": s.last("boundary_net.sampling_build", "bytes"),
        "autodiff.tape_records_per_step": _per(c.counted("autodiff.backward", "records"),
                                               steps),
        "autodiff.backward_ms": _per(c.ms("autodiff.backward"), steps),
        "autodiff.adam_ms": _per(c.ms("autodiff.adam"), steps),
        "autodiff.checkpoint_save_ms": _per(c.ms("autodiff.checkpoint_save"),
                                            c.count("autodiff.checkpoint_save")),
        "autodiff.checkpoint_load_ms": _per(c.ms("autodiff.checkpoint_load"),
                                            c.count("autodiff.checkpoint_load")),
        "autodiff.checkpoint_bytes": c.last("autodiff.checkpoint_save", "bytes"),
        "training.labels_ms": _per(c.ms("training.labels"), trains),
        "training.loss_ms": _per(c.ms("training.loss"), steps),
        "training.steps": _per(steps, trains),
        "training.degenerate_terms": _per(c.counted("training.train", "degenerate"), trains),
        "inference.candidates_per_video": _per(candidates, videos),
        "inference.proposals_per_video": _per(proposals, videos),
        "inference.kept_ratio": _per(proposals, candidates),
        "inference.pair_ms": _per(c.ms("inference.pair"), videos),
        "inference.suppress_ms": _per(c.ms("inference.suppress"), videos),
        "inference.save_ms": _per(c.ms("inference.save"), c.count("inference.save")),
        "evaluation.load_proposals_ms": _per(c.ms("evaluation.load_proposals"),
                                             c.count("evaluation.load_proposals")),
        "evaluation.recall_curve_ms": _per(c.ms("evaluation.recall_curve"), evals),
        "evaluation.matched": _per(c.counted("evaluation.recall_at_budget", "matched"),
                                   evals),
        "evaluation.recall_calls": _per(c.count("evaluation.recall_at_budget"), evals),
    }
