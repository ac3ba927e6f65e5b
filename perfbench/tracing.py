"""In-memory span tracer for the benchmark's traced runs.

propcal is not instrumented itself. Instead a traced run replaces, for the
life of one process, the attributes through which propcal code looks its
functions up with wrappers that open a span and count work. ``simulator``
and ``cli`` bind several functions with ``from ... import``, so those names
are patched in the importing module as well as where they are defined.

A span is ``[id, parent, op, name, start, end]``: ``parent`` is the id of the
span open when it began (-1 at the root) and ``op`` is the operation it
belongs to, one per simulator seed or per CLI command. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import Counter

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end", "self")


class Tracer:
    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(self, owner, attr: str, name, hook=None, op=None) -> None:
        """Wrap ``owner.attr`` in a span counted as ``<name>.calls``.

        ``name`` is a string or a function of the bound call arguments;
        ``hook(tracer, args, result)`` adds counts after each call; ``op``
        maps the arguments to a new operation id for the call's duration.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if (hook or op or callable(name)) else None

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            args = sig.bind(*a, **kw).arguments if sig else None
            label = name(args) if callable(name) else name
            prev_op = self.op
            if op is not None:
                self.op = op(args)
            sid = self.begin(label)
            try:
                result = fn(*a, **kw)
            finally:
                self.end(sid)
                self.op = prev_op
            self.counts[label + ".calls"] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str, amount=None) -> None:
        """Count calls of ``owner.attr`` (or ``amount(*args)`` per call) without a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            self.counts[key] += 1 if amount is None else amount(*a, **kw)
            return fn(*a, **kw)

        self._replace(owner, attr, wrapper)

    def peak_memory(self, owner, attr: str, key: str) -> None:
        """Record under ``key`` the largest traced allocation peak of any call, in MB."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if tracemalloc.is_tracing():
                return fn(*a, **kw)
            tracemalloc.start()
            try:
                return fn(*a, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[key] = max(self.peaks.get(key, 0.0), peak)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> list[list]:
        """Spans with their self time appended, in start order."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [s + [s[5] - s[4] - child_time[s[0]]] for s in self.spans]

    def totals(self) -> dict[str, float]:
        """Flat per-layer values: ``<span>.s`` inclusive seconds, counts and peaks."""
        out: dict[str, float] = dict(self.counts)
        for _, _, _, name, start, end in self.spans:
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out.update(self.peaks)
        return out


def install(tracer: Tracer) -> None:
    """Patch every propcal layer boundary the benchmark measures."""
    from propcal import cli, diagnostics, losses, sampling, simulator, stats

    t = tracer

    def add(key, fn):
        return lambda tr, args, result: tr.counts.update({key: fn(args, result)})

    # simulator: run_seed and the stages it calls are looked up in simulator's globals
    t.span(simulator, "run_seed", "simulator.run_seed", op=lambda a: f"seed-{a['seed']}")
    t.span(simulator, "generate_dataset", "simulator.generate_dataset")
    t.span(simulator, "base_train", "simulator.base_train")
    t.span(simulator, "finetune", lambda a: "simulator.finetune_" + ("pdc" if a["pdc_enabled"] else "baseline"))
    t.span(simulator, "evaluate", "simulator.evaluate")
    rows = add("simulator.feature_rows", lambda a, r: r.size)
    t.span(simulator, "rpn_proposals", "simulator.rpn_proposals", hook=rows)
    t.span(simulator, "sampled_proposals", "simulator.sampled_proposals", hook=rows)
    t.span(simulator, "_features_for", "simulator.features_for")

    # losses: simulator and cli bind the array kernels by name
    anchors = add("losses.supcon.anchors", lambda a, r: a["z"].shape[0])
    for owner in (losses, simulator, cli):
        t.span(owner, "supcon_loss_arrays", "losses.supcon", hook=anchors)
        t.span(owner, "supcon_grad_arrays", "losses.supcon", hook=anchors)

    # sampling: every row the raw draw produces, against the rows asked for
    requested = add("sampling.rows_requested", lambda a, r: a["n"])
    for owner in (sampling, simulator):
        t.span(owner, "sample_boxes_for_gt", "sampling.sample_boxes_for_gt", hook=requested)
    t.count(sampling, "_draw_raw", "sampling.rows_drawn", amount=lambda model, n, rng: n)
    for owner in (sampling, cli):
        t.span(owner, "sample_proposals_for_gt", "sampling.sample_proposals_for_gt")
    for owner in (sampling, simulator):
        t.span(owner, "build_calibrated_set", "sampling.build_calibrated_set")

    # stats: add_many is a method, so patching the class covers every importer
    t.span(stats.OffsetAccumulator, "add_many", "stats.add_many",
           hook=add("stats.add_many.rows", lambda a, r: len(a["offsets"])))
    for owner in (stats, cli):
        t.span(owner, "fit_optimal_uniform", "stats.fit_optimal_uniform")

    # diagnostics: simulator and cli call these as diagnostics.<name>
    t.peak_memory(diagnostics, "mmd_rbf", "diagnostics.mmd_rbf.peak_mb")
    t.span(diagnostics, "mmd_rbf", "diagnostics.mmd_rbf",
           hook=add("diagnostics.mmd_rbf.pooled_n", lambda a, r: len(a["set_a"]) + len(a["set_b"])))
    for name in ("median_heuristic_bandwidth", "mmd_linear", "offset_report", "iou_histogram",
                 "precision_by_iou"):
        t.span(diagnostics, name, "diagnostics." + name)

    # cli: the log format in both directions
    t.span(cli, "parse_log", "cli.parse_log", hook=lambda tr, a, r: tr.counts.update(
        {"cli.parse_log.records": len(r[0]), "cli.parse_log.errors": len(r[1])}))
    t.span(cli, "serialize_record", "cli.serialize_record")

    # geometry: scalar box ops, counted where they are bound
    t.count(cli, "encode_offset", "geometry.encode_offset.calls")
    t.count(diagnostics, "iou", "geometry.iou.calls")
    t.count(simulator, "iou_scalar", "geometry.iou.calls")
