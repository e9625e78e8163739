"""Spans around the layer boundaries of the eann package, recorded from outside it.

``install(tracer)`` swaps the functions each module calls across a
layer boundary for thin wrappers and returns a callable that restores them.
Functions a module imported by name (``ann.batch_values``,
``envelope.normalize``, ...) are wrapped in the importing module's globals,
because that is the binding the caller looks up; methods are wrapped on their
class. While ``tracer.on`` is false a wrapper costs one attribute test.

Each finished span is kept in memory as ``(name, parent, phase, dur_ns,
self_ns)``. Self time is the span's duration minus that of its direct
children; the package is single-threaded here, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.on = False
        self.phase = "setup"
        self.spans: list[tuple[str, str | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span, or plainly while tracing is off."""
        if not self.on:
            return fn(*args, **kwargs)
        frame = [name, _now(), 0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _now() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((name, self.parent(), self.phase, dur, dur - frame[2]))

    def count(self, key: str, amount=1) -> None:
        if self.on:
            self.counts[self.phase, key] += amount


def install(tracer: Tracer):
    """Wrap the layer boundaries of the importable ``eann`` package."""
    # The package namespace rebinds ``convexify`` to the function of that
    # name, so the modules are taken from the import system.
    ann, avd, convexify, envelope = (importlib.import_module("eann." + m)
                                     for m in ("ann", "avd", "convexify", "envelope"))

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, *args, **kwargs)
            return wrapper
        return make

    # avd: tree descent, bulk expansion and the tree codec.
    patch(avd.AvdTree, "locate", span("avd.locate"))
    patch(avd.AvdTree, "materialize", span("avd.materialize"))
    patch(avd.AvdTree, "to_bytes", span("avd.to_bytes"))
    patch(avd.AvdTree, "from_bytes", lambda orig: classmethod(
        lambda cls, *a, **k: tracer.call("avd.from_bytes", orig.__func__, cls, *a, **k)))

    # ann: tree construction (also re-run inside load_index), per-leaf
    # envelope builds, brute-force fallback, inner-cluster patches.
    patch(ann, "build_avd", span("ann.build_avd"))
    patch(ann, "build_relative", span("envelope.build_relative"))
    patch(ann, "brute_force", span("ann.brute_force"))
    patch(ann.InnerPatchSet, "query", span("envelope.patch_query"))

    # _batch as called from ann: candidate re-evaluation, or the full scan
    # when the caller is brute_force.
    def ann_batch_values(orig):
        def wrapper(fns, X):
            if not tracer.on:
                return orig(fns, X)
            name = "_batch.brute" if tracer.parent() == "ann.brute_force" else "_batch.reeval"
            tracer.count(name + ".cols", len(fns))
            return tracer.call(name, orig, fns, X)
        return wrapper

    patch(ann, "batch_values", ann_batch_values)

    # convexify: the prune screen of the per-leaf attachment build.
    def traced_normalize(orig):
        def wrapper(family, *args, **kwargs):
            nf = tracer.call("convexify.normalize", orig, family, *args, **kwargs)
            tracer.count("convexify.family_in", len(family))
            tracer.count("convexify.kept", nf.size)
            return nf
        return wrapper

    patch(envelope, "normalize", traced_normalize)
    patch(envelope, "convexify", span("convexify.convexify"))
    patch(convexify, "batch_value_bounds", span("convexify.value_bounds"))
    patch(convexify, "batch_values", span("_batch.envelope"))

    # envelope: lattice gather (which builds missing anchors) and witness
    # re-evaluation.
    def traced_gather(orig):
        def wrapper(env, q):
            if not tracer.on:
                return orig(env, q)
            before = len(env.anchors)
            ids = tracer.call("envelope.gather", orig, env, q)
            tracer.count("envelope.samples_built", len(env.anchors) - before)
            tracer.count("envelope.gather_ids", len(ids))
            return ids
        return wrapper

    patch(envelope.ConcaveEnvelope, "gather", traced_gather)
    patch(envelope.ConcaveEnvelope, "query_absolute", span("envelope.query_absolute"))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore
