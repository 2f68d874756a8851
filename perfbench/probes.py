"""Layer boundaries measured from outside the library.

Nothing here edits ``src/``: every measurement either wraps a public
function or method for the duration of one construction (and restores
it afterwards), or reads the round tables an ambient
``repro.obs.capture()`` session records.

:class:`LayerClock` keeps a frame stack over the wrapped calls, so each
boundary gets an inclusive time (the call's duration) and a self time
(the duration minus the wrapped calls nested inside it).  The
construction call itself is the root frame and belongs to no layer: its
self time is the wall time that no layer boundary covered
(``unattributed_s``).  Self times of all frames add up to the
construction's wall time exactly.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: Every wrapped boundary: (module, class or None, attribute, frame name).
#: Functions are patched in the module whose globals the caller resolves
#: them from (``stitched_walks`` is called by name inside
#: ``repro.hybrid.overlay``, ``prepare_network_inputs`` inside
#: ``repro.core.batch_protocol``); lazily imported entry points
#: (``run_soa_rooting``, ``run_soa_expander``, ``run_soa_synchroniser``,
#: ``well_formed_forest_columns``) are looked up at call time, so
#: patching their home module reaches every caller.
BOUNDARIES = (
    ("repro.core.batch_protocol", None, "run_soa_expander", "core.expander"),
    ("repro.core.batch_protocol", None, "prepare_network_inputs", "core.prepare"),
    ("repro.core.batch_protocol", "SoAExpanderClass", "__init__", "core.prepare"),
    ("repro.core.batch_protocol", "SoAExpanderClass", "on_round_soa", "core.expander_step"),
    ("repro.core.soa_rooting", None, "run_soa_rooting", "core.rooting"),
    ("repro.core.soa_rooting", "SoARootingClass", "on_round_soa", "core.rooting_step"),
    ("repro.core.pipeline", None, "build_well_formed_from_tree", "core.wellform"),
    ("repro.net.network", "SyncNetwork", "run_round", "net.round"),
    ("repro.scenarios.spec", "FaultInjector", "__call__", "scenarios.fault_hook"),
    ("repro.scenarios.soa_sync", None, "run_soa_synchroniser", "scenarios.sync"),
    ("repro.hybrid.soa_pipeline", None, "build_spanner_soa", "hybrid.spanner"),
    ("repro.hybrid.soa_pipeline", "SoASpannerClass", "on_round_soa", "hybrid.spanner_step"),
    ("repro.hybrid.soa_pipeline", None, "reduce_degree_soa", "hybrid.reduce"),
    ("repro.hybrid.soa_pipeline", None, "build_hybrid_overlay_soa", "hybrid.overlay"),
    ("repro.hybrid.soa_pipeline", None, "build_bfs_forest_soa", "hybrid.bfs"),
    ("repro.hybrid.components", None, "well_formed_forest_columns", "hybrid.wellform"),
    ("repro.hybrid.overlay", None, "stitched_walks", "hybrid.stitch"),
)

#: Calls whose arguments and results the output checks and the exact
#: counts need (network metrics, the populations' parent/depth columns,
#: the expander's accepted-token log): (module, class or None,
#: attribute, key).  Recorded on untraced runs too, at one wrapper call
#: per phase.
RECORDED = (
    ("repro.core.batch_protocol", None, "run_soa_expander", "expander"),
    ("repro.core.batch_protocol", "SoAExpanderClass", "__init__", "expander_class"),
    ("repro.core.soa_rooting", None, "run_soa_rooting", "rooting"),
    ("repro.scenarios.soa_sync", None, "run_soa_synchroniser", "sync"),
)


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls is not None else mod


@contextmanager
def patched(wrappers):
    """Install ``(owner, attribute, make_wrapper)`` replacements for the
    duration of the block; the originals are restored even on error."""
    saved = []
    try:
        for owner, attr, make in wrappers:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Recorder:
    """Keeps the ``(args, result)`` of every :data:`RECORDED` call of the
    current construction, by key (cleared by :meth:`reset`)."""

    def __init__(self) -> None:
        self.calls: dict[str, list] = {}

    def reset(self) -> None:
        self.calls = {}

    def wrappers(self):
        return [
            (_owner(module, cls), attr, self._make(key))
            for module, cls, attr, key in RECORDED
        ]

    def _make(self, key):
        def make(fn):
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls.setdefault(key, []).append((args, result))
                return result

            return recorded

        return make


class LayerClock:
    """Inclusive and self seconds per boundary name, over one traced
    construction (see the module docstring)."""

    ROOT = "unattributed"

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def wrappers(self):
        return [
            (_owner(module, cls), attr, self._make(name))
            for module, cls, attr, name in BOUNDARIES
        ]

    def _make(self, name):
        def make(fn):
            def timed(*args, **kwargs):
                return self.frame(name, fn, *args, **kwargs)

            return timed

        return make

    def frame(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a frame named ``name``."""
        children = [0.0]
        stack = self._stack
        stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            self.inclusive[name] = self.inclusive.get(name, 0.0) + seconds
            self.self_time[name] = self.self_time.get(name, 0.0) + seconds - children[0]
            if stack:
                stack[-1][0] += seconds

    def total(self, name: str) -> float:
        return self.inclusive.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def self_of_layer(self, layer: str) -> float:
        """Summed self time of every frame in one package (``"core"``)."""
        prefix = layer + "."
        return sum(s for name, s in self.self_time.items() if name.startswith(prefix))
