"""Spans around flowspec's public functions, recorded from outside the package.

``instrument(tracer)`` swaps each traced function, in the namespace of the
module that calls it, for a wrapper that opens a span; leaving the context
restores the originals.  Spans are kept in memory.

With ``memory=True`` the tracer also folds the ``tracemalloc`` peak into every
open span at each span boundary and resets it, so each span gets the peak it
reached above the memory it started with and the memory it still held at
its end.  Timing and memory passes are kept apart: tracemalloc slows the
traced code.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

MB = 1e6

# (calling module, function name) -> span name.  A function is patched where
# it is looked up, so calls from a module not listed here are not spans.
TRACED: Dict[Tuple[str, str], str] = {
    ("reporting", "build_model"): "models.build_model",
    ("reporting", "assemble_hamiltonian"): "hamiltonian.assemble",
    ("morse", "assemble_hamiltonian"): "hamiltonian.assemble",
    ("reporting", "full_spectrum"): "spectral.full_spectrum",
    ("reporting", "classify_phase"): "spectral.classify_phase",
    ("reporting", "witten_index"): "spectral.witten_index",
    ("reporting", "zero_mode_counts"): "spectral.zero_mode_counts",
    ("reporting", "export_spectrum_csv"): "spectral.export_csv",
    ("reporting", "oracle_spectrum_residual"): "models.oracle_residual",
    ("reporting", "find_critical_points"): "morse.find_critical_points",
    ("reporting", "poincare_hopf_sum"): "morse.poincare_hopf_sum",
    ("reporting", "instanton_splitting_scan"): "morse.splitting_scan",
    ("reporting", "sweep_epsilon"): "reporting.sweep_epsilon",
    ("reporting", "simulate_sde"): "trajectories.simulate_sde",
    ("reporting", "stationary_histogram"): "trajectories.stationary_histogram",
    ("reporting", "tv_distance_to_density"): "trajectories.tv_distance",
    ("reporting", "autocorrelation_decay"): "trajectories.autocorrelation_decay",
    ("reporting", "canonical_json"): "reporting.canonical_json",
}


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    mem_start: int = 0
    mem_peak: int = 0
    mem_end: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return (self.mem_peak - self.mem_start) / MB

    @property
    def held_mb(self) -> float:
        return (self.mem_end - self.mem_start) / MB


@dataclass
class Tracer:
    memory: bool = False
    spans: List[Span] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
        tracemalloc.reset_peak()
        return current

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        current = self._fold_peak() if self.memory else 0
        sp = Span(name, parent, time.perf_counter(), mem_start=current, mem_peak=current)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.memory:
                sp.mem_end = self._fold_peak()
            self._open.pop()

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Summed seconds of the spans called ``name`` (whose parent is ``under``)."""
        return sum(s.seconds for s in self.spans
                   if s.name == name and (under is None or self._parent_name(s) == under))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def first(self, name: str) -> Optional[Span]:
        return next((s for s in self.spans if s.name == name), None)

    def coverage(self, root: Span) -> float:
        """Share of ``root`` covered by its direct child spans."""
        idx = next(i for i, s in enumerate(self.spans) if s is root)
        covered = sum(s.seconds for s in self.spans if s.parent == idx)
        return covered / root.seconds

    def _parent_name(self, s: Span) -> Optional[str]:
        return None if s.parent is None else self.spans[s.parent].name


def _traced(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the calls listed in ``TRACED`` through ``tracer`` while open."""
    import importlib

    saved = []
    try:
        for (module_name, attr), span_name in TRACED.items():
            module = importlib.import_module(f"flowspec.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(original, span_name, tracer))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
