"""Spans around calls into bellgate's modules, installed from outside ``src/``.

The benchmark does not edit the program. Instead it replaces module
attributes (``fock.squeezer``, ``scipy.linalg.expm``, ...) with wrappers that
record a span per call. bellgate calls its own functions through module
globals or module attributes, so the wrappers also see the calls one layer
makes into another. ``Tracer.restore`` puts every original back.

A span is ``(name, start, end, parent)``; a layer's self time is the sum of
its spans' durations minus the time covered by their child spans. Layers
that are called tens of thousands of times per operation and are cheap
(``qudit.bell_vector``) are counted, not timed, so their cost stays with the
caller and the wrappers do not distort it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

# Span name -> functions of ``bellgate.fock`` that belong to it. The mixing
# sector builder is timed as the beam splitter because both the 50-50 splitter
# and the chain's mode mixer are built by it.
FOCK_SPANS = {
    "fock.chain": ("sum_gate_circuit",),
    "fock.sum_gate": ("sum_gate",),
    "fock.opa": ("opa",),
    "fock.unitarity_defect": ("unitarity_defect",),
    "fock.block_distance": ("phase_aligned_block_distance",),
    "fock.beam_splitter": ("_mixing_expm",),
    "fock.squeezer": ("squeezer",),
    "fock.displacement": ("displacement",),
    "fock.states": (
        "identity_doubleket", "displaced_identity_doubleket", "quad_eigenstate_approx",
    ),
    "fock.entbs": ("entbs_fidelity", "entbs_output"),
    "fock.heterodyne": ("heterodyne_eigen_residual",),
}
QUDIT_SPANS = {
    "qudit.make_gateset": ("make_gateset",),
    "qudit.bell_map": ("bell_map_max_error",),
    "qudit.v_from_bell": ("v_from_bell_basis",),
    "qudit.gram": ("orthonormality_max_error",),
}
CLI_SPANS = {"cli": ("run_qudit_verify", "run_cv_verify")}

# Every timed layer, in report order; ``reports.serialize`` is opened by the
# workload itself around the report round trip.
TIMED_LAYERS = (
    *QUDIT_SPANS, *FOCK_SPANS, "kernel.expm", "gaussian.exact", "reports.serialize", "cli",
)
COUNTED_CALLS = (
    "kernel.expm", "qudit.bell_vector", "fock.beam_splitter", "fock.unitarity_defect",
)
# tracemalloc runs only inside this span, so its cost stays out of the others
PEAK_SPAN = "fock.chain"


class Tracer:
    """Records spans and call counts; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter[tuple[int, str]] = Counter()
        self.peaks: dict[int, float] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, peak: bool = False):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if peak:
                _, peak_bytes = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peaks[self.op] = max(self.peaks.get(self.op, 0.0), peak_bytes / 2**20)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def patch(self, owner, attr: str, name: str, timed: bool = True) -> None:
        """Replace ``owner.attr`` with a wrapper that counts and, if timed, spans it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[(self.op, name)] += 1
            if not timed:
                return original(*args, **kwargs)
            with self.span(name, peak=name == PEAK_SPAN):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every bellgate layer."""
        import scipy.linalg

        from bellgate import cli, fock, gaussian, qudit

        for module, table in ((fock, FOCK_SPANS), (qudit, QUDIT_SPANS), (cli, CLI_SPANS)):
            for name, attrs in table.items():
                for attr in attrs:
                    self.patch(module, attr, name)
        self.patch(qudit, "bell_vector", "qudit.bell_vector", timed=False)
        for attr, obj in vars(gaussian).copy().items():
            if (inspect.isfunction(obj) and obj.__module__ == gaussian.__name__
                    and not attr.startswith("_")):
                self.patch(gaussian, attr, "gaussian.exact")
        self.patch(scipy.linalg, "expm", "kernel.expm")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation, per span name: total duration minus child-span time."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op in self.spans:
            out[op][name] += end - start
            if parent is not None:
                parent_name = self.spans[parent][0]
                out[op][parent_name] -= end - start
        return out

    def calls(self, op: int, name: str) -> int:
        return self.counts[(op, name)]
