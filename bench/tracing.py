"""Wrappers for the traced run, installed at the names callers resolve.

``invariants`` imports ``represent`` and ``trace_product`` by name and
``uqsl2`` imports ``build_model`` by name, so those are wrapped in the
importing module; ``tensor`` looks ``spgemm`` up on the kernel module at
each call.  Every wrapper records calls, busy time and self time (busy
time minus the time of wrapped calls inside it).
"""

from __future__ import annotations

import time
from collections import defaultdict

from vertexlink import axioms, braid, invariants, models, ring, tensor, tlbracket, uqsl2
from vertexlink.tensor import SqMatrix


class Layer:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.counts: dict[str, float] = defaultdict(int)
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack: list[list[float]] = []  # [child time] per active call
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None):
        fn = getattr(owner, attr)
        layer = self.layers[name]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                stack.pop()
                layer.calls += 1
                layer.busy += dt
                layer.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(tracer, args, out, dt)
                if stack:
                    # counting is tracing overhead, not the caller's own work
                    stack[-1][0] += time.perf_counter() - t1
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self):
        w = self.wrap
        w(tensor.K, "spgemm", "kernel.spgemm")
        w(SqMatrix, "__matmul__", "tensor.matmul", after=_matmul_counts)
        w(invariants, "represent", "braid.represent", after=_represent_counts)
        w(braid, "letter_matrix", "braid.letter_matrix")
        w(invariants, "trace_product", "tensor.trace_product", after=_coeff_counts)
        w(invariants, "ambient_invariant", "invariants.ambient_invariant")
        w(ring, "exact_divide", "ring.exact_divide", after=_coeff_counts)
        w(models, "build_model", "models.build_model")
        w(uqsl2, "build_model", "models.build_model")
        w(models, "mirror_model", "models.mirror_model")
        w(invariants, "mirror_model", "models.mirror_model")
        w(axioms, "check_axioms", "axioms.check_axioms")
        w(axioms, "check_markov_conditions", "axioms.check_markov_conditions")
        w(axioms, "solve_twist", "axioms.solve_twist")
        w(invariants, "minpoly_check", "invariants.minpoly_check")
        w(tlbracket, "tl_relations_check", "tlbracket.tl_relations_check")
        w(models, "spectral_checks", "models.spectral_checks")
        w(uqsl2, "correspondence_report", "uqsl2.correspondence_report")

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        L = self.layers
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in ("kernel.spgemm", "tensor.matmul", "braid.represent",
                     "braid.letter_matrix", "tensor.trace_product", "ring.exact_divide"):
            out[f"{name}.calls"] = (L[name].calls, "count")
        for name in ("kernel.spgemm", "tensor.matmul", "braid.represent",
                     "braid.letter_matrix", "tensor.trace_product",
                     "invariants.ambient_invariant", "ring.exact_divide",
                     "models.build_model", "models.mirror_model",
                     "axioms.check_axioms", "axioms.check_markov_conditions",
                     "axioms.solve_twist", "invariants.minpoly_check",
                     "tlbracket.tl_relations_check", "models.spectral_checks",
                     "uqsl2.correspondence_report"):
            out[f"{name}.busy_s"] = (L[name].busy, "s")
        for name in ("tensor.matmul", "braid.represent", "invariants.ambient_invariant"):
            out[f"{name}.self_s"] = (L[name].self_time, "s")
        out["tensor.matmul.entry_products"] = (c["entry_products"], "count")
        out["tensor.matmul.out_nnz_max"] = (c["out_nnz_max"], "count")
        out["braid.represent.letters"] = (c["letters"], "count")
        for N in (2, 3, 4):
            out[f"braid.represent.n{N}.busy_s"] = (c[f"represent.n{N}"], "s")
        hits, misses = self.cache_hits, self.cache_misses
        out["invariants.regular_invariant.hits"] = (hits, "count")
        out["invariants.regular_invariant.misses"] = (misses, "count")
        out["invariants.regular_invariant.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["ring.coeff_terms_max"] = (c["coeff_terms_max"], "count")
        out["ring.coeff_bits_max"] = (c["coeff_bits_max"], "bit")
        return out


def _matmul_counts(tracer: Tracer, args, out, dt):
    a, b = args
    row_nnz: dict[int, int] = defaultdict(int)
    for r, _ in b.entries:
        row_nnz[r] += 1
    c = tracer.counts
    c["entry_products"] += sum(row_nnz.get(col, 0) for _, col in a.entries)
    c["out_nnz_max"] = max(c["out_nnz_max"], len(out.entries))


def _represent_counts(tracer: Tracer, args, out, dt):
    word, model = args
    tracer.counts["letters"] += len(word.letters)
    tracer.counts[f"represent.n{model.N}"] += dt


def _coeff_counts(tracer: Tracer, args, out, dt):
    c = tracer.counts
    for _, coeffs in (out.rat, out.rad):
        if coeffs:
            c["coeff_terms_max"] = max(c["coeff_terms_max"], len(coeffs))
            c["coeff_bits_max"] = max(c["coeff_bits_max"],
                                      max(abs(x).bit_length() for x in coeffs))
