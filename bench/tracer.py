"""Spans around troplin's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in its own
module, in every troplin module that bound it with ``from ... import``
and in the ``troplin`` namespace, so calls between layers are caught as
well as the benchmark's own calls.  ``uninstall`` puts the originals
back.  Spans are kept in memory: (function, parent span, job, start,
end) in nanoseconds.  Self time is a span's duration minus the time
covered by its child spans.  Small per-number helpers (``as_fraction``,
``vector``, ``matrix``, ``frac_str``, ...) are not traced; their time
counts as self time of the traced function that called them.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter_ns

LAYERS = ("linalg", "manifold", "curve", "embedded", "pairing", "klein", "io", "cli")

# Traced names per layer; "Class.method" names patch the class attribute.
TRACED = {
    "linalg": ["det", "is_unimodular", "rref", "rank", "hermite_normal_form", "kernel_basis",
               "annihilator_basis", "solve_rational", "in_integer_span", "primitive_part"],
    "manifold": ["DeckElement.__post_init__", "DeckElement.apply", "DeckElement.compose",
                 "DeckElement.inverse", "DeckElement.power", "identity_deck", "translation_deck",
                 "AffineQuotientManifold.deck_from_word", "make_euclidean", "make_torus",
                 "make_klein", "extend_deck", "product_with_line", "TropicalForm.evaluate",
                 "TropicalForm.pullback", "TropicalForm.is_invariant", "invariant_forms",
                 "albanese_data", "reduce_point", "contains_deck", "require_invariant"],
    "curve": ["abstract_curve", "validate_abstract", "require_valid", "boundary_matrix",
              "relative_h1_basis", "vertex_equation_matrix", "satisfies_vertex_equations",
              "locally_constant_forms", "eta"],
    "embedded": ["parametrized_curve", "validate_parametrized", "require_valid_parametrized",
                 "deformation_constraints", "deformation_basis", "is_deformation",
                 "is_horizontal_at_infinity", "zero_cycle", "evaluate_at_infinity",
                 "boundary_zero_cycle"],
    "pairing": ["wedge_with_last", "phi_contract", "end_evaluation", "isotropy_check",
                "roitman_bound_check", "infinity_restriction", "GradedSpace.evaluate"],
    "klein": ["iota", "section_point", "circle_embedding", "fiber_circle", "fiber_position",
              "FiberCircle.point_at", "circle_jacobian_class", "principal_function",
              "modification_curve", "albanese_class", "chow_equivalent", "witness_two_torsion",
              "witness_fiber_relation"],
    "io": ["load_json", "dump_json", "parse_deck", "parse_manifold", "parse_abstract_curve",
           "parse_parametrized_curve", "parse_form", "parse_cycle", "parse_graded_space",
           "deck_json", "manifold_json", "abstract_curve_json", "parametrized_curve_json",
           "form_json", "cycle_json", "graded_space_json"],
    "cli": ["run"],
}

DECK = {"DeckElement.__post_init__", "DeckElement.compose", "DeckElement.inverse",
        "DeckElement.power", "AffineQuotientManifold.deck_from_word", "identity_deck",
        "translation_deck"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "<layer>.<name>" per traced function
        self.spans: list = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.rref_cells = 0
        self.validated: Counter = Counter()  # id(curve) -> validations, this round
        self._alive: list = []  # keeps validated curves alive so ids stay distinct
        self.curves = 0  # distinct validated curves, summed over finished rounds
        self.job = -1
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()
        self._patches: list = []
        self._wrappers: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: int, fn):
        tracer = self
        name = self.names[key]
        counts_cells = name == "linalg.rref"
        counts_curves = name == "embedded.validate_parametrized"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if counts_cells:
                rows, cols = args[0].shape
                tracer.rref_cells += rows * cols
            if counts_curves:
                tracer.validated[id(args[0])] += 1
                tracer._alive.append(args[0])
            if stack:
                parent = stack[-1]
            elif stack is tracer._main or not tracer._main:
                parent = None
            else:  # a worker thread started by a traced call on the main thread
                parent = tracer._main[-1]
            frame = [len(tracer.spans), 0]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[key] += duration - frame[1]
                tracer.calls[key] += 1
                if parent is not None:
                    with tracer._lock:
                        parent[1] += duration
                tracer.spans[frame[0]] = (key, parent[0] if parent else -1, tracer.job,
                                          start, end)

        return wrapper

    def install(self) -> None:
        import troplin

        modules = [troplin] + [importlib.import_module(f"troplin.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"troplin.{layer}")
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                original = owner.__dict__[attr] if owner is not module else getattr(module, attr)
                wrapper = self._wrappers.get((layer, name))
                if wrapper is None:
                    self.names.append(f"{layer}.{name}")
                    wrapper = self._wrappers[(layer, name)] = self._wrap(len(self.names) - 1,
                                                                          original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if owner is module:
                    for other in modules:
                        if other is not module and other.__dict__.get(attr) is original:
                            self._patches.append((other, attr, original))
                            setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_round(self) -> None:
        self.curves += len(self.validated)
        self.validated.clear()
        self._alive.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int, traced_round_ms: float) -> dict:
        """Per-round means of every per-layer metric."""
        by_name = {self.names[k]: v for k, v in self.self_ns.items()}
        calls = {self.names[k]: v for k, v in self.calls.items()}

        def ms(total_ns):
            return total_ns / 1e6 / rounds

        def self_ms(name):
            return ms(by_name.get(name, 0))

        out = {}
        layer_ms = defaultdict(float)
        for name, total in by_name.items():
            layer_ms[name.split(".")[0]] += ms(total)
        out["linalg.rref.calls"] = calls.get("linalg.rref", 0) / rounds
        out["linalg.rref.self_ms"] = self_ms("linalg.rref")
        out["linalg.rref.cells"] = self.rref_cells / rounds
        out["linalg.kernel_basis.self_ms"] = self_ms("linalg.kernel_basis")
        out["linalg.hermite_normal_form.self_ms"] = self_ms("linalg.hermite_normal_form")
        out["linalg.solve_rational.calls"] = calls.get("linalg.solve_rational", 0) / rounds
        out["linalg.det.calls"] = calls.get("linalg.det", 0) / rounds
        out["manifold.reduce_point.calls"] = calls.get("manifold.reduce_point", 0) / rounds
        out["manifold.reduce_point.self_ms"] = self_ms("manifold.reduce_point")
        out["manifold.deck.self_ms"] = sum(self_ms(f"manifold.{n}") for n in DECK)
        out["manifold.form_evaluate.calls"] = (
            calls.get("manifold.TropicalForm.evaluate", 0) / rounds
        )
        out["manifold.invariant_forms.self_ms"] = self_ms("manifold.invariant_forms")
        out["curve.validate_abstract.self_ms"] = self_ms("curve.validate_abstract")
        validations = calls.get("embedded.validate_parametrized", 0)
        out["embedded.validate_parametrized.calls"] = validations / rounds
        out["embedded.validate_parametrized.self_ms"] = self_ms("embedded.validate_parametrized")
        out["embedded.validations_per_curve"] = validations / self.curves if self.curves else 0.0
        out["embedded.deformation_basis.self_ms"] = self_ms("embedded.deformation_basis")
        out["embedded.deformation_constraints.calls"] = (
            calls.get("embedded.deformation_constraints", 0) / rounds
        )
        out["embedded.zero_cycle.self_ms"] = self_ms("embedded.zero_cycle")
        out["pairing.end_evaluation.calls"] = calls.get("pairing.end_evaluation", 0) / rounds
        out["pairing.end_evaluation.self_ms"] = self_ms("pairing.end_evaluation")
        out["pairing.roitman_bound_check.self_ms"] = self_ms("pairing.roitman_bound_check")
        for name in ("modification_curve", "principal_function", "fiber_position",
                     "chow_equivalent"):
            out[f"klein.{name}.self_ms"] = self_ms(f"klein.{name}")
        out["io.parse.self_ms"] = sum(
            v for n, v in ((n, self_ms(n)) for n in by_name)
            if n.startswith("io.parse_") or n == "io.load_json"
        )
        out["io.dump.self_ms"] = sum(
            v for n, v in ((n, self_ms(n)) for n in by_name)
            if n.startswith("io.") and (n.endswith("_json") and n != "io.load_json")
        )
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_ms[layer]
        out["trace.round_ms"] = traced_round_ms
        out["trace.harness_ms"] = traced_round_ms - sum(layer_ms[layer] for layer in LAYERS)
        return out

    def dump(self, path) -> None:
        """Write the names table and every span as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "job", "start_ns",
                                                       "end_ns"],
                       "spans": [s for s in self.spans if s is not None]}, fh,
                      separators=(",", ":"))
