"""Outside-in tracing of dissipctl's layers for the traced run.

``Tracer.install`` replaces, in each module's namespace, every public function
the module defines or imports from dissipctl, so a call is recorded under the
module that made it: ``stability:linalg.is_psd`` and
``scalability:linalg.is_psd`` are separate patches of the same function.  It
also wraps the numpy dense kernels ``eigvalsh``, ``eigh`` and ``svd``,
``BilinearSystem.residual``, and the right-hand side that
``lindblad._rhs_factory`` returns.  Each call becomes a
span ``(name, start, end, parent)`` kept in memory; ``uninstall`` restores
every original.

Which CLI-level time each per-layer metric should move (``setup_s``,
``wall_s`` or a subcommand time such as ``scale_s``), and on which workload,
is listed next to its definition in ``per_layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("cli", "models", "linalg", "lindblad", "stability", "scalability",
          "synthesis", "serialize")

# Elementwise helpers, called so often that wrapping them too made the traced
# dynamics pass ~14% slower; their time stays in the caller's self time.
UNTRACED = frozenset({"as_operator", "dagger", "hermitian_part", "scaled_tol",
                      "vec", "unvec", "format_float"})

KERNELS = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"), ("numpy.linalg", "svd"))


def _eig_flops(name: str, args) -> float:
    """Real flops of a dense complex Hermitian eigensolve, by the LAPACK
    operation-count formulas (4x the real counts): 16/3 n^3 for the
    eigenvalues only, 36 n^3 with eigenvectors."""
    n = args[0].shape[-1]
    return (16.0 / 3.0 if name.endswith("eigvalsh") else 36.0) * n ** 3


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counters = {"eig_flop": 0.0, "samples": 0, "stability_constants": 0,
                         "scalability_constants": 0, "bilinear_converged": 0,
                         "bytes_out": 0}
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
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
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def _hook(self, func: str):
        """Counter update for the result of a call to ``owner.func``."""
        c = self.counters

        def add(key, amount):
            c[key] += amount

        if func in ("numpy.linalg.eigvalsh", "numpy.linalg.eigh"):
            return lambda args, r: add("eig_flop", _eig_flops(func, args))
        if func == "lindblad.evolve":
            return lambda args, r: add("samples", len(r.times))
        if func.startswith("stability.check_"):
            return lambda args, r: add("stability_constants", r is not None)
        if func in ("scalability.check_theorem_es_aggregation",
                    "scalability.check_theorem_ds_aggregation"):
            return lambda args, r: add("scalability_constants",
                                       sum(e.get("c") is not None for e in r.per_term))
        if func == "synthesis.solve_bilinear":
            return lambda args, r: add("bilinear_converged", r[0] is not None)
        if func in ("serialize.dumps_report", "serialize.trajectory_to_csv"):
            return lambda args, r: add("bytes_out", len(r.encode()))
        return None

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"dissipctl.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("dissipctl.")):
                    continue
                func = f"{obj.__module__.rsplit('.', 1)[1]}.{attr}"
                self._patch(module, attr, f"{layer}:{func}", self._hook(func))
        for module_name, attr in KERNELS:
            module = importlib.import_module(module_name)
            name = f"{module_name}.{attr}"
            self._patch(module, attr, name, self._hook(name))
        synthesis = importlib.import_module("dissipctl.synthesis")
        self._patch(synthesis.BilinearSystem, "residual", "synthesis.BilinearSystem.residual")
        lindblad = importlib.import_module("dissipctl.lindblad")
        factory = lindblad._rhs_factory
        self._patches.append((lindblad, "_rhs_factory", factory))
        lindblad._rhs_factory = lambda model: self.wrap("lindblad.rhs", factory(model))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def _func(name: str) -> str:
    """``caller:owner.func`` -> ``owner.func``; kernels and hooks unchanged."""
    return name.split(":", 1)[-1]


def _caller(name: str) -> str:
    return name.split(":", 1)[0] if ":" in name else ""


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass as ``{name: (value, unit)}``.

    ``trace.overhead_ratio`` needs an untraced pass and is added by the caller.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    c = tracer.counters

    def calls(pred) -> int:
        return sum(1 for s in spans if pred(s[0]))

    def outermost(pred) -> tuple[int, float]:
        """Count and time of matching spans not nested in another match."""
        inside = [False] * len(spans)
        count, total = 0, 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            above = parent >= 0 and inside[parent]
            hit = pred(name)
            inside[i] = above or hit
            if hit and not above:
                count += 1
                total += end - start
        return count, total

    def inclusive(pred) -> float:
        return outermost(pred)[1]

    def self_time(pred) -> float:
        return sum((t for s, t in zip(spans, selfs) if pred(s[0])), 0.0)

    def is_(*funcs):
        names = set(funcs)
        return lambda name: _func(name) in names

    def from_(caller, *funcs):
        names = set(funcs)
        return lambda name: _caller(name) == caller and _func(name) in names

    def ratio(a, b):
        return a / b if b else 0.0

    eig = is_("numpy.linalg.eigvalsh", "numpy.linalg.eigh")
    gen = is_("lindblad.generator", "lindblad.generator_single_channel")
    diss = is_("lindblad.dissipation_functional", "lindblad.dissipation_single_channel")
    search = is_("stability.check_condition_es", "stability.check_condition_ds",
                 "stability.check_dissipation_square")
    def emit(name):
        func = _func(name)
        return func.startswith("serialize.") and (
            func.endswith(("_to_json", "_to_dict", "_to_csv"))
            or func in ("serialize.dumps_report", "serialize.write_text_atomic"))

    def parse(name):
        func = _func(name)
        return func.startswith("serialize.") and func.endswith("_from_json")

    rhs_calls = calls(is_("lindblad.rhs"))
    stability_psd = calls(from_("stability", "linalg.is_psd"))
    scalability_psd = calls(from_("scalability", "linalg.is_psd"))
    bilinear_calls = calls(is_("synthesis.solve_bilinear"))

    return {
        # models -> setup_s on certify; no move on synthesis
        "models.build_s": (inclusive(is_("models.build")), "s"),
        "linalg.pauli_string_calls": (calls(is_("linalg.pauli_string")), "count"),
        "linalg.pauli_string_s": (inclusive(is_("linalg.pauli_string")), "s"),
        "linalg.embed_calls": (calls(is_("linalg.embed")), "count"),
        "linalg.embed_s": (inclusive(is_("linalg.embed")), "s"),
        # dense eigensolves -> scale_s and check_s on certify
        "linalg.eig_calls": (calls(eig), "count"),
        "linalg.eig_s": (inclusive(eig), "s"),
        "linalg.eig_flop_computed": (c["eig_flop"], "flop"),
        # svd -> synthesize_s on synthesis
        "linalg.svd_calls": (calls(is_("numpy.linalg.svd")), "count"),
        "linalg.svd_s": (inclusive(is_("numpy.linalg.svd")), "s"),
        # checks -> scale_s on certify, check_s on dynamics
        "linalg.psd_checks": (calls(is_("linalg.is_psd")), "count"),
        "linalg.psd_s": (inclusive(is_("linalg.is_psd")), "s"),
        "linalg.hermitian_checks": (calls(is_("linalg.is_hermitian")), "count"),
        "linalg.hermitian_s": (inclusive(is_("linalg.is_hermitian")), "s"),
        # generator and dissipation assembly -> check_s and scale_s on certify
        "lindblad.generator_calls": (outermost(gen)[0], "count"),
        "lindblad.generator_s": (inclusive(gen), "s"),
        "lindblad.dissipation_calls": (outermost(diss)[0], "count"),
        "lindblad.dissipation_s": (inclusive(diss), "s"),
        # RK45 -> check_s and simulate_s on dynamics
        "lindblad.evolve_calls": (calls(is_("lindblad.evolve")), "count"),
        "lindblad.evolve_s": (self_time(is_("lindblad.evolve")), "s"),
        "lindblad.rhs_calls": (rhs_calls, "count"),
        "lindblad.rhs_s": (inclusive(is_("lindblad.rhs")), "s"),
        "lindblad.rhs_per_sample": (ratio(rhs_calls, c["samples"]), "ratio"),
        # constant search -> check_s on certify; no move on dynamics
        "stability.constant_search_s": (inclusive(search), "s"),
        "stability.psd_checks": (stability_psd, "count"),
        "stability.psd_checks_per_constant": (
            ratio(stability_psd, c["stability_constants"]), "ratio"),
        # aggregation theorems -> scale_s on certify
        "scalability.theorem_s": (
            self_time(lambda name: _func(name).startswith("scalability.")), "s"),
        "scalability.psd_checks": (scalability_psd, "count"),
        "scalability.psd_checks_per_constant": (
            ratio(scalability_psd, c["scalability_constants"]), "ratio"),
        "scalability.generator_calls": (
            calls(from_("scalability", "lindblad.generator",
                        "lindblad.generator_single_channel")), "count"),
        # bilinear solver -> synthesize_s on synthesis
        "synthesis.solve_bilinear_calls": (bilinear_calls, "count"),
        "synthesis.solve_bilinear_s": (self_time(is_("synthesis.solve_bilinear")), "s"),
        "synthesis.bilinear_iters": (calls(is_("synthesis.BilinearSystem.residual")), "count"),
        "synthesis.bilinear_converged_ratio": (
            ratio(c["bilinear_converged"], bilinear_calls), "ratio"),
        # output -> simulate_s on dynamics; input parsing -> setup_s on synthesis
        "serialize.emit_s": (inclusive(emit), "s"),
        "serialize.bytes_out": (c["bytes_out"], "bytes"),
        "serialize.parse_s": (inclusive(parse), "s"),
        # whole CLI calls -> every end-to-end time
        "cli.main_s": (inclusive(is_("cli.main")), "s"),
    }


# Counts that must repeat exactly between two traced passes of the same jobs.
REPEATABLE = ("linalg.eig_calls", "stability.psd_checks", "lindblad.rhs_calls",
              "synthesis.bilinear_iters", "linalg.svd_calls")
