"""Per-layer call tracing for lgsim, installed from outside the package.

``Tracer`` replaces each function listed in ``LAYERS`` with a wrapper that
records a span (name, parent span, start, end) and counts errors, then puts
every original back.  A function is patched in every ``lgsim`` module
namespace that holds it, under whatever name it was imported, so a call such
as ``lgsim.leggett_garg.run(...)`` made inside ``correlation_circuit`` is seen
as well as ``lgsim.circuit.run(...)``.  Calls bound before patching (a default
argument such as ``find_violations(k_fn=analytic_k)``) stay untraced.

Spans are held in memory for one operation at a time; ``drain`` folds them
into per-function totals (call counts, self time) and clears them, so memory
stays bounded on long runs.  A function missing from the package (removed by
a later change) is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

LAYERS = {
    "linalg": (
        "operator", "is_hermitian", "unitary", "density", "kron",
        "expm_hermitian", "eig_hermitian", "partial_trace", "trace_distance",
        "overlap_fidelity",
    ),
    "states": (
        "pure_state", "pure_density", "classical_mixture", "maximally_mixed",
        "pseudo_pure", "deviation", "gradient_dephase_prepare",
    ),
    "circuit": (
        "embed", "circuit_unitary", "run", "build_scattering_circuit",
        "expect_probe_z",
    ),
    "leggett_garg": (
        "dichotomic_observable", "observable_from_state",
        "heisenberg_observable", "correlation_oracle", "correlation_circuit",
        "k_value", "analytic_k", "sweep", "find_violations",
    ),
    "nmr": (
        "t2_dephase", "k_attenuation_check", "tomograph", "reconstruct",
        "tomography_fidelity_experiment",
    ),
    "cli": ("parse_config", "run_command", "emit_csv", "emit_json", "emit_svg"),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)

# The zero-time reference circuit: a build with both phases 0 repeats work
# whose result depends only on (state, epsilon, observable).
REFERENCE_BUILD = "circuit.build_scattering_circuit"


def _is_reference_build(args, kwargs) -> bool:
    phases = list(args[2:4])
    phases += [kwargs[k] for k in ("theta_k", "theta_m") if k in kwargs]
    return len(phases) == 2 and all(float(p) == 0.0 for p in phases)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of ``(name, parent, start, end)`` where
    ``parent`` is the index of the enclosing span or -1.  Children are
    clipped to their parent's interval and overlapping children are counted
    once (the union of their intervals), so the result never goes below 0.
    """
    by_parent: dict[int, list[tuple[int, int]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            by_parent.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(by_parent.get(index, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


class Tracer:
    """Wraps lgsim's public functions and totals calls, self time and errors."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_ns = dict.fromkeys(FUNCTIONS, 0)
        self.errors = dict.fromkeys(FUNCTIONS, 0)
        self.reference_builds = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function in every loaded ``lgsim`` module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module(f"lgsim.{layer}")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lgsim" or name.startswith("lgsim."))
        ]
        for qualname in FUNCTIONS:
            layer, fname = qualname.split(".")
            original = getattr(sys.modules[f"lgsim.{layer}"], fname, None)
            if original is None:
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self._names))
        if name_id == len(self._names):
            self._names.append(qualname)
        stack = self._stack
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        clock = time.perf_counter_ns
        is_reference = qualname == REFERENCE_BUILD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            if is_reference and _is_reference_build(args, kwargs):
                self.reference_builds += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[qualname] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    # -- reduction --------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int]]:
        """The spans recorded since the last ``drain``."""
        return [
            (self._names[n], p, s, e)
            for n, p, s, e in zip(
                self._span_name, self._span_parent,
                self._span_start, self._span_end,
            )
        ]

    def drain(self) -> None:
        """Fold the recorded spans into the totals and forget them."""
        if self._stack:
            raise RuntimeError("drain called inside a traced call")
        spans = self.spans()
        for (name, _, _, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_ns[name] += own
        for buf in (self._span_name, self._span_parent,
                    self._span_start, self._span_end):
            del buf[:]

    def totals(self) -> dict:
        """JSON-ready totals, to be summed across processes."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "errors": dict(self.errors),
            "reference_builds": self.reference_builds,
        }


def merge_totals(parts) -> dict:
    """Sum ``Tracer.totals()`` dicts from several processes."""
    merged = {
        "calls": dict.fromkeys(FUNCTIONS, 0),
        "self_ns": dict.fromkeys(FUNCTIONS, 0),
        "errors": dict.fromkeys(FUNCTIONS, 0),
        "reference_builds": 0,
    }
    for part in parts:
        for key in ("calls", "self_ns", "errors"):
            for name, value in part[key].items():
                merged[key][name] += value
        merged["reference_builds"] += part["reference_builds"]
    return merged


def layer_metrics(totals: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics ``name -> (value, unit)`` from merged totals."""
    ops = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for qualname in FUNCTIONS:
        out[f"{qualname}.calls"] = (totals["calls"][qualname] / ops, "count")
        out[f"{qualname}.self_ms"] = (totals["self_ns"][qualname] / 1e6 / ops, "ms")
    for layer, names in LAYERS.items():
        own = sum(totals["self_ns"][f"{layer}.{n}"] for n in names)
        errs = sum(totals["errors"][f"{layer}.{n}"] for n in names)
        out[f"{layer}.self_ms"] = (own / 1e6 / ops, "ms")
        out[f"{layer}.errors"] = (errs / ops, "count")
    builds = totals["calls"][REFERENCE_BUILD]
    out["circuit.reference_build_frac"] = (
        totals["reference_builds"] / builds if builds else 0.0, "frac",
    )
    return out
