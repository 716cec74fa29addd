"""Span tracer that times calls into bohrad's layers from outside the library.

``Tracer.install`` replaces each wrapped function by a timing wrapper in every
``bohrad.*`` module namespace that holds it, so calls made through
``from .x import name`` aliases are caught as well as calls through the
defining module.  A wrapped name that does not exist at the current commit is
reported as absent.  Spans are kept in flat arrays and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

KERNELS = (
    "beta_phi_table",
    "alpha_phi_table",
    "beta_phi_scalar",
    "alpha_phi_scalar",
    "alpha_phi0",
    "bernardi_tail",
    "binomial_transform",
    "blaschke_series",
)

# layer -> (module, wrapped public functions); "kernels" is bohrad._kernels
LAYERS = {
    "cli": ("bohrad.cli", ("main",)),
    "harness": ("bohrad.harness", ("run_inequality_suite", "run_sharpness_suite")),
    "bohr": ("bohrad.bohr", ("verify_up_to_radius", "bohr_sum", "extremal_margin")),
    "series": (
        "bohrad.series",
        ("coefficients_of", "blaschke_coefficients", "affine_compose", "coefficient_cap", "extremal_coefficients"),
    ),
    "radius": ("bohrad.radius", ("minimal_root", "gap", "sharpness_window_check")),
    "weights": ("bohrad.weights", ("phi0", "tail_sum", "phi_vector", "phi_k", "phi_tail_mass")),
    "operators": ("bohrad.operators", ("operator_bohr_radius", "apply_coefficient_form", "operator_bound")),
    "kernels": ("bohrad._kernels", KERNELS),
}

# private lru caches read for hit ratios only when present
CACHES = {
    "bohr.phi_matrix_hit_ratio": ("bohrad.bohr", "_phi_matrix"),
    "weights.phi_vector_hit_ratio": ("bohrad.weights", "_phi_vector_cached"),
}


def _argument(sig: inspect.Signature, name: str, args: tuple, kwargs: dict):
    """The value a call passes for parameter name, its default included."""
    if name in kwargs:
        return kwargs[name]
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_hooks(fn_key: str, fn):
    """Counter update made from a call's arguments and result, or None."""
    if fn_key == "series.coefficients_of":

        def terms(c, args, kwargs, result):
            c["series.terms"] += len(result)

        return terms
    if fn_key == "series.blaschke_coefficients":
        sig = inspect.signature(fn)

        def zeros(c, args, kwargs, result):
            c["series.blaschke_zeros"] += len(args[0] if args else _argument(sig, "zeros", args, kwargs))

        return zeros
    if fn_key == "bohr.verify_up_to_radius":
        sig = inspect.signature(fn)

        def flops(c, args, kwargs, result):
            # computed, not counted: a grid_points x (order+1) matrix-vector
            # product costs one multiply and one add per entry
            c["bohr.matvec_flops"] += 2 * len(result.radii) * (int(_argument(sig, "order", args, kwargs)) + 1)

        return flops
    if fn_key == "radius.minimal_root":

        def evaluations(c, args, kwargs, result):
            c["radius.evaluations"] += result.evaluations

        return evaluations
    if fn_key == "radius.gap":

        def points(c, args, kwargs, result):
            c["radius.gap_points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))

        return points
    if fn_key in ("harness.run_inequality_suite", "harness.run_sharpness_suite"):

        def cells(c, args, kwargs, result):
            c["harness.cells"] += len(result.cells)

        return cells
    return None


def _bohrad_namespaces():
    return [
        vars(mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bohrad" or name.startswith("bohrad."))
    ]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, request."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self.request = 0
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list = []
        self._cache_base: dict = {}

    def install(self) -> None:
        for layer, (modname, names) in LAYERS.items():
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                self.absent += [f"{layer}.{n}" for n in names]
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._rebind(fn, self._wrap(f"{layer}.{name}", fn))
        for key in CACHES:
            info = self._cache_info(key)
            if info is not None:
                self._cache_base[key] = info

    def _rebind(self, fn, traced) -> None:
        for namespace in _bohrad_namespaces():
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = traced
                    self._restore.append((namespace, attr, fn))

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._restore):
            namespace[attr] = fn
        self._restore.clear()

    def _wrap(self, key: str, fn):
        nid = len(self.names)
        self.names.append(key)
        hook = _count_hooks(key, fn)
        name_id, start, end, parent, request_id = self.name_id, self.start, self.end, self.parent, self.request_id
        stack, raised, counters, clock = self._stack, self.raised, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request_id.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[(key, type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _cache_info(key):
        modname, attr = CACHES[key]
        info = getattr(sys.modules.get(modname), attr, None)
        return info.cache_info() if hasattr(info, "cache_info") else None

    def layer_metrics(self) -> dict:
        """Per-layer counts, inclusive times per function and self time per layer."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        par = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        inclusive = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=self_time, minlength=n)
        by_name = {name: (int(calls[i]), float(inclusive[i]), float(own[i])) for i, name in enumerate(self.names)}

        def calls_of(key):
            return by_name.get(key, (0, 0.0, 0.0))[0]

        def time_of(key):
            return by_name.get(key, (0, 0.0, 0.0))[1]

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, (_, _, own_s) in by_name.items():
            out[f"{name.split('.')[0]}.self_s"] += own_s
        c = self.counters
        out.update(
            {
                "series.coeff_calls": calls_of("series.coefficients_of"),
                "series.coeff_s": time_of("series.coefficients_of"),
                "series.terms": c["series.terms"],
                "series.blaschke_s": time_of("series.blaschke_coefficients"),
                "series.blaschke_zeros": c["series.blaschke_zeros"],
                "series.compose_s": time_of("series.affine_compose"),
                "series.cap_s": time_of("series.coefficient_cap"),
                "series.extremal_s": time_of("series.extremal_coefficients"),
                "bohr.verify_calls": calls_of("bohr.verify_up_to_radius"),
                "bohr.verify_self_s": by_name.get("bohr.verify_up_to_radius", (0, 0.0, 0.0))[2],
                "bohr.matvec_flops": c["bohr.matvec_flops"],
                "radius.roots": calls_of("radius.minimal_root") - self.raised_by("radius.minimal_root"),
                "radius.root_s": time_of("radius.minimal_root"),
                "radius.evaluations": c["radius.evaluations"],
                "radius.gap_calls": calls_of("radius.gap"),
                "radius.gap_points": c["radius.gap_points"],
                "radius.no_root": self.raised[("radius.minimal_root", "NoRootError")],
                "radius.failed": self.raised_by("radius.minimal_root", exclude="NoRootError"),
                "weights.phi0_s": time_of("weights.phi0"),
                "weights.tail_s": time_of("weights.tail_sum"),
                "weights.phi_vector_calls": calls_of("weights.phi_vector"),
                "weights.phi_vector_s": time_of("weights.phi_vector"),
                "operators.radius_s": time_of("operators.operator_bohr_radius"),
                "operators.apply_s": time_of("operators.apply_coefficient_form"),
                "harness.cells": c["harness.cells"],
                "cli.main_self_s": by_name.get("cli.main", (0, 0.0, 0.0))[2],
            }
        )
        for kernel in KERNELS:
            out[f"kernels.{kernel}_calls"] = calls_of(f"kernels.{kernel}")
            out[f"kernels.{kernel}_s"] = time_of(f"kernels.{kernel}")
        for key in CACHES:
            now, base = self._cache_info(key), self._cache_base.get(key)
            hits = misses = 0
            if now is not None and base is not None:
                hits, misses = now.hits - base.hits, now.misses - base.misses
            else:
                self.absent.append(key)
            out[key] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def raised_by(self, key: str, exclude: str | None = None) -> int:
        return sum(n for (k, exc), n in self.raised.items() if k == key and exc != exclude)

    def save(self, path: str) -> None:
        """Write every span: name id, start, end, parent span index, request id."""
        np.savez(
            path,
            workload=np.array(self.workload),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request_id, dtype=np.int32),
        )
