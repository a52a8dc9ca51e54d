"""Span recording around zetalike's public functions, from outside the library.

A :class:`Tracer` swaps each target function for a wrapper in every zetalike
module that bound the function by name (``from .eta import eta_symbolic``
style imports), so calls between layers are seen as well as calls from the
benchmark.  Each call becomes one span ``[name, start, end, parent, request,
info]`` kept in a list in memory; ``parent`` is the index of the span that was
open when the call began.  A layer's self time is its span time minus the
time covered by its child spans.

Generators (the composition enumerators) get one span per ``next()``, so
their time is charged where the consumer pulls a tuple.  Self-recursive
functions are left unpatched in their defining module, so the recursion does
not open a span per level.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, kind, info); info(args, kwargs, result) annotates a span
TARGETS = [
    ("cli", "run", "call", None),
    ("verify", "run_suite", "call", None),
    ("eta", "eta_symbolic", "call", None),
    ("eta", "partial_fraction_shifted", "call", None),
    ("eta", "eta_numeric", "call",
     lambda a, k, r: k.get("mode", a[1] if len(a) > 1 else "oracle")),
    ("harmonic", "harmonic", "call", None),
    ("harmonic", "bell_polynomial", "call", None),
    ("harmonic", "mzv_star_truncated", "call", None),
    ("compositions", "weak_compositions", "generator", None),
    ("compositions", "compositions", "generator", None),
    ("rho", "rho_exact", "call", None),
    ("rho", "suffix_balance_sum", "call", None),
    ("rho", "rho_series_partial_at", "call",
     lambda a, k, r: max(r) * len(getattr(a[0], "parts", a[0]))),
    ("numeric", "zeta_constant", "call", None),
    ("quadrature", "integrate_unit_square", "call", lambda a, k, r: r[2]),
]
# the enumerators call themselves through their module global
SELF_RECURSIVE = {"weak_compositions", "compositions"}


class Tracer:
    """Records spans while :meth:`patch` is in effect."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        # request -> probe scale factor of its timed call (see probe.py)
        self.scale: dict[int, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap_call(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return wrapper

    def _wrap_generator(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                rec[5] = 1  # one tuple yielded
                yield item

        return wrapper

    def patch(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "zetalike" or n.startswith("zetalike."))]
        for mod_name, attr, kind, info in TARGETS:
            home = sys.modules[f"zetalike.{mod_name}"]
            orig = getattr(home, attr)
            name = f"{mod_name}.{attr}"
            if kind == "generator":
                wrapper = self._wrap_generator(name, orig)
            else:
                wrapper = self._wrap_call(name, orig, info)
            for mod in modules:
                if mod is home and attr in SELF_RECURSIVE:
                    continue
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        zeta_expr = sys.modules["zetalike.eta"].ZetaExpr
        orig = zeta_expr.__dict__["numeric"]
        self._undo.append((zeta_expr, "numeric", orig))
        zeta_expr.numeric = self._wrap_call("eta.ZetaExpr.numeric", orig, None)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def summarize(spans: list[list], scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time ``s``, self time ``self_s`` (both
    multiplied by their request's probe scale factor) and the sum of the
    ``info`` annotations that are numbers."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "info": 0}
    )
    for i, (name, t0, t1, _parent, req, info) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += (t1 - t0) * scale[req]
        agg["self_s"] += (t1 - t0 - child[i]) * scale[req]
        if isinstance(info, (int, float)):
            agg["info"] += info
    return out


LAYER_UNITS = {
    "eta.partial_fraction_shifted.calls": "count",
    "eta.partial_fraction_shifted.self_s": "s",
    "eta.eta_symbolic.calls": "count",
    "eta.eta_symbolic.self_s": "s",
    "eta.eta_symbolic.hit_ratio": "ratio",
    "eta.eta_numeric.fast_calls": "count",
    "eta.eta_numeric.retries": "count",
    "eta.eta_numeric.oracle_s": "s",
    "harmonic.harmonic.calls": "count",
    "harmonic.harmonic.s": "s",
    "harmonic.bell_polynomial.s": "s",
    "harmonic.mzv_star_truncated.s": "s",
    "compositions.tuples": "count",
    "compositions.s": "s",
    "rho.rho_exact.calls": "count",
    "rho.rho_exact.s": "s",
    "rho.suffix_balance_sum.s": "s",
    "rho.rho_series_partial_at.s": "s",
    "rho.rho_series_partial_at.steps": "count",
    "numeric.zeta_constant.calls": "count",
    "numeric.zeta_constant.misses": "count",
    "numeric.zeta_constant.self_s": "s",
    "numeric.bernoulli_number.calls": "count",
    "numeric.bernoulli_number.misses": "count",
    "quadrature.integrate_unit_square.calls": "count",
    "quadrature.integrate_unit_square.s": "s",
    "quadrature.integrate_unit_square.level_mean": "level",
    "verify.run_suite.self_s": "s",
    "cli.run.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, cache_stats: dict[str, tuple[int, int]],
                  stdout_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  ``cache_stats`` maps a
    cached function's name to the (hits, misses) its ``cache_info()``
    reported over the pass."""
    spans, scale = tracer.spans, tracer.scale
    agg = summarize(spans, scale)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    # numeric() retries only count when eta_numeric (fast mode) is the caller
    fast_calls = sum(1 for rec in spans if rec[0] == "eta.eta_numeric" and rec[5] == "fast")
    numeric_in_fast = sum(
        1 for rec in spans
        if rec[0] == "eta.ZetaExpr.numeric" and rec[3] >= 0
        and spans[rec[3]][0] == "eta.eta_numeric"
    )
    oracle_s = sum((rec[2] - rec[1]) * scale[rec[4]] for rec in spans
                   if rec[0] == "eta.eta_numeric" and rec[5] == "oracle")
    sym_calls = get("eta.eta_symbolic", "calls")
    kernel_calls = get("eta.partial_fraction_shifted", "calls")
    quad_calls = get("quadrature.integrate_unit_square", "calls")
    z_hits, z_misses = cache_stats.get("numeric.zeta_constant", (0, 0))
    b_hits, b_misses = cache_stats.get("numeric.bernoulli_number", (0, 0))
    return {
        "eta.partial_fraction_shifted.calls": kernel_calls,
        "eta.partial_fraction_shifted.self_s": get("eta.partial_fraction_shifted", "self_s"),
        "eta.eta_symbolic.calls": sym_calls,
        "eta.eta_symbolic.self_s": get("eta.eta_symbolic", "self_s"),
        "eta.eta_symbolic.hit_ratio": 1 - kernel_calls / sym_calls if sym_calls else 0.0,
        "eta.eta_numeric.fast_calls": fast_calls,
        "eta.eta_numeric.retries": numeric_in_fast - fast_calls,
        "eta.eta_numeric.oracle_s": oracle_s,
        "harmonic.harmonic.calls": get("harmonic.harmonic", "calls"),
        "harmonic.harmonic.s": get("harmonic.harmonic", "s"),
        "harmonic.bell_polynomial.s": get("harmonic.bell_polynomial", "s"),
        "harmonic.mzv_star_truncated.s": get("harmonic.mzv_star_truncated", "s"),
        "compositions.tuples": (get("compositions.weak_compositions", "info")
                                + get("compositions.compositions", "info")),
        "compositions.s": (get("compositions.weak_compositions", "s")
                           + get("compositions.compositions", "s")),
        "rho.rho_exact.calls": get("rho.rho_exact", "calls"),
        "rho.rho_exact.s": get("rho.rho_exact", "s"),
        "rho.suffix_balance_sum.s": get("rho.suffix_balance_sum", "s"),
        "rho.rho_series_partial_at.s": get("rho.rho_series_partial_at", "s"),
        "rho.rho_series_partial_at.steps": get("rho.rho_series_partial_at", "info"),
        "numeric.zeta_constant.calls": get("numeric.zeta_constant", "calls"),
        "numeric.zeta_constant.misses": z_misses,
        "numeric.zeta_constant.self_s": get("numeric.zeta_constant", "self_s"),
        "numeric.bernoulli_number.calls": b_hits + b_misses,
        "numeric.bernoulli_number.misses": b_misses,
        "quadrature.integrate_unit_square.calls": quad_calls,
        "quadrature.integrate_unit_square.s": get("quadrature.integrate_unit_square", "s"),
        "quadrature.integrate_unit_square.level_mean": (
            get("quadrature.integrate_unit_square", "info") / quad_calls if quad_calls else 0.0
        ),
        "verify.run_suite.self_s": get("verify.run_suite", "self_s"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "cli.stdout_bytes": stdout_bytes,
    }


def top_self_layer(tracer: Tracer) -> tuple[str, float]:
    """The span name with the largest self time, and that self time."""
    agg = summarize(tracer.spans, tracer.scale)
    name = max(agg, key=lambda n: agg[n]["self_s"]) if agg else "none"
    return name, agg[name]["self_s"] if agg else 0.0
