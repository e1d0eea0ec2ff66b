"""Span tracing of cpoch's public functions, installed from outside the package.

``install`` wraps every public function of the layer modules and rebinds it
under each name any ``cpoch`` module holds it by, so a call made inside the
package (``rho -> E_series -> weighted_series_coeffs``) opens a child span
of its caller.  Spans live in flat arrays until ``dump`` writes them out;
nothing under ``src/`` is edited.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import replace

LAYERS = ("gammafns", "recip_gamma", "quadrature", "rho", "rtilde", "discrete")
ERRORS = ("", "ConvergenceError", "QuadratureError", "OverflowError", "other")


def _error_code(exc: BaseException) -> int:
    name = type(exc).__name__
    return ERRORS.index(name) if name in ERRORS else len(ERRORS) - 1


class Tracer:
    """Spans as parallel arrays: name, start, end, parent, arg, terms, error.

    ``arg`` and ``terms`` hold one number a layer metric needs, such as the
    branch of Q, the x of a coefficient table or the integrand evaluations
    of one quadrature; NaN elsewhere.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.arg = array("d")
        self.terms = array("d")
        self.error = array("b")
        self.stack: list[int] = []

    def clear(self) -> None:
        """Drop every recorded span; the wrappers stay installed."""
        for field in (self.name, self.start, self.end, self.parent, self.arg, self.terms,
                      self.error):
            del field[:]

    def wrap(self, fn, name: str, arg_of=None, terms_of=None):
        name_id = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        nan = math.nan

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.arg.append(arg_of(*args) if arg_of else nan)
            self.terms.append(nan)
            self.error.append(0)
            self.end.append(nan)
            self.stack.append(i)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.error[i] = _error_code(exc)
                raise
            finally:
                self.end[i] = perf()
                self.stack.pop()
            if terms_of is not None:
                self.terms[i] = terms_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counting_quadrature(self, fn):
        """integrate_adaptive with an integrand that counts its evaluations."""

        def call(request):
            evals = 0
            inner = request.integrand

            def integrand(t):
                nonlocal evals
                evals += 1
                return inner(t)

            try:
                return fn(replace(request, integrand=integrand))
            finally:
                self.terms[self.stack[-1]] = evals

        return call

    def dump(self, path: str) -> None:
        """Write one tab-separated line per span."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\targ\tterms\terror\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.arg[i]!r}\t{self.terms[i]!r}\t{self.error[i]}\n"
                )


def _q_branch(z, x, *_args, **_kwargs) -> float:
    return 1.0 if x <= z + 1.0 else 0.0  # 1: lower series, 0: continued fraction


def install() -> Tracer:
    """Wrap the public functions of every layer module of the loaded cpoch."""
    import cpoch  # noqa: F401  (loads every layer module)

    tracer = Tracer()
    special = {
        "gammafns.regularized_q": dict(arg_of=_q_branch, terms_of=lambda r: r.terms_used),
        "recip_gamma.weighted_series_coeffs": dict(arg_of=lambda x, *a, **k: x),
        "rho.E_series": dict(terms_of=lambda r: r.terms_used),
    }
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"cpoch.{layer}"]
        for public in module.__all__:
            fn = getattr(module, public)
            if isinstance(fn, type) or not callable(fn):
                continue
            name = f"{layer}.{public}"
            if name == "quadrature.integrate_adaptive":
                fn = tracer.counting_quadrature(fn)
            wrappers[id(getattr(module, public))] = tracer.wrap(fn, name, **special.get(name, {}))
    for module_name, module in list(sys.modules.items()):
        if module_name != "cpoch" and not module_name.startswith("cpoch."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def load(path: str) -> list[dict]:
    spans = []
    with open(path) as lines:
        next(lines)
        for line in lines:
            name, start, end, parent, arg, terms, error = line.rstrip("\n").split("\t")
            spans.append(dict(name=name, start=float(start), end=float(end), parent=int(parent),
                              arg=float(arg), terms=float(terms), error=ERRORS[int(error)]))
    return spans
