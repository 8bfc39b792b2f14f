"""Spans around the public entry points of each tmb module.

The package binds names with `from .x import y`, so a call is traced by
replacing the name in the namespace of the module that makes the call
(`tmb.shooting.integrate_radial`, not `tmb.ode.integrate_radial`).  A name
a later version of the package no longer binds is skipped: its layer then
reports no calls.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (calling module, bound name, span name)
ENTRY_POINTS = (
    ("tmb.shooting", "integrate_radial", "ode.integrate_radial"),
    ("tmb.ode", "primitive_F", "nonlinearity.primitive_F"),
    ("tmb.nonlinearity", "adaptive_quadrature", "quadrature.adaptive_quadrature"),
    ("tmb.analysis", "adaptive_quadrature", "quadrature.adaptive_quadrature"),
    ("tmb.shooting", "lambda_of_s", "shooting.lambda_of_s"),
    ("tmb.shooting", "solve_unit_lambda", "shooting.solve_unit_lambda"),
    ("tmb.families", "nodal_solution", "shooting.nodal_solution"),
    ("tmb.families", "decompose", "analysis.decompose"),
    ("tmb.families", "energy_report", "analysis.energy_report"),
    ("tmb.families", "identity_residual", "analysis.identity_residual"),
    ("tmb.families", "boundary_flux", "analysis.boundary_flux"),
    ("tmb.families", "nehari_residual", "analysis.nehari_residual"),
    ("tmb.families", "rescale_profile", "bubbles.rescale_profile"),
    ("tmb.cli", "run_family", "families.run_family"),
    ("tmb.cli", "verify_formulas", "families.verify_formulas"),
    ("tmb.cli", "emit_csv", "cli.emit_csv"),
)


def _ode_attrs(args, kwargs, result):
    settings = kwargs.get("settings", args[3] if len(args) > 3 else None)
    rel_tol = getattr(settings, "rel_tol", None)
    return {"s": args[0], "rel_tol": rel_tol,
            "steps": len(result.steps) if result is not None else 0}


def _csv_attrs(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": path.stat().st_size if path.exists() else 0}


ATTRS = {"ode.integrate_radial": _ode_attrs, "cli.emit_csv": _csv_attrs}


class Tracer:
    """Records one span per traced call: name, start, end, parent, outcome."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, failed, attrs]
        self._stack = []

    def install(self):
        for module_name, attr, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self._wrap(getattr(module, attr), span_name))

    def _wrap(self, fn, name):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, False, None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if attrs_of is not None:
                    span[5] = attrs_of(args, kwargs, result)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
