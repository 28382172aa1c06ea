"""Outside-in layer tracing for maghardy.

Nothing in maghardy is edited.  Each traced function is replaced, for the
duration of a traced pass, at every module attribute it is looked up through
(for example `maghardy.verifiers._grids.integrate_polar`, the `verify_*`
names bound in `maghardy.cli`, and `numpy.polynomial.legendre.leggauss`).
A wrapper records a span: name, start, end, parent span and the suite entry
(case id) it ran for.  Spans stay in memory until `write` at the end.

`layer_metrics` turns the spans into the per-layer numbers: self time per
layer (a span's duration minus its children's), counts of rule builds,
integrals, nodes and function evaluations, and the density callbacks per
polar integral.  Every span belongs to exactly one layer, so the layer self
times add up to the traced pass time.
"""

from __future__ import annotations

import json
import sys
import time
import types
from contextlib import contextmanager

import numpy as np
import numpy.polynomial.legendre as np_legendre

# span record fields
NAME, START, END, PARENT, CASE, SIZE = range(6)

INTEGRALS = ("quadrature.polar_integral", "quadrature.rx_integral",
             "quadrature.integrate_radial")
RULE_SIZES = ("quadrature.log_radial_rule", "quadrature.phi_rule",
              "quadrature.y_box_rule")
VERIFIER_FAMILIES = ("grushin", "landau", "radial_p")


def _size(out):
    return int(np.size(out))


def _first_size(out):
    return int(np.size(out[0]))


def _last_size(out):
    return int(np.size(out[-1]))


class Tracer:
    """Span store plus the patch set; single-threaded by construction."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self._patches = []   # (owner, attribute, original)

    # --- span recording ------------------------------------------------------

    def wrap(self, name, fn, size=None, case_arg=None, density_arg=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            outer_case = self.case
            if case_arg is not None:
                self.case = args[case_arg]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            if density_arg is not None:
                args = list(args)
                args[density_arg] = self.wrap("verifiers.density", args[density_arg])
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[START], rec[END] = start, time.perf_counter()
                stack.pop()
                self.case = outer_case
            if size is not None:
                rec[SIZE] = size(out)
            return out

        return traced

    # --- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn, name, **kw):
        """Replace fn at every maghardy module attribute bound to it."""
        wrapped = self.wrap(name, fn, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "maghardy" or mod_name.startswith("maghardy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self):
        import maghardy.cli as cli
        import maghardy.fields as fields
        import maghardy.functions as functions
        import maghardy.geometry as geometry
        import maghardy.quadrature as quadrature
        import maghardy.reports as reports
        import maghardy.verifiers as verifiers
        import maghardy.verifiers._grids as grids

        self._patch_everywhere(cli.main, "cli.main")
        self._patch_everywhere(cli.run_suite, "cli.run_suite")
        self._patch_everywhere(cli._run_one, "cli.run_one", case_arg=1)

        for name in verifiers.__all__:
            fn = getattr(verifiers, name)
            if not isinstance(fn, types.FunctionType):
                continue
            family = fn.__module__.rsplit(".", 1)[-1]
            layer = "sharpness" if family == "sharpness" else f"verifiers.{family}"
            self._patch_everywhere(fn, f"{layer}:{name}")

        self._patch_everywhere(grids.polar_integral, "quadrature.polar_integral",
                               density_arg=0)
        self._patch_everywhere(grids.rx_integral, "quadrature.rx_integral",
                               density_arg=0)
        self._patch_everywhere(quadrature.integrate_radial,
                               "quadrature.integrate_radial", density_arg=0)
        self._patch_everywhere(quadrature.integrate_polar, "quadrature.integrate_polar")
        self._patch_everywhere(quadrature.log_radial_rule,
                               "quadrature.log_radial_rule", size=_first_size)
        self._patch_everywhere(quadrature.phi_rule, "quadrature.phi_rule",
                               size=_first_size)
        self._patch_everywhere(quadrature.y_box_rule, "quadrature.y_box_rule",
                               size=_last_size)
        self._patch_everywhere(quadrature.gauss_legendre, "quadrature.gauss_legendre")
        self._set(np_legendre, "leggauss",
                  self.wrap("numpy.leggauss", np_legendre.leggauss))

        tf = functions.TestFunction
        self._set(tf, "value_polar",
                  self.wrap("functions.value_polar", tf.value_polar, size=_size))
        self._set(tf, "partials_polar",
                  self.wrap("functions.partials_polar", tf.partials_polar,
                            size=_first_size))

        for name in dir(geometry):
            fn = getattr(geometry, name)
            if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                    and fn.__module__ == geometry.__name__):
                self._patch_everywhere(fn, f"geometry.{name}")

        rp = fields.RadialPotential
        self._set(rp, "__call__", self.wrap("fields.potential", rp.__call__))

        self._set(cli, "jsonable", self.wrap("reports.jsonable", cli.jsonable))
        shim = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                        if not k.startswith("__")})
        shim.dump = self.wrap("reports.json_dump", json.dump)
        self._set(cli, "json", shim)
        for cls in (reports.InequalityReport, reports.IdentityReport,
                    reports.SharpnessResult):
            self._set(cls, "to_dict", self.wrap("reports.to_dict", cls.to_dict))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, case id, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _layer(spans, i, memo):
    """Layer a span's self time belongs to; leggauss goes to its caller."""
    name = spans[i][NAME]
    if name != "numpy.leggauss":
        return name.split(":")[0].split(".")[0]
    if i not in memo:
        j = spans[i][PARENT]
        while j >= 0 and _layer(spans, j, memo) not in ("quadrature", "sharpness"):
            j = spans[j][PARENT]
        memo[i] = "numpy" if j < 0 else _layer(spans, j, memo) + ".rule"
    return memo[i]


def layer_metrics(spans, n_passes: int) -> dict:
    """Per-pass layer metrics from the spans of n_passes traced passes."""
    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_time = [rec[END] - rec[START] - child_time[i] for i, rec in enumerate(spans)]

    memo = {}
    by_layer = {}
    counts = {}
    totals = {}
    root_s = 0.0
    integral_of = {}   # integral span index -> {rule name: size}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        layer = _layer(spans, i, memo)
        by_layer[layer] = by_layer.get(layer, 0.0) + self_time[i]
        counts[name] = counts.get(name, 0) + 1
        totals[name] = totals.get(name, 0) + rec[SIZE]
        if rec[PARENT] < 0:
            root_s += rec[END] - rec[START]
        if name.startswith("numpy.leggauss"):
            counts[layer + "_builds"] = counts.get(layer + "_builds", 0) + 1
        if name in RULE_SIZES:
            j = rec[PARENT]
            while j >= 0 and spans[j][NAME] not in INTEGRALS:
                j = spans[j][PARENT]
            if j >= 0:
                integral_of.setdefault(j, {})[name] = rec[SIZE]

    def per_pass(x):
        return x / n_passes

    def inclusive(prefix):
        return sum(rec[END] - rec[START] for rec in spans
                   if rec[NAME].startswith(prefix)
                   and not any(spans[p][NAME].startswith(prefix)
                               for p in _ancestors(spans, rec)))

    nodes = 0
    for sizes in integral_of.values():
        nodes += int(np.prod([sizes[r] for r in RULE_SIZES if r in sizes]))
    integrals = sum(counts.get(name, 0) for name in INTEGRALS)
    polar = counts.get("quadrature.integrate_polar", 0)
    slices = sum(1 for rec in spans if rec[NAME] == "verifiers.density"
                 and rec[PARENT] >= 0
                 and spans[rec[PARENT]][NAME] == "quadrature.integrate_polar")
    cases = sum(v for k, v in counts.items() if k.startswith("verifiers."))
    cases -= counts.get("verifiers.density", 0)
    evals = counts.get("functions.value_polar", 0) + counts.get("functions.partials_polar", 0)
    points = totals.get("functions.value_polar", 0) + totals.get("functions.partials_polar", 0)
    eval_points_ratio = points / nodes if nodes else 0.0
    reduce_self = sum(self_time[i] for i, rec in enumerate(spans)
                      if rec[NAME] in INTEGRALS or rec[NAME] == "quadrature.integrate_polar")
    density_self = sum(self_time[i] for i, rec in enumerate(spans)
                       if rec[NAME] == "verifiers.density")
    layer_sum = sum(by_layer.values())

    return {
        "quadrature.rule_requests": per_pass(counts.get("quadrature.gauss_legendre", 0)),
        "quadrature.rule_builds": per_pass(counts.get("quadrature.rule_builds", 0)),
        "quadrature.rule_s": per_pass(by_layer.get("quadrature.rule", 0.0)),
        "quadrature.integrals": per_pass(integrals),
        "quadrature.nodes": per_pass(nodes),
        "quadrature.angular_slices": slices / polar if polar else 0.0,
        "quadrature.reduce_self_s": per_pass(reduce_self),
        "quadrature.self_s": per_pass(by_layer.get("quadrature", 0.0)),
        "sharpness.estimates": per_pass(sum(v for k, v in counts.items()
                                            if k.startswith("sharpness:"))),
        "sharpness.rule_builds": per_pass(counts.get("sharpness.rule_builds", 0)),
        "sharpness.rule_s": per_pass(by_layer.get("sharpness.rule", 0.0)),
        "sharpness.self_s": per_pass(by_layer.get("sharpness", 0.0)),
        "functions.eval_calls": per_pass(evals),
        "functions.eval_s": per_pass(by_layer.get("functions", 0.0)),
        "functions.points": per_pass(points),
        "functions.evals_per_node": eval_points_ratio,
        "verifiers.cases": per_pass(cases),
        "verifiers.self_s": per_pass(by_layer.get("verifiers", 0.0)),
        "verifiers.density_self_s": per_pass(density_self),
        "verifiers.integrals_per_case": integrals / cases if cases else 0.0,
        **{f"verifiers.{fam}_s": per_pass(inclusive(f"verifiers.{fam}:"))
           for fam in VERIFIER_FAMILIES},
        "geometry.weight_s": per_pass(by_layer.get("geometry", 0.0)),
        "fields.potential_s": per_pass(by_layer.get("fields", 0.0)),
        "reports.serialise_s": per_pass(by_layer.get("reports", 0.0)),
        "cli.self_s": per_pass(by_layer.get("cli", 0.0)),
        "trace.pass_s": per_pass(root_s),
        "trace.spans": per_pass(n),
        "trace.layer_sum_frac": layer_sum / root_s if root_s else 0.0,
        "trace.other_s": per_pass(by_layer.get("numpy", 0.0)),
    }


def _ancestors(spans, rec):
    j = rec[PARENT]
    while j >= 0:
        yield j
        j = spans[j][PARENT]
