"""Outside-in tracer: wraps fracpoly's public functions from the benchmark.

Nothing under ``src/`` is touched.  Each wrapper rebinds one name in every
``fracpoly`` module namespace that holds the original object, so calls made
through ``from .x import name`` are traced too.  Span wrappers record
``[name, start, end, parent, tag]`` in memory; counter wrappers only count.
A target that does not exist at the measured commit is listed in
``Tracer.absent`` and its metrics read 0, so renames in later commits do
not crash the benchmark.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute, tag function over the bound arguments)
SPAN_TARGETS = [
    ("scalars.decimal_str", "fracpoly.scalars", "decimal_str", None),
    ("series.cauchy_product", "fracpoly.series", "cauchy_product", lambda a: a["a"].order),
    ("series.reciprocal", "fracpoly.series", "reciprocal", None),
    ("gammafns.gamma", "fracpoly.gammafns", "gamma", None),
    ("gammafns.reciprocal_gamma", "fracpoly.gammafns", "reciprocal_gamma", None),
    ("gammafns.beta", "fracpoly.gammafns", "beta", None),
    ("gammafns.binomial", "fracpoly.gammafns", "binomial", None),
    ("gammafns.generalized_binomial", "fracpoly.gammafns", "generalized_binomial", None),
    ("gammafns.multinomial", "fracpoly.gammafns", "multinomial", None),
    ("gammafns.spouge", "fracpoly.gammafns", "_gamma_positive",
     lambda a: (a["x"]._mpf_, a["precision"])),
    ("mittag.ml_series", "fracpoly.mittag", "ml_series", None),
    ("mittag.ml_eval", "fracpoly.mittag", "ml_eval", None),
    ("mittag.ml_one_m_closed", "fracpoly.mittag", "ml_one_m_closed", None),
    ("families.family_series", "fracpoly.families", "family_series",
     lambda a: (a["p"].cache_key(), a["order"], a["precision"])),
    ("families.family_numbers", "fracpoly.families", "family_numbers", None),
    ("families.family_polynomial", "fracpoly.families", "family_polynomial", None),
    ("families.multinomial_number_product", "fracpoly.families", "multinomial_number_product", None),
    ("fractional.closed_form.caputo_closed_form", "fracpoly.fractional", "caputo_closed_form", None),
    ("fractional.closed_form.caputo_apostol_bernoulli", "fracpoly.fractional",
     "caputo_apostol_bernoulli", None),
    ("fractional.closed_form.caputo_apostol_bernoulli_higher", "fracpoly.fractional",
     "caputo_apostol_bernoulli_higher", None),
    ("fractional.closed_form.caputo_family_poly", "fracpoly.fractional", "caputo_family_poly", None),
    ("fractional.closed_form.caputo_family_poly_literal", "fracpoly.fractional",
     "caputo_family_poly_literal", None),
    ("fractional.termwise.caputo_power_rule", "fracpoly.fractional", "caputo_power_rule", None),
    ("fractional.termwise.caputo_derivative_poly", "fracpoly.fractional", "caputo_derivative_poly", None),
    ("fractional.termwise.rl_integral_poly", "fracpoly.fractional", "rl_integral_poly", None),
    ("fractional.termwise.rl_derivative_term", "fracpoly.fractional", "rl_derivative_term", None),
    ("fractional.termwise.composition_check", "fracpoly.fractional", "composition_check", None),
    ("fractional.termwise.leibniz_product", "fracpoly.fractional", "leibniz_product", None),
    ("fractional.eval_expansion", "fracpoly.fractional", "eval_frac_expansion", None),
    ("fractional.oracle", "fracpoly.fractional", "caputo_quadrature_oracle", None),
    ("quadrature.rule", "fracpoly.quadrature", "gauss_jacobi_rule", lambda a: a["npoints"]),
]

# (span name, class, method): methods are wrapped on the class itself
METHOD_SPANS = [("families.polynomial_evaluate", "fracpoly.families", "Polynomial", "evaluate")]

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__")

SUITE_NAMES = (
    "classical-numbers", "theorem1", "appell", "theorem3", "theorem3-literal", "eq5",
    "ml-consistency", "mleval-exp", "eq8", "eq10", "theorem4", "theorem5", "theorem6",
    "theorem6-literal", "specialization", "higher-order", "genocchi-euler",
)
COMMANDS = ("numbers", "poly", "eval", "mleval", "fracderiv", "fracint", "verify")


def _fracpoly_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fracpoly" or n.startswith("fracpoly."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if tag is not None else None

        def traced(*args, **kwargs):
            label = None
            if tag is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    label = tag(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    pass  # the call itself reports a bad signature
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, label]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _rebind(self, module: str, attr: str, make):
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapped = make(orig)
        for m in _fracpoly_modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    def install(self, cli_module):
        for name, module, attr, tag in SPAN_TARGETS:
            self._rebind(module, attr, lambda fn, n=name, t=tag: self.span(n, fn, t))
        for name, module, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(attr)
            if fn is None:
                self.absent.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.span(name, fn))
        self._install_counters()
        suites = getattr(sys.modules.get("fracpoly.verify"), "SUITES", None)
        if suites is None:
            self.absent.append("fracpoly.verify.SUITES")
        else:
            for suite, fn in list(suites.items()):
                suites[suite] = self.span(f"verify.{suite}", fn)
        for cmd_name, cmd in cli_module.cli.commands.items():
            cmd.callback = self.span(f"cli.{cmd_name}", cmd.callback)

    def _install_counters(self):
        counts = self.counts
        scalar_cls = getattr(sys.modules.get("fracpoly.scalars"), "Scalar", None)
        for op in SCALAR_OPS:
            fn = getattr(scalar_cls, "__dict__", {}).get(op)
            if fn is None:
                self.absent.append(f"fracpoly.scalars.Scalar.{op}")
                continue

            def counted(*args, _fn=fn):
                r = _fn(*args)
                counts["scalars.exact_ops" if r.is_exact else "scalars.float_ops"] += 1
                return r

            setattr(scalar_cls, op, counted)

        def precision_scope(fn):
            def counted(*args, **kwargs):
                counts["scalars.precision_scopes"] += 1
                return fn(*args, **kwargs)
            return counted

        def rule_cache(fn):
            def counted(a_key, npoints, precision):
                before = fn.cache_info().misses
                r = fn(a_key, npoints, precision)
                if fn.cache_info().misses > before:
                    counts["quadrature.rule_builds"] += 1
                    counts["quadrature.rule_nodes_built"] += npoints
                return r
            return counted

        def suite_runner(fn):
            def counted(*args, **kwargs):
                r = fn(*args, **kwargs)
                counts["verify.comparisons"] += r.comparisons
                return r
            return counted

        self._rebind("fracpoly.scalars", "working_precision", precision_scope)
        self._rebind("fracpoly.quadrature", "_rule_cached", rule_cache)
        self._rebind("fracpoly.verify", "run_suite", suite_runner)

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counters (no set-up or overhead)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        tags = defaultdict(list)
        buckets = defaultdict(float)
        for i, (name, start, end, _, tag) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s = end - start - child[i]
            own[name] += self_s
            if tag is None:
                continue
            tags[name].append(tag)
            if name == "families.family_series":
                order = tag[1]
                key = "order_le50" if order <= 50 else "order_le100" if order <= 100 else "order_gt100"
                buckets[f"families.family_series_self_s.{key}"] += self_s
            elif name == "quadrature.rule":
                key = "nodes_le10" if tag <= 10 else "nodes_le20" if tag <= 20 else "nodes_gt20"
                buckets[f"quadrature.rule_self_s.{key}"] += self_s

        def own_prefix(prefix):
            return sum(v for k, v in own.items() if k.startswith(prefix))

        def repeat_share(name):
            keys = tags[name]
            return 1 - len(set(keys)) / len(keys) if keys else 0.0

        c = self.counts
        m = {
            "scalars.exact_ops": c["scalars.exact_ops"],
            "scalars.float_ops": c["scalars.float_ops"],
            "scalars.precision_scopes": c["scalars.precision_scopes"],
            "scalars.decimal_str_calls": calls["scalars.decimal_str"],
            "scalars.decimal_str_self_s": own["scalars.decimal_str"],
            "series.cauchy_product_calls": calls["series.cauchy_product"],
            "series.coeff_products": sum((n + 1) * (n + 2) // 2 for n in tags["series.cauchy_product"]),
            "series.cauchy_product_self_s": own["series.cauchy_product"],
            "series.reciprocal_self_s": own["series.reciprocal"],
            "gammafns.gamma_calls": calls["gammafns.gamma"] + calls["gammafns.reciprocal_gamma"],
            "gammafns.spouge_calls": calls["gammafns.spouge"],
            "gammafns.spouge_repeat_share": repeat_share("gammafns.spouge"),
            "gammafns.self_s": own_prefix("gammafns."),
            "mittag.ml_series_calls": calls["mittag.ml_series"],
            "mittag.ml_series_self_s": own["mittag.ml_series"],
            "mittag.ml_eval_calls": calls["mittag.ml_eval"],
            "mittag.ml_eval_self_s": own["mittag.ml_eval"],
            "families.family_series_calls": calls["families.family_series"],
            "families.family_series_repeat_share": repeat_share("families.family_series"),
            "families.family_series_self_s": own["families.family_series"],
            "families.family_polynomial_self_s": own["families.family_polynomial"],
        }
        for key in ("order_le50", "order_le100", "order_gt100"):
            name = f"families.family_series_self_s.{key}"
            m[name] = buckets[name]
        m.update({
            "fractional.closed_form_self_s": own_prefix("fractional.closed_form."),
            "fractional.termwise_self_s": own_prefix("fractional.termwise."),
            "fractional.eval_expansion_self_s": own["fractional.eval_expansion"],
            "fractional.oracle_calls": calls["fractional.oracle"],
            "fractional.oracle_self_s": own["fractional.oracle"],
            "quadrature.rule_requests": calls["quadrature.rule"],
            "quadrature.rule_builds": c["quadrature.rule_builds"],
            "quadrature.rule_nodes_built": c["quadrature.rule_nodes_built"],
            "quadrature.rule_self_s": own["quadrature.rule"],
        })
        for key in ("nodes_le10", "nodes_le20", "nodes_gt20"):
            name = f"quadrature.rule_self_s.{key}"
            m[name] = buckets[name]
        for suite in SUITE_NAMES:
            m[f"verify.{suite}_s"] = total[f"verify.{suite}"]
        m["verify.comparisons"] = c["verify.comparisons"]
        for cmd in COMMANDS:
            m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m["cli.self_s"] = own_prefix("cli.")
        return m
