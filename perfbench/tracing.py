"""Span tracing of the package's layers, installed from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
put at every place the package binds the original: the defining module,
each module that did `from .x import f`, and module-level dicts such as the
verify suite table.  Spans (name, start, end, parent) are kept in memory;
a layer's self time is its span duration minus the time its child spans
cover.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

from workloads import expected_status

LAYERS = ("specfun", "profiles", "quadrature", "operators", "norms", "verify", "cli")

# adjoint_pairing_residual's rule when none is passed
_PAIRING_DEFAULT = (32, 64)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _suffix_and_counts(qual, args, kwargs, out):
    """Span-name suffix and work counters for the calls that carry them."""
    if qual == "specfun.hyp_pfq":
        where = "unit" if _arg(args, kwargs, 0, "spec").argument == 1.0 else "interior"
        return "." + where, {"terms": out.terms_used} if out is not None else {}
    if qual == "norms.closed_form_norm":
        return "." + _arg(args, kwargs, 0, "query").target.value, {}
    if qual == "quadrature.integrate_disk_singular":
        rule = _arg(args, kwargs, 3, "rule")
        return "." + ("mobius" if type(rule.singularity).__name__ == "Mobius" else "annulus"), {}
    if qual == "operators.apply":
        op = _arg(args, kwargs, 0, "op")
        return "." + getattr(op, "value", op), {}
    if qual == "operators.adjoint_pairing_residual":
        rule = _arg(args, kwargs, 2, "rule")
        nr, na = _PAIRING_DEFAULT if rule is None else (rule.radial_nodes, rule.angular_nodes)
        return "", {"kernel_entries": (nr + 5) * (na + 16) * nr * na}
    if qual.startswith("verify.suite_") and out is not None:
        return "", {"rows": len(out), "failed": sum(r.status != expected_status(r.label) for r in out)}
    return "", {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, counters]
        self._stack = []

    def _wrap(self, layer, fn):
        qual = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                span[4]["raised"] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                suffix, counts = _suffix_and_counts(qual, args, kwargs, out)
                span[0] = qual + suffix
                span[4].update(counts)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every binding of each layer's public functions."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"disknorms.{layer}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(layer, obj)
        package = [m for n, m in list(sys.modules.items()) if n == "disknorms" or n.startswith("disknorms.")]
        for module in package:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        return len(wrapped)

    def summary(self) -> dict:
        """name -> calls, total and self seconds, summed counters, exceptions."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in counts.items():
                if key == "raised":
                    key = "raised." + value
                    value = 1
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
