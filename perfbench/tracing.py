"""Span tracing of the program's layers from outside the program.

``install()`` replaces each public function named in ``LAYERS`` with a
wrapper that records a span ``(name, start, end, parent, size)`` in memory.
A function is often imported by name into other modules (``from .groebner
import codimension`` in ``certificates``), so every module binding of the
same function object is replaced, not only the defining one.  A span opened
while another span of the same name is open is not recorded: recursive and
mutually nested entry points of one layer are timed at the outermost call.
``uninstall()`` puts every original back.

``summarize(spans)`` turns spans into the per-layer metrics: ``<layer>_s`` is
self time (duration minus the time covered by child spans), ``<layer>_calls``
is the number of outermost calls.  ``domains`` and ``orders`` are called per
coefficient and per monomial, so they are not wrapped; their cost is self
time of the layers above them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "cli": [("cli", "run")],
    "parse.load": [("parse", "load_ideal_file"), ("parse", "load_ideal_text")],
    "poly.mul": [("poly", "Poly.__mul__")],
    "poly.add": [("poly", "Poly.__add__")],
    "groebner.basis": [("groebner", "groebner_basis")],
    "groebner.normal_form": [("groebner", "normal_form")],
    "groebner.dimension": [("groebner", "dimension"), ("groebner", "codimension")],
    "groebner.intersection": [("groebner", "ideal_intersection")],
    "groebner.exact_divide": [("groebner", "exact_divide")],
    "polygcd.gcd": [("polygcd", "multivariate_gcd")],
    "linalg.rank": [("linalg", "mat_rank")],
    "linalg.kernel": [("linalg", "kernel_basis")],
    "linalg.inverse": [("linalg", "mat_inverse")],
    "quadratic.scan": [("quadratic", "minrank_bruteforce"),
                       ("quadratic", "collective_strength_quadrics"),
                       ("quadratic", "rank_scan_all_nonzero")],
    "quadratic.combine": [("quadratic", "combine")],
    "quadratic.simdiag": [("quadratic", "simultaneous_diagonalize")],
    "minors.det": [("minors", "determinant_laplace")],
    "strength.exclusion": [("strength", "exclusion_matrix")],
    "strength.bruteforce": [("strength", "strength_bruteforce_small")],
    "certificates.build": [("certificates", "build_certificate")],
    "certificates.recheck": [("certificates", "recheck_certificate")],
    "certificates.to_json": [("certificates", "Certificate.to_dict"),
                             ("certificates", "Certificate.to_json")],
}

# per-layer metrics, in the order BENCHMARK.json lists them
METRICS = [
    "parse.load_s", "parse.load_calls",
    "poly.mul_s", "poly.mul_calls", "poly.add_s",
    "groebner.basis_s", "groebner.basis_calls", "groebner.basis_elements",
    "groebner.normal_form_s", "groebner.normal_form_calls",
    "groebner.dimension_s",
    "groebner.intersection_s", "groebner.intersection_calls",
    "groebner.exact_divide_s",
    "polygcd.gcd_s", "polygcd.gcd_calls",
    "linalg.rank_s", "linalg.rank_calls",
    "linalg.kernel_s", "linalg.kernel_calls",
    "linalg.inverse_s",
    "quadratic.scan_s", "quadratic.scan_points",
    "quadratic.combine_s", "quadratic.combine_calls",
    "quadratic.simdiag_s",
    "minors.det_s", "minors.det_calls",
    "strength.exclusion_s",
    "strength.bruteforce_s", "strength.bruteforce_calls",
    "certificates.build_s", "certificates.recheck_s", "certificates.to_json_s",
    "cli.self_s",
    "trace.overhead_s",
]

MARK = "_perfbench_layer"


class Tracer:
    """Wrappers installed into the ``formstrength`` modules, and their spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter
        # the one layer with a size: the number of basis elements returned
        size = len if name == "groebner.basis" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_.get(name):
                return fn(*args, **kwargs)
            open_[name] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                open_[name] = False
                spans[index] = (name, start, end, parent, size(result) if size and result is not None else 0)

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        for targets in LAYERS.values():
            for module_name, _ in targets:
                importlib.import_module(f"formstrength.{module_name}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "formstrength" or k.startswith("formstrength."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                home = sys.modules[f"formstrength.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def installed_wrappers():
    """Number of tracing wrappers currently bound anywhere in the package."""
    count = 0
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "formstrength" or key.startswith("formstrength.")):
            continue
        for value in vars(module).values():
            if hasattr(value, MARK):
                count += 1
            elif isinstance(value, type) and value.__module__.startswith("formstrength"):
                count += sum(1 for v in vars(value).values() if hasattr(v, MARK))
    return count


def summarize(spans):
    """Per-layer self times, call counts and sizes from a list of spans."""
    out = {m: 0 for m in METRICS if m != "trace.overhead_s"}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    scan_open = [False] * len(spans)
    for i, (name, start, end, parent, size) in enumerate(spans):
        self_metric = "cli.self_s" if name == "cli" else f"{name}_s"
        if self_metric in out:
            out[self_metric] += end - start - child_time[i]
        if f"{name}_calls" in out:
            out[f"{name}_calls"] += 1
        if name == "groebner.basis":
            out["groebner.basis_elements"] += size
        # parents precede children in the list, so the flag is already set
        inside_scan = name == "quadratic.scan" or (parent >= 0 and scan_open[parent])
        scan_open[i] = inside_scan
        if name == "quadratic.combine" and inside_scan:
            out["quadratic.scan_points"] += 1
    return out
