"""Outside-in tracing of diffrees, installed only in traced worker runs.

The tracer replaces public entry points of the library with wrappers that
record one span each: instance, span name, start, end, parent span and,
for basis builds, what was built.  `StepCounter.spend` is wrapped to
count reduction steps exactly.  Spans stay in memory and are written as
JSON by `dump` when the worker exits.  Nothing in `src/` is changed.

Span names group entry points into layers; a name may cover several
functions (`matrix.minors` is `minors` and `minor`), and a metric built
from a name either takes its self time or its outermost inclusive time,
as layers.py says.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from diffrees import groebner
from diffrees.poly import DEGREVLEX

# (module, attribute path, span name)
ENTRY_POINTS = (
    ("diffrees.groebner", "IdealHandle.groebner_basis", "groebner.basis"),
    ("diffrees.groebner", "IdealHandle.normal_form", "groebner.normal_form"),
    ("diffrees.groebner", "IdealHandle.saturation", "groebner.saturation"),
    ("diffrees.groebner", "IdealHandle.saturation_by_ideal",
     "groebner.saturation"),
    ("diffrees.groebner", "IdealHandle.intersection",
     "groebner.intersection"),
    ("diffrees.groebner", "IdealHandle.krull_dimension",
     "groebner.dimension"),
    ("diffrees.matrix", "PolyMatrix.minors", "matrix.minors"),
    ("diffrees.matrix", "PolyMatrix.minor", "matrix.minors"),
    ("diffrees.algebra", "validation_issues", "algebra.validate"),
    ("diffrees.algebra", "GradedAlgebra.validate", "algebra.validate"),
    ("diffrees.algebra", "GradedAlgebra.is_reduced", "algebra.is_reduced"),
    ("diffrees.algebra", "GradedAlgebra.nonzerodivisor_check",
     "algebra.nonzerodivisor_check"),
    ("diffrees.fitting", "fitting_profile", "fitting.profile"),
    ("diffrees.fitting", "last_rows_probe", "fitting.probe"),
    ("diffrees.rees", "find_test_element", "rees.test_element"),
    ("diffrees.rees", "rees_ideal", "rees.rees_ideal"),
    ("diffrees.rees", "analytic_spread", "rees.spread"),
    ("diffrees.resolution", "free_resolution",
     "resolution.free_resolution"),
)


def _coeff_bits(basis):
    bits = 0
    for g in basis:
        for _, c in g.terms:
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []        # [instance, name, start, end, parent, attrs]
        self.stack = []
        self.instance = None
        self.steps = 0
        self._built = set()    # (context, order, generators) of this instance

    # -- per instance ---------------------------------------------------------

    def begin_instance(self, index):
        self.instance = index
        self.steps = 0
        self._built = set()

    def end_instance(self):
        self.instance = None
        return self.steps

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = before(args, kwargs) if before else None
            record = [self.instance, name, clock(), None,
                      stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after:
                record[5] = after(note, result)
            return result

        return wrapper

    def _basis_before(self, args, kwargs):
        handle = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order", DEGREVLEX)
        if order in handle._cache:
            return None
        key = (handle.context, order, frozenset(handle.generators))
        duplicate = key in self._built
        self._built.add(key)
        return duplicate

    @staticmethod
    def _basis_after(duplicate, basis):
        if duplicate is None:
            return None                       # answered from the handle cache
        return {"dup": int(duplicate), "len": len(basis),
                "bits": _coeff_bits(basis)}

    def install(self):
        """Wrap every entry point, wherever diffrees bound it by name."""
        for module_name, path, span in ENTRY_POINTS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            hooks = ((self._basis_before, self._basis_after)
                     if span == "groebner.basis" else (None, None))
            wrapped = self._wrap(span, fn, *hooks)
            if outer:
                setattr(owner, attr,
                        classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if (name == "diffrees" or name.startswith("diffrees.")) \
                        and getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapped)

        spend = groebner.StepCounter.spend

        def counted_spend(counter, n=1):
            self.steps += n
            return spend(counter, n)

        groebner.StepCounter.spend = counted_spend

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans; a span still open (deadline kill) ends now."""
        now = time.perf_counter()
        for record in self.spans:
            if record[3] is None:
                record[3] = now
                record[5] = {"open": 1}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
