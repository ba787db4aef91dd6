"""Per-layer call counts and spans for the traced run, installed from outside src/.

``install`` replaces every entry point of ENTRY_POINTS by a wrapper at each
name a caller looks it up by: the class attribute for a method (and every
alias of it in the class, such as ``__rmul__ = __mul__``), and every global
of every affhecke module that is bound to the function, so that a
``from .rings import demazure`` in bimod is wrapped as well.

A span records its entry point, start, end, parent span and case.  Self time
is the span minus its child spans.  The program is single-threaded, so no
span ever waits.  Counts-only wrappers record no span: they sit on calls
made 10^5 - 10^6 times per pass, where a span would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

COUNT, SPAN = "count", "span"

HECKE, BIMODULE, ENGINE = "hecke-kl", "bimodule-d2", "engine-ge"
WORKLOADS = (HECKE, BIMODULE, ENGINE)

# (metric name, module, attribute, kind, workloads on which it must be called)
ENTRY_POINTS = (
    ("rings.LaurentPoly.new", "rings", "LaurentPoly.__init__", COUNT, (HECKE,)),
    ("rings.LaurentPoly.mul", "rings", "LaurentPoly.__mul__", COUNT, (HECKE,)),
    ("rings.RingElement.new", "rings", "RingElement.__init__", COUNT, (BIMODULE, ENGINE)),
    ("rings.RingElement.mul", "rings", "RingElement.__mul__", COUNT, (BIMODULE, ENGINE)),
    ("rings.exact_div", "rings", "exact_div", SPAN, (BIMODULE,)),
    ("rings.demazure", "rings", "demazure", SPAN, (BIMODULE,)),
    ("weyl.ExtendedWeylElement.new", "weyl", "ExtendedWeylElement.__init__", COUNT, (HECKE,)),
    ("weyl.window_length", "weyl", "window_length", COUNT, (HECKE,)),
    ("weyl.ExtendedWeylElement.reduced_word", "weyl", "ExtendedWeylElement.reduced_word", SPAN, (HECKE,)),
    ("hecke.kl_basis", "hecke", "kl_basis", SPAN, (HECKE,)),
    ("hecke.HeckeElement.mul", "hecke", "HeckeElement.__mul__", SPAN, (HECKE,)),
    ("hecke.HeckeElement.times_simple", "hecke", "HeckeElement.times_simple", SPAN, (HECKE,)),
    ("hecke.HeckeElement.bar", "hecke", "HeckeElement.bar", SPAN, (HECKE,)),
    ("hecke.c_element", "hecke", "c_element", SPAN, (HECKE,)),
    ("hecke.braid_hecke_image", "hecke", "braid_hecke_image", SPAN, (HECKE,)),
    ("hecke.flatten_hecke", "hecke", "flatten_hecke", SPAN, (HECKE,)),
    ("braid.flatten", "braid", "flatten", SPAN, (HECKE,)),
    ("polymat.mat_mul", "polymat", "mat_mul", SPAN, (BIMODULE, ENGINE)),
    ("polymat.mat_invert", "polymat", "mat_invert", SPAN, (ENGINE,)),
    ("polymat.det_bareiss", "polymat", "det_bareiss", SPAN, (ENGINE,)),
    ("bimod.signed_dot", "bimod", "signed_dot", SPAN, (BIMODULE,)),
    ("bimod.tensor", "bimod", "tensor", SPAN, (BIMODULE,)),
    ("bimod.left_mult_matrix", "bimod", "left_mult_matrix", SPAN, (BIMODULE,)),
    ("bimod.Morphism.compose", "bimod", "Morphism.compose", SPAN, (BIMODULE,)),
    ("bimod.subs_delta_zero", "bimod", "subs_delta_zero", SPAN, (BIMODULE,)),
    ("homalg.Pseudocomplex.d_squared", "homalg", "Pseudocomplex.d_squared", SPAN, (ENGINE, BIMODULE)),
    ("homalg.Pseudocomplex.monodromy", "homalg", "Pseudocomplex.monodromy", SPAN, (ENGINE, BIMODULE)),
    ("homalg.Pseudocomplex.gaussian_eliminate", "homalg", "Pseudocomplex.gaussian_eliminate", SPAN, (ENGINE,)),
    ("homalg.Pseudocomplex.simultaneous_eliminate", "homalg", "Pseudocomplex.simultaneous_eliminate", SPAN, (ENGINE,)),
    ("homalg.Pseudocomplex.minimal_complex", "homalg", "Pseudocomplex.minimal_complex", SPAN, (ENGINE,)),
    ("homalg.ChainMap.compose", "homalg", "ChainMap.compose", SPAN, (ENGINE,)),
    ("homalg.ChainMap.defect", "homalg", "ChainMap.defect", SPAN, (ENGINE,)),
    ("homalg.Homotopy.nulhomotopic_map", "homalg", "Homotopy.nulhomotopic_map", SPAN, (ENGINE,)),
    ("homalg.tensor", "homalg", "tensor", SPAN, (ENGINE,)),
    ("homalg.Pseudocomplex.to_json", "homalg", "Pseudocomplex.to_json", SPAN, (BIMODULE,)),
    ("homalg.Pseudocomplex.from_json", "homalg", "Pseudocomplex.from_json", SPAN, (BIMODULE,)),
    ("cli.cmd_build_f", "cli", "cmd_build_f", SPAN, (BIMODULE,)),
    ("cli.cmd_load_verify", "cli", "cmd_load_verify", SPAN, (BIMODULE,)),
    ("complexes.build_F", "complexes", "build_F", SPAN, (ENGINE, BIMODULE)),
    ("complexes.monodromy_map", "complexes", "monodromy_map", SPAN, (BIMODULE, ENGINE)),
    ("complexes.check_d2_signs", "complexes", "check_d2_signs", SPAN, (ENGINE,)),
    ("complexes.verify_N_equals_M", "complexes", "verify_N_equals_M", SPAN, (ENGINE,)),
    ("complexes.tau_equivariance_signs", "complexes", "tau_equivariance_signs", SPAN, (ENGINE,)),
    ("complexes.verify_wakimoto", "complexes", "verify_wakimoto", SPAN, (HECKE,)),
    ("complexes.verify_x1_commutation", "complexes", "verify_x1_commutation", SPAN, (BIMODULE,)),
    ("twist.verify_phi_squares_n2", "twist", "verify_phi_squares_n2", SPAN, (BIMODULE,)),
    ("suites.random_pseudocomplex", "suites", "random_pseudocomplex", SPAN, (ENGINE,)),
)

def _mat_mul_products(a, b):
    """(nonzero entry products, all row x mid x col products) of a . b."""
    if not a or not b or not a[0] or len(a[0]) != len(b):
        return 0, 0
    col_nonzero = [0] * len(b)
    for row in a:
        for k, x in enumerate(row):
            if not x.is_zero():
                col_nonzero[k] += 1
    useful = sum(
        count * sum(1 for y in row if not y.is_zero())
        for count, row in zip(col_nonzero, b)
    )
    return useful, len(a) * len(b) * len(b[0])


def _compose_pairs(later, earlier):
    """(entry pairs with matching middle sid, all entry pairs) of a composite."""
    sources = Counter(b for b, _c in later.entries)
    useful = sum(sources[b] for _a, b in earlier.entries)
    return useful, len(later.entries) * len(earlier.entries)


# ratio metric -> (entry point it is measured at, (useful, total) counter,
# workloads on which the entry point is called)
RATIOS = {
    "polymat.mat_mul.density": ("polymat.mat_mul", _mat_mul_products, (BIMODULE, ENGINE)),
    "homalg.ChainMap.compose.match_ratio": ("homalg.ChainMap.compose", _compose_pairs, (ENGINE,)),
}


def metric_units():
    """Every per-layer metric of the traced run, in a fixed order, with its
    unit; trace.overhead is traced over untraced verdict_s."""
    units = {}
    for name, _module, _attr, kind, _on in ENTRY_POINTS:
        units[f"{name}.calls"] = "count"
        if kind == SPAN:
            units[f"{name}.self_s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Call counts, self times and an in-memory span log for one pass."""

    def __init__(self):
        self.names = [e[0] for e in ENTRY_POINTS]
        self.kinds = [e[3] for e in ENTRY_POINTS]
        self.calls = [0] * len(ENTRY_POINTS)
        self.self_ns = [0] * len(ENTRY_POINTS)
        self.ratios = {name: [0, 0] for name in RATIOS}
        self.case = -1
        # open spans as [span id, nanoseconds covered by child spans]
        self.stack = []
        self.span_entry = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_case = array("q")

    def _count_wrapper(self, idx, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _span_wrapper(self, idx, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self.stack
        entry, starts, ends = self.span_entry, self.span_start, self.span_end
        parents, cases = self.span_parent, self.span_case
        clock = time.perf_counter_ns
        ratio = next((r for r, (at, *_) in RATIOS.items() if at == self.names[idx]), None)
        counter = RATIOS[ratio][1] if ratio else None
        totals = self.ratios.get(ratio)

        def wrapper(*args, **kwargs):
            if counter is not None:
                # bookkeeping outside the span; the parent does not own it either
                t0 = clock()
                useful, total = counter(*args[:2])
                totals[0] += useful
                totals[1] += total
                if stack:
                    stack[-1][1] += clock() - t0
            calls[idx] += 1
            sid = len(starts)
            entry.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            cases.append(self.case)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[sid] = end
                stack.pop()
                self_ns[idx] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every entry point at each name its callers look up."""
        modules = [importlib.import_module(f"affhecke.{m}") for m in sorted({e[1] for e in ENTRY_POINTS})]
        for idx, (name, module_name, attr, kind, _on) in enumerate(ENTRY_POINTS):
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            module = importlib.import_module(f"affhecke.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(idx, raw.__func__))
                else:
                    wrapped = make(idx, raw)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, wrapped)
            else:
                fn = getattr(module, attr)
                wrapped = make(idx, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def summary(self, scale=1.0):
        """Per-layer metrics: calls, self seconds times `scale` and the two
        ratios."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            if self.kinds[idx] == SPAN:
                out[f"{name}.self_s"] = self.self_ns[idx] * scale / 1e9
        for name, (useful, total) in self.ratios.items():
            out[name] = useful / total if total else 0.0
        return out

    def write(self, path, case_ids):
        """Write the span log as gzip JSON lines: a header, then one
        [span, parent, case, entry point, start ns, end ns] per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"entry_points": self.names, "cases": case_ids}) + "\n")
            for sid in range(len(self.span_start)):
                out.write(
                    f"[{sid},{self.span_parent[sid]},{self.span_case[sid]},"
                    f"{self.span_entry[sid]},{self.span_start[sid]},{self.span_end[sid]}]\n"
                )
