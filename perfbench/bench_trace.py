"""Outside-in tracer for hurwitzlab.

It wraps public functions and class methods of the package in spans without
changing any package file.  A wrapped module function is rebound in every
``hurwitzlab.*`` namespace that holds it, so callers that imported it by name
(``bm`` imports ``kernel_K``, ``harness`` imports ``h_connected``) and lazy
in-function imports both reach the wrapper.  Methods are wrapped on the class.

Each span records its name, start, end, parent span and run id.  Spans stay in
memory until the run ends.  A call that an operator makes to a sibling
operator under the same span name (``Series.__rmul__`` calling ``__mul__``,
``MultiPoly.__sub__`` calling ``__add__``) belongs to the caller's span, so
one arithmetic operation is one span; genuine recursion opens a new span.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from functools import wraps
from time import perf_counter

# (span name, module, class or None, attributes)
TARGETS = (
    ("bm.bm_step", "hurwitzlab.bm", None, ("bm_step",)),
    ("bm.w_poly", "hurwitzlab.bm", None, ("w_poly",)),
    ("bm.d1d2_h02_diagonal", "hurwitzlab.bm", None, ("d1d2_h02_diagonal",)),
    ("lambert.kernel_K", "hurwitzlab.lambert", None, ("kernel_K",)),
    ("lambert.sigma_z", "hurwitzlab.lambert", None, ("sigma_z",)),
    ("series.mul", "hurwitzlab.series", "Series", ("__mul__", "__rmul__")),
    ("series.residue", "hurwitzlab.series", "Series", ("residue",)),
    ("series.reciprocal", "hurwitzlab.series", "Series", ("reciprocal",)),
    ("series.compose", "hurwitzlab.series", "Series", ("compose",)),
    ("series.reverse", "hurwitzlab.series", "Series", ("reverse",)),
    ("series.exp", "hurwitzlab.series", "Series", ("exp",)),
    ("series.log", "hurwitzlab.series", "Series", ("log",)),
    ("multipoly.mul", "hurwitzlab.multipoly", "MultiPoly", ("__mul__", "__rmul__")),
    (
        "multipoly.add",
        "hurwitzlab.multipoly",
        "MultiPoly",
        ("__add__", "__radd__", "__sub__", "__rsub__"),
    ),
    ("multipoly.eval", "hurwitzlab.multipoly", "MultiPoly", ("eval",)),
    (
        "multipoly.ratfn",
        "hurwitzlab.multipoly",
        "RatFn",
        (
            "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "reciprocal", "deriv", "__eq__",
        ),
    ),
    ("partitions.mn_character", "hurwitzlab.partitions", None, ("mn_character",)),
    ("hurwitz.h_connected", "hurwitzlab.hurwitz", None, ("h_connected",)),
    ("hurwitz.fit_P_polynomial", "hurwitzlab.hurwitz", None, ("fit_P_polynomial",)),
    ("hurwitz.h_bruteforce", "hurwitzlab.hurwitz", None, ("h_bruteforce",)),
    ("hurwitz.cut_and_join_evolve", "hurwitzlab.hurwitz", None, ("cut_and_join_evolve",)),
    ("hodge.kw_potential", "hurwitzlab.hodge", None, ("kw_potential",)),
    ("hodge.givental_apply", "hurwitzlab.hodge", None, ("givental_apply",)),
    ("hodge.hodge_potential", "hurwitzlab.hodge", None, ("hodge_potential",)),
    ("hodge.r_from_curve", "hurwitzlab.hodge", None, ("r_from_curve",)),
    ("hodge.bergman_compat_check", "hurwitzlab.hodge", None, ("bergman_compat_check",)),
    ("fock.a_symbolic_matrix", "hurwitzlab.fock", None, ("a_symbolic_matrix",)),
    ("fock.a_k_operators", "hurwitzlab.fock", None, ("a_k_operators",)),
    ("fock.a_commutator_suite", "hurwitzlab.fock", None, ("a_commutator_suite",)),
    ("fock.a_correlator", "hurwitzlab.fock", None, ("a_correlator",)),
    ("fock.h_from_a_correlator", "hurwitzlab.fock", None, ("h_from_a_correlator",)),
    ("fock.vev_hurwitz", "hurwitzlab.fock", None, ("vev_hurwitz",)),
) + tuple(
    (f"harness.campaign_{c}", "hurwitzlab.harness", None, (f"campaign_{c}",))
    for c in ("bm", "fock", "curve", "hurwitz", "polyfit", "elsv", "cutjoin")
) + (("harness.report", "hurwitzlab.harness", None, ("report_emit", "format_report")),)

# Hit ratios of lru-cached functions come from cache_info().
LRU_HIT_RATIOS = {
    "hurwitz.h_connected": ("hurwitzlab.hurwitz", "h_connected"),
    "hodge.wk_correlator": ("hurwitzlab.hodge", "wk_correlator"),
}
# Hit ratios of dict-cached functions: a span is a hit when it has no child
# span of the given prefix (a miss of w_poly runs bm_step; a miss of
# fit_P_polynomial evaluates Hurwitz numbers on its grid).
SPAN_HIT_RATIOS = {
    "bm.w_poly": "bm.bm_step",
    "hurwitz.fit_P_polynomial": "hurwitz.",
}


def _bm_step_name(args, kwargs) -> str:
    form = args[2] if len(args) > 2 else kwargs.get("form", "zz")
    return f"bm.bm_step.{form}"


LABELS = {"bm.bm_step": _bm_step_name}


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct child spans
        self.outer = bytearray()  # 1 if no enclosing span has the same name
        self._stack: list[tuple[int, int, str]] = []  # (span, name id, attribute key)
        self._depth: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.cache_info: dict[str, tuple[int, int]] = {}

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name: str, key: str):
        label = LABELS.get(span_name)
        fixed = None if label else self._nid(span_name)
        stack, depth = self._stack, self._depth
        names, parents, starts, ends, child, outer = (
            self.name, self.parent, self.start, self.end, self.child, self.outer,
        )
        nid_of = self._nid

        @wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if label is None else nid_of(label(args, kwargs))
            if stack and stack[-1][1] == nid and stack[-1][2] != key:
                return fn(*args, **kwargs)
            idx = len(starts)
            parent = stack[-1][0] if stack else -1
            d = depth.get(nid, 0)
            depth[nid] = d + 1
            stack.append((idx, nid, key))
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            child.append(0.0)
            outer.append(d == 0)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                depth[nid] = d
                if parent >= 0:
                    child[parent] += t1 - t0

        return wrapper

    def install(self):
        namespaces = [
            vars(m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hurwitzlab" or name.startswith("hurwitzlab."))
        ]
        for span_name, module, cls, attrs in TARGETS:
            mod = importlib.import_module(module)
            for attr in attrs:
                # a target a later version removes is skipped; its metrics read 0
                if cls is not None:
                    owner = getattr(mod, cls)
                    orig = owner.__dict__.get(attr)
                    if orig is None:
                        continue
                    setattr(owner, attr, self._wrap(orig, span_name, f"{cls}.{attr}"))
                    self._restore.append((owner, attr, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, span_name, f"{module}.{attr}")
                for ns in namespaces:
                    for name, value in list(ns.items()):
                        if value is orig:
                            ns[name] = wrapper
                            self._restore.append((ns, name, orig))

    def uninstall(self):
        """Restore every original and read the lru-cache counters."""
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()
        for metric, (module, attr) in LRU_HIT_RATIOS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.cache_info[metric] = (info.hits, info.misses)

    def aggregate(self) -> dict:
        """Per span name: calls, total_s (outermost spans) and self_s; plus hit ratios."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        prefixed_child = {name: bytearray(len(self.start)) for name in SPAN_HIT_RATIOS}
        for i in range(len(self.start)):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - self.child[i]
            if self.outer[i]:
                total[nid] += dur
            p = self.parent[i]
            if p >= 0:
                for name, marks in prefixed_child.items():
                    if self.names[nid].startswith(SPAN_HIT_RATIOS[name]):
                        marks[p] = 1
        out = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }
        for base in LABELS:  # labelled spans also count under their unlabelled name
            out[base] = {"calls": sum(v["calls"] for k, v in out.items() if k.startswith(base + "."))}
        ratios = {}
        for name, marks in prefixed_child.items():
            nid = self._ids.get(name)
            spans = [i for i in range(len(self.start)) if self.name[i] == nid]
            ratios[name] = (sum(1 for i in spans if not marks[i]), len(spans))
        for name, (hits, misses) in self.cache_info.items():
            ratios[name] = (hits, hits + misses)
        for name, (hits, attempts) in ratios.items():
            out.setdefault(name, {})["hit_ratio"] = hits / attempts if attempts else 0.0
        return out

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run_id}\t{i}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
