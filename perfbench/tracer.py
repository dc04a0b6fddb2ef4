"""Span tracer that wraps slhnet's public functions from the outside.

A function imported with ``from .x import f`` is bound again in the
importing module, so each wrapper is installed at every module attribute
that holds the function object (``slhnet.cli.evolve_density``,
``slhnet.netlang.feedback_multi``, ...), plus a few methods that carry
layer work (``Operator.embed``, the ``expect`` methods).  The callables
handed to ``slhnet.dynamics.integrate`` are wrapped per call, so every
right-hand-side and guard evaluation is a span of its own.

Spans live in memory as ``[layer, name, start, end, parent, task]``
records, ``parent`` being the index of the enclosing span or -1;
``self_times`` turns them into per-layer self time.  Nothing in
the package is changed on disk, and ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("hilbert", "slh", "components", "netlang", "dynamics", "linear",
           "reduction", "envelopes", "cli")

# Functions whose layer is not simply "<module>.other".
_LAYER_OF = {
    "netlang.parse": "netlang.parse",
    "netlang.tokenize": "netlang.parse",
    "netlang.parse_file": "netlang.parse",
    "slh.concat": "slh.concat",
    "slh.series": "slh.concat",
    "slh.direct_couple": "slh.concat",
    "slh.pad": "slh.concat",
    "slh.permute_ports": "slh.concat",
    "slh.feedback_multi": "slh.feedback_multi",
    "slh.feedback": "slh.feedback_multi",
    "slh.triple_to_json": "slh.serialize",
    "slh.triple_to_dict": "slh.serialize",
    "slh.triple_hash": "slh.serialize",
    "hilbert.operator_to_dict": "slh.serialize",
    "dynamics.liouvillian": "dynamics.generator",
    "dynamics.liouvillian_coherent": "dynamics.generator",
    "dynamics.liouvillian_gaussian": "dynamics.generator",
    "dynamics.fock_hierarchy": "dynamics.generator",
    "dynamics.lindblad_dissipator": "dynamics.generator",
    "dynamics.spre": "dynamics.generator",
    "dynamics.spost": "dynamics.generator",
    "dynamics.steady_state": "dynamics.steady_state",
    "dynamics.integrate": "dynamics.integrate",
    "dynamics.evolve_density": "dynamics.integrate",
    "dynamics.evolve_hierarchy": "dynamics.integrate",
    "dynamics.vectorize": "dynamics.integrate",
    "dynamics.unvectorize": "dynamics.integrate",
    "dynamics.format_value": "dynamics.format",
    "dynamics.trajectory_csv": "dynamics.format",
    "dynamics.trajectory_json": "dynamics.format",
    "linear.extract_linear": "linear.extract_linear",
    "linear.transfer_function": "linear.transfer_function",
}
# Whole modules that form one layer.
_MODULE_LAYER = {
    "components": "components.instantiate",
    "reduction": "reduction.eliminate",
    "cli": "cli.main",
    "netlang": "netlang.elaborate",
}
# Methods wrapped on their class: (module, class, method, layer).
_METHODS = (
    ("hilbert", "Operator", "embed", "hilbert.embed"),
    ("dynamics", "DensityState", "expect", "dynamics.expect"),
    ("dynamics", "DensityTrajectory", "expect", "dynamics.expect"),
    ("dynamics", "FockHierarchyState", "expect", "dynamics.expect"),
    ("dynamics", "FockHierarchy", "mean_photon_flux", "dynamics.expect"),
)

GENERATOR_BUILDERS = ("dynamics.liouvillian", "dynamics.liouvillian_coherent",
                      "dynamics.liouvillian_gaussian", "dynamics.fock_hierarchy")

HOOK = "trace.hook"


def _layer(qualname: str) -> str:
    if qualname in _LAYER_OF:
        return _LAYER_OF[qualname]
    module = qualname.split(".", 1)[0]
    return _MODULE_LAYER.get(module, f"{module}.other")


def _operator_nnz(op) -> int:
    return int(op.static.nnz) + sum(int(m.nnz) for _, m in op.terms)


def _triple_nnz(g) -> int:
    n = g.n_ports
    return (sum(_operator_nnz(g.S[i, j]) for i in range(n) for j in range(n))
            + sum(_operator_nnz(x) for x in g.L) + _operator_nnz(g.H))


def _generator_shape_nnz(gen) -> tuple[int, int]:
    static = gen.static if hasattr(gen, "static") else gen._static
    terms = gen.terms if hasattr(gen, "terms") else gen._terms
    return int(static.shape[0]), int(static.nnz) + sum(int(m.nnz) for _, m in terms)


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.task = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- span recording --------------------------------------------------

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None, parent, self.task])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _hook(self, fn, *args):
        """Run bookkeeping as a span of its own, so no layer is charged."""
        idx = self._open(HOOK, HOOK)
        try:
            fn(*args)
        finally:
            self._close(idx)

    def wrap(self, fn, layer, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                tracer._hook(after, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters taken at layer boundaries --------------------------------

    def _after_feedback(self, args, kwargs, out):
        g = args[0]
        wiring = args[1] if len(args) > 1 else kwargs["wiring"]
        pairs = getattr(wiring, "pairs", wiring)
        self.counters["slh.loop_dim"] = max(self.counters["slh.loop_dim"],
                                            len(pairs) * g.space.total_dim)
        self.counters["slh.reduced_nnz"] += _triple_nnz(out.triple)

    def _after_generator(self, args, kwargs, out):
        # liouvillian_coherent calls liouvillian: count outermost builds only.
        parent = self._stack[-1] if self._stack else -1
        while parent >= 0 and self.spans[parent][0] == HOOK:
            parent = self.spans[parent][4]
        if parent >= 0 and self.spans[parent][0] == "dynamics.generator":
            return
        dim, nnz = _generator_shape_nnz(out)
        self.counters["dynamics.generator_dim"] = max(self.counters["dynamics.generator_dim"], dim)
        self.counters["dynamics.generator_nnz"] += nnz

    def _after_steady_state(self, args, kwargs, out):
        gen = args[0] if args else kwargs["generator"]
        vec = out.rho.constant().toarray().reshape(-1)
        resid = float(np.linalg.norm(gen.static @ vec))
        self.counters["dynamics.steady_residual"] = max(
            self.counters["dynamics.steady_residual"], resid)

    def _wrap_integrate(self, fn):
        """integrate(rhs, y0, t_span, t_eval, ..., guard=...) with counted callables."""
        inner = self.wrap(fn, "dynamics.integrate", "dynamics.integrate")
        tracer = self

        def traced(rhs, *args, **kwargs):
            counted_rhs = tracer.wrap(rhs, "dynamics.rhs", "dynamics.rhs")
            if kwargs.get("guard") is not None:
                kwargs["guard"] = tracer.wrap(kwargs["guard"], "dynamics.guard", "dynamics.guard")
            return inner(counted_rhs, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _after_for(self, qualname):
        if qualname in GENERATOR_BUILDERS:
            return self._after_generator
        return {"slh.feedback_multi": self._after_feedback,
                "dynamics.steady_state": self._after_steady_state}.get(qualname)

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap every public function of the package at each name bound to it."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in MODULES}
        wrappers = {}
        for mod_name, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                qualname = f"{mod_name}.{attr}"
                if qualname == "dynamics.integrate":
                    wrappers[value] = self._wrap_integrate(value)
                else:
                    wrappers[value] = self.wrap(value, _layer(qualname), qualname,
                                                after=self._after_for(qualname))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for mod_name, cls_name, meth, layer in _METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, layer, f"{mod_name}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def self_times(self, task=None) -> dict[str, float]:
        """Layer -> summed self time (span minus its direct children)."""
        child_time = defaultdict(float)
        for layer, _, start, end, parent, _task in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (layer, _, start, end, _parent, span_task) in enumerate(self.spans):
            if task is None or span_task == task:
                out[layer] += (end - start) - child_time[idx]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return dict(out)

    def root_time(self) -> float:
        """Summed duration of top-level spans: the time the layers cover."""
        return sum(end - start for layer, _, start, end, parent, _t in self.spans
                   if parent < 0 and layer != HOOK)

    def dump(self) -> list[dict]:
        return [dict(layer=s[0], name=s[1], start=s[2], end=s[3], parent=s[4], task=s[5])
                for s in self.spans]
