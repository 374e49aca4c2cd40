"""Outside-in tracing of the g2forge layers.

Each layer is one package module.  The tracer wraps the functions and
methods each module defines, patching every place in the package that holds
the function object (module namespaces, class dictionaries and module-level
dictionaries such as the CLI's suite table), and restores the originals on
exit.  The program's source is never touched.

Every wrapped call updates per-function counters (calls, self time, and
inclusive time counted once for recursive calls).  A call whose caller is in
another layer also records a span (name, start, end, parent span, op id),
kept in memory and written out at the end.  A layer's self time is the sum
over its spans of the span's duration minus the part its child spans cover.

Trivial predicates and per-element helpers are not wrapped: a `verify` run
makes about 700k `RFrac.is_zero` calls, and wrapping them would trace a
different program.  Their time counts towards the caller.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

LAYERS = ("algebra", "roots", "kostant", "triform", "lattice", "phin", "arthur", "cli")

# Names never wrapped, in any class of any layer.
_TRIVIAL = frozenset({
    "is_zero", "is_one", "is_const", "const_value", "is_dominant", "is_nonnegative_combo",
    "__bool__", "__hash__", "__eq__", "__setattr__", "__repr__", "__getitem__",
    "row", "col", "coords", "leading", "_aligned",
})
# Per-element helpers of the algebra kernel, called hundreds of thousands of
# times per op; their time belongs to the kernel operation that calls them.
_HELPERS = frozenset({
    "algebra._as_q", "algebra._coerce_poly", "algebra._coerce_frac", "algebra._coerce_entry",
    "algebra._coerce_cyc", "algebra._merge_exps", "algebra._remap", "algebra._normalize_frac",
    "algebra.MPoly.__init__",
})

_BENCH = "bench"


def _short(attr: str) -> str:
    """`__mul__` -> `mul`, `__init__` -> `new`, other names unchanged."""
    if attr == "__init__":
        return "new"
    if attr.startswith("__") and attr.endswith("__"):
        return attr[2:-2]
    return attr


class Tracer:
    """Wraps the layer modules of one imported g2forge package.

    Use `with tracer.op(op_id): ...` around one op; wrappers are installed
    only inside that block, so untraced ops run the original program.
    """

    def __init__(self, package_modules: Dict[str, object]):
        self.names: List[str] = []       # function id -> "layer.Qual.name"
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self._active: List[int] = []
        self.divexact_hits = 0
        self.nonzero_products = 0
        self.dense_products = 0
        # Spans, one entry per boundary call, in creation order.  Typed arrays
        # keep a traced relation-probe op (about 150k spans) to a few MB.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.ops = 0
        self._op_id = -1
        self._stack: List[list] = []
        self._patches: List[Tuple[Callable[[str, object], None], str, object, object]] = []
        self._excluded = [0.0]   # bookkeeping time kept out of every span
        self.wrapped: Dict[int, Tuple[object, object]] = {}   # id(original) -> (original, wrapper)
        self._build(package_modules)

    # -- wrapping ---------------------------------------------------------

    def _build(self, modules: Dict[str, object]) -> None:
        self._register(_BENCH + ".op", _BENCH)   # function id 0: the op itself
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if callable(value) and getattr(value, "__module__", None) == mod.__name__:
                    if isinstance(value, type):
                        self._wrap_class(layer, value)
                    elif hasattr(value, "__code__"):
                        self._wrap_function(layer, attr, f"{layer}.{attr}", value)
        # Patch every alias of every wrapped function in the package.
        namespaces = []
        for layer in LAYERS:
            ns = vars(modules[layer])
            namespaces.append(ns)
            namespaces.extend(v for v in ns.values() if isinstance(v, dict))
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in self.wrapped:
                    self._patches.append((ns.__setitem__, key, value, self.wrapped[id(value)][1]))
        for layer in LAYERS:
            for cls in vars(modules[layer]).values():
                if isinstance(cls, type) and cls.__module__ == modules[layer].__name__:
                    for key, value in list(vars(cls).items()):
                        fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
                        if id(fn) in self.wrapped:
                            new = self.wrapped[id(fn)][1]
                            if value is not fn:
                                new = type(value)(new)
                            self._patches.append((lambda k, v, c=cls: setattr(c, k, v), key, value, new))

    def _wrap_class(self, layer, cls) -> None:
        if issubclass(cls, tuple):   # NamedTuple records: generated accessors only
            return
        for attr, value in vars(cls).items():
            fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
            if hasattr(fn, "__code__"):
                self._wrap_function(layer, attr, f"{layer}.{cls.__name__}.{_short(attr)}", fn)

    def _wrap_function(self, layer, attr, name, fn) -> None:
        if id(fn) in self.wrapped or attr in _TRIVIAL or f"{layer}.{fn.__qualname__}" in _HELPERS:
            return
        fid = self._register(name, layer)
        self.wrapped[id(fn)] = (fn, self._make_wrapper(fid, layer, fn, name))

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def _make_wrapper(self, fid: int, layer: str, fn, name: str):
        stack = self._stack
        perf = time.perf_counter
        excluded = self._excluded
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self._active
        s_name, s_start, s_end, s_parent, s_op = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        tracer = self
        count_hits = name == "algebra.MPoly.divexact"
        count_products = name == "algebra.SymMatrix.mul"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if count_products:
                h0 = perf()
                tracer._count_products(*args)
                excluded[0] += perf() - h0
            if parent[0] is layer:
                frame = [layer, 0.0, parent[2], -1]
            else:
                sid = len(s_name)
                s_name.append(fid)
                s_parent.append(parent[2])
                s_op.append(tracer._op_id)
                s_start.append(0.0)
                s_end.append(0.0)
                frame = [layer, 0.0, sid, sid]
            stack.append(frame)
            outer = active[fid] == 0
            active[fid] += 1
            t0 = perf() - excluded[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf() - excluded[0]
                active[fid] -= 1
                stack.pop()
                d = t1 - t0
                calls[fid] += 1
                self_s[fid] += d - frame[1]
                if outer:
                    incl_s[fid] += d
                parent[1] += d
                if frame[3] >= 0:
                    s_start[frame[3]] = t0
                    s_end[frame[3]] = t1
            if count_hits and result is not None:
                tracer.divexact_hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_products(self, a, b) -> None:
        """Scalar products with both operands nonzero, from the operands."""
        if type(b) is not type(a):
            return
        n = a.cols
        for k in range(n):
            nz_a = sum(1 for x in a.col(k) if not x.is_zero())
            if nz_a:
                self.nonzero_products += nz_a * sum(1 for x in b.row(k) if not x.is_zero())
        self.dense_products += a.rows * n * b.cols

    # -- ops --------------------------------------------------------------

    def op(self, op_id: int) -> "_OpScope":
        return _OpScope(self, op_id)

    def _install(self) -> None:
        for setter, key, _old, new in self._patches:
            setter(key, new)

    def _uninstall(self) -> None:
        for setter, key, old, _new in reversed(self._patches):
            setter(key, old)

    # -- results ----------------------------------------------------------

    def function(self, name: str) -> int:
        return self.names.index(name)

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer self and inclusive time, summed over all traced ops,
        computed from the spans alone."""
        n = len(self.span_name)
        dur = array("d", (end - start for start, end in zip(self.span_start, self.span_end)))
        covered = array("d", [0.0]) * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        layer_self = {layer: 0.0 for layer in LAYERS + (_BENCH,)}
        layer_incl = {layer: 0.0 for layer in LAYERS + (_BENCH,)}
        bit = {layer: 1 << i for i, layer in enumerate(layer_self)}
        above = array("q")   # per span: bit set of the layers of its ancestors
        for i in range(n):
            layer = self.layer_of[self.span_name[i]]
            p = self.span_parent[i]
            mask = above[p] | bit[self.layer_of[self.span_name[p]]] if p >= 0 else 0
            above.append(mask)
            layer_self[layer] += dur[i] - covered[i]
            if not mask & bit[layer]:
                layer_incl[layer] += dur[i]
        return layer_self, layer_incl

    def write_spans(self, path: str) -> None:
        """JSON lines: a header naming the fields and the functions, then one
        `[name, start, end, parent, op]` array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "names": self.names}))
            fh.write("\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},{self.span_start[i]:.7f},{self.span_end[i]:.7f},"
                         f"{self.span_parent[i]},{self.span_op[i]}]\n")


class _OpScope:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op_id = self.op_id
        sid = len(t.span_name)
        t.span_name.append(0)
        t.span_parent.append(-1)
        t.span_op.append(self.op_id)
        t.span_start.append(0.0)
        t.span_end.append(0.0)
        t._stack.append([_BENCH, 0.0, sid, sid])
        t._install()
        t.span_start[sid] = time.perf_counter() - t._excluded[0]
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter() - t._excluded[0]
        t._uninstall()
        frame = t._stack.pop()
        t.span_end[frame[2]] = end
        t.calls[0] += 1
        t.ops += 1
        return False
