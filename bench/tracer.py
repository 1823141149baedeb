"""Per-layer tracing by wrapping the public functions of each ncdet module.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces every public
module-level function of the traced modules, and the arithmetic, rendering
and public methods of the element and matrix classes, with timing wrappers,
and ``uninstall`` puts the originals back.  A layer is named after the module
that defines the function.  Two exceptions follow the layer map of the
benchmark: ``CentralPoly`` arithmetic is the sub-layer ``charpoly.poly``, and
the ``__str__`` methods (canonical rendering) belong to ``parsing.render``.

Every wrapped call pushes a frame; its self time is its duration minus the
time its wrapped children cover.  Calls of the hot element layers (L0) and of
``perm_sign`` are only aggregated, because sdet alone makes hundreds of
thousands of them; every other call is kept as a span (name, start, end,
parent span, operation id) in memory and written out when the run ends.
The wrapper's own bookkeeping is kept out of every self time and summed as
``overhead_s``, so per-layer self times plus ``unattributed_s`` (the harness'
own time between layer calls, plus that overhead) add up to the traced wall
time exactly.

Ring multiplications are attributed to the frame that issued them: a product
called directly from a determinants function counts in
``determinants.ring_mults``, one called from ``Matrix.__mul__`` in
``matrices.mul.ring_mults``.  Integer matrices hold plain ints, whose
products cannot be wrapped, so a traced run builds them from
``Tracer.int_type``, an ``int`` subclass that counts its products.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

L0_LAYERS = frozenset({"freealg", "grassmann", "charpoly.poly"})

# Layers whose self times, together with ``unattributed_s``, partition the
# traced wall time.
LAYERS = (
    "freealg",
    "grassmann",
    "charpoly.poly",
    "charpoly",
    "matrices",
    "perms",
    "determinants",
    "verify",
    "parsing",
    "cli",
)

MODULE_LAYERS = {
    "ncdet.freealg": "freealg",
    "ncdet.grassmann": "grassmann",
    "ncdet.charpoly": "charpoly",
    "ncdet.matrices": "matrices",
    "ncdet.perms": "perms",
    "ncdet.determinants": "determinants",
    "ncdet.verify": "verify",
    "ncdet.parsing": "parsing",
    "ncdet.cli": "cli",
}

CLASS_LAYERS = {
    "FreePoly": "freealg",
    "GrassmannElem": "grassmann",
    "CentralPoly": "charpoly.poly",
    "Matrix": "matrices",
    "MatrixDocument": "parsing",
}

# Function names that share one metric name.
FUNCTION_NAMES = {
    "symmetric_determinant": "determinants.sdet",
    "adjoint_sequence": "determinants.kdet",
    "sequence_product": "determinants.kdet",
    "right_determinant": "determinants.kdet",
    "left_determinant": "determinants.kdet",
    "scalar_cayley_hamilton_check": "charpoly.scalar_ch",
    "scalar_ch_residuals": "charpoly.scalar_ch",
    "run_verify": "verify.run",
    "load_matrix": "parsing.load",
    "loads_matrix": "parsing.load",
    "parse_expression": "parsing.load",
    "to_matrix": "parsing.load",
}

DUNDER_NAMES = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__eq__": "eq",
}

RENDER = "parsing.render"
# Aggregated only: too many calls to keep one span each.
UNRECORDED = L0_LAYERS | {"perms.perm_sign"}


def term_count(value) -> int:
    """Number of stored terms of a ring element, matrix or polynomial."""
    terms = getattr(value, "_terms", None)
    if terms is not None:
        return len(terms)
    coeffs = getattr(value, "_coeffs", None)
    if coeffs is not None:
        return sum(term_count(c) for c in coeffs)
    rows = getattr(value, "rows", None)
    if rows is not None:
        return sum(term_count(e) for row in rows for e in row)
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return 1 if value else 0
    return 0


class Tracer:
    """Collects spans, self times and counters while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # frames: [name, layer, covered_s, span_id]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peak_terms: Counter = Counter()
        self.overhead_s = 0.0
        self.root_self_s = 0.0
        self.wall_s = 0.0
        self.op_id = None
        self._depth: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []
        self.int_type = _counting_int(self)

    # ------------------------------------------------------------ install

    def install(self, modules) -> None:
        """Wrap the public functions and class methods of the given modules."""
        replaced = {}
        for module in modules:
            layer = MODULE_LAYERS.get(module.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    if attr in CLASS_LAYERS:
                        self._wrap_class(value, CLASS_LAYERS[attr])
                elif callable(value):
                    name = FUNCTION_NAMES.get(attr, f"{layer}.{attr}")
                    replaced[id(value)] = (value, self._wrap(value, name, layer))
        # Rebind every alias (``from .determinants import preadjoint``)
        # across the package, so calls between modules are traced too.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "ncdet" and not name.startswith("ncdet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls, layer) -> None:
        for attr, value in list(vars(cls).items()):
            if not callable(value) or isinstance(value, (type, staticmethod)):
                continue
            if attr == "__str__":
                name, wrapped_layer = RENDER, "parsing"
            elif attr in DUNDER_NAMES:
                name, wrapped_layer = f"{layer}.{DUNDER_NAMES[attr]}", layer
            elif attr.startswith("_"):
                continue
            else:
                name = FUNCTION_NAMES.get(attr, f"{layer}.{attr}")
                wrapped_layer = name.rsplit(".", 1)[0] if attr in FUNCTION_NAMES else layer
            self._undo.append((cls, attr, value))
            setattr(cls, attr, self._wrap(value, name, wrapped_layer))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, layer):
        post = _POST_HOOKS.get(name)
        record = layer not in UNRECORDED and name not in UNRECORDED
        tracer = self
        stack = self.stack
        depth = self._depth

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = clock()
            parent = stack[-1] if stack else None
            span_id = None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, layer, 0.0, span_id if record else (parent[3] if parent else None)]
            stack.append(frame)
            depth[name] += 1
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                outermost = depth[name] == 1
                depth[name] -= 1
                duration = t1 - t0
                own = duration - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.layer_self_s[layer] += own
                if outermost:
                    tracer.inclusive_s[name] += duration
                if ok and post is not None:
                    post(tracer, parent, args, result)
                if record:
                    tracer.spans.append(
                        (span_id, name, t0, t1, parent[3] if parent else None, tracer.op_id)
                    )
                t_out = clock()
                if parent is not None:
                    parent[2] += t_out - t_in
                tracer.overhead_s += (t0 - t_in) + (t_out - t1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_mult(self, parent) -> None:
        """Attribute one ring multiplication to the frame that issued it."""
        if parent is None or parent[1] in L0_LAYERS:
            return
        self.counts[parent[1] + ".ring_mults"] += 1
        self.counts[parent[0] + ".ring_mults"] += 1

    # ------------------------------------------------------------ operations

    def run_op(self, op_id, fn):
        """Run one operation under a root frame; returns (result, seconds).

        Exceptions propagate after the time is accounted.
        """
        frame = ["op", "bench", 0.0, None]
        self.op_id = op_id
        self.stack.append(frame)
        self.enabled = True
        t0 = clock()
        try:
            result = fn()
        finally:
            t1 = clock()
            self.enabled = False
            self.stack.pop()
            self.op_id = None
            self.wall_s += t1 - t0
            self.root_self_s += (t1 - t0) - frame[2]
        return result, t1 - t0

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (values only)."""
        s, c, inc, n = self.self_s, self.counts, self.inclusive_s, self.calls
        layer_self = self.layer_self_s
        pairs = c["grassmann.mul.term_pairs"]
        reported = c["verify.reported_s"]
        out = {
            "freealg.add.calls": n["freealg.add"],
            "freealg.add.terms_copied": c["freealg.add.terms_copied"],
            "freealg.add.self_s": s["freealg.add"],
            "freealg.mul.calls": n["freealg.mul"],
            "freealg.mul.term_pairs": c["freealg.mul.term_pairs"],
            "freealg.mul.self_s": s["freealg.mul"],
            "freealg.peak_terms": self.peak_terms["freealg"],
            "grassmann.mul.calls": n["grassmann.mul"],
            "grassmann.mul.term_pairs": pairs,
            "grassmann.mul.useful_ratio": c["grassmann.mul.useful_pairs"] / pairs if pairs else 0.0,
            "grassmann.mul.self_s": s["grassmann.mul"],
            "grassmann.add.terms_copied": c["grassmann.add.terms_copied"],
            "grassmann.add.self_s": s["grassmann.add"],
            "charpoly.poly.mul.calls": n["charpoly.poly.mul"],
            "charpoly.poly.mul.self_s": s["charpoly.poly.mul"],
            "charpoly.poly.add.self_s": s["charpoly.poly.add"],
            "matrices.mul.calls": n["matrices.mul"],
            "matrices.mul.ring_mults": c["matrices.mul.ring_mults"],
            "matrices.mul.self_s": s["matrices.mul"],
            "perms.perm_sign.calls": n["perms.perm_sign"],
            "determinants.sdet.calls": n["determinants.sdet"],
            "determinants.sdet.self_s": s["determinants.sdet"],
            "determinants.preadjoint.calls": n["determinants.preadjoint"],
            "determinants.preadjoint.self_s": s["determinants.preadjoint"],
            "determinants.trace_of_product.self_s": s["determinants.trace_of_product"],
            "determinants.kdet.inclusive_s": inc["determinants.kdet"],
            "determinants.ring_mults": c["determinants.ring_mults"],
            "determinants.result_terms": c["determinants.result_terms"],
            "charpoly.characteristic_polynomial.inclusive_s": inc["charpoly.characteristic_polynomial"],
            "charpoly.cayley_hamilton_witness.inclusive_s": inc["charpoly.cayley_hamilton_witness"],
            "charpoly.scalar_ch.inclusive_s": inc["charpoly.scalar_ch"],
            "verify.checks": c["verify.checks"],
            "verify.reported_s": reported,
            "verify.unattributed_s": inc["verify.run"] - reported,
            "parsing.load.self_s": s["parsing.load"],
            "parsing.render.self_s": s[RENDER],
            "parsing.render.bytes": c["parsing.render.bytes"],
            "cli.main.inclusive_s": inc["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["unattributed_s"] = self.root_self_s + self.overhead_s
        out["traced_wall_s"] = self.wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, labels) -> None:
        """Write recorded spans and aggregate call statistics as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, label in enumerate(labels):
                fh.write(json.dumps({"op": op_id, "label": label}) + "\n")
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
            for name in sorted(self.calls):
                fh.write(
                    json.dumps(
                        {"aggregate": name, "calls": self.calls[name],
                         "self_s": self.self_s[name], "inclusive_s": self.inclusive_s[name]}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------- post hooks
# A hook runs after a successful call, outside the call's own timing.


def _post_add(prefix):
    def hook(tracer, parent, args, result):
        tracer.counts[prefix + ".add.terms_copied"] += term_count(args[0])
        size = len(result._terms)
        if size > tracer.peak_terms[prefix]:
            tracer.peak_terms[prefix] = size

    return hook


def _post_free_mul(tracer, parent, args, result):
    tracer.counts["freealg.mul.term_pairs"] += term_count(args[0]) * term_count(args[1])
    size = len(result._terms)
    if size > tracer.peak_terms["freealg"]:
        tracer.peak_terms["freealg"] = size
    tracer.count_mult(parent)


def _post_grassmann_mul(tracer, parent, args, result):
    left = args[0]._terms
    right = getattr(args[1], "_terms", None)
    if right is None:
        right = {0: args[1]} if args[1] else {}
    tracer.counts["grassmann.mul.term_pairs"] += len(left) * len(right)
    tracer.counts["grassmann.mul.useful_pairs"] += sum(
        1 for m1 in left for m2 in right if not m1 & m2
    )
    tracer.count_mult(parent)


def _post_poly_mul(tracer, parent, args, result):
    tracer.count_mult(parent)


def _post_result_terms(tracer, parent, args, result):
    if parent is None or parent[1] != "determinants":
        tracer.counts["determinants.result_terms"] += term_count(result)


def _post_render(tracer, parent, args, result):
    if parent is None or parent[0] != RENDER:
        tracer.counts["parsing.render.bytes"] += len(result.encode("utf-8"))


def _post_verify(tracer, parent, args, result):
    tracer.counts["verify.checks"] += len(result.checks)
    tracer.counts["verify.reported_s"] += sum(c.elapsed_ms for c in result.checks) / 1000.0


_POST_HOOKS = {
    "freealg.add": _post_add("freealg"),
    "freealg.mul": _post_free_mul,
    "grassmann.add": _post_add("grassmann"),
    "grassmann.mul": _post_grassmann_mul,
    "charpoly.poly.mul": _post_poly_mul,
    "determinants.sdet": _post_result_terms,
    "determinants.preadjoint": _post_result_terms,
    "determinants.preadjoint_via_minors": _post_result_terms,
    "determinants.kdet": _post_result_terms,
    "determinants.trace_of_product": _post_result_terms,
    RENDER: _post_render,
    "verify.run": _post_verify,
}


def _counting_int(tracer):
    """An int subclass whose products count as ring multiplications."""

    class CountingInt(int):
        __slots__ = ()

        def __mul__(self, other):
            value = int.__mul__(self, other)
            if value is NotImplemented:
                return value
            if tracer.enabled:
                tracer.counts["int.mul.calls"] += 1
                tracer.count_mult(tracer.stack[-1] if tracer.stack else None)
            return CountingInt(value)

        __rmul__ = __mul__

        def __add__(self, other):
            value = int.__add__(self, other)
            return value if value is NotImplemented else CountingInt(value)

        __radd__ = __add__

        def __sub__(self, other):
            value = int.__sub__(self, other)
            return value if value is NotImplemented else CountingInt(value)

        def __rsub__(self, other):
            value = int.__rsub__(self, other)
            return value if value is NotImplemented else CountingInt(value)

        def __neg__(self):
            return CountingInt(-int(self))

    return CountingInt
