"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces every public function of the layer modules, in
every module namespace that holds it (so `ybhomology.kernel_mod`, the
name `cohomology_group` calls, is timed as `modalg.kernel_mod`), plus a
few methods that do a layer's work.  A call opens a span when it crosses
into another layer or is one of the named stages below; a call inside
its own layer that is not a stage folds into the caller's span and is
only counted.  Spans stay in memory; self time is a span's duration less
the duration of its child spans.
"""

from __future__ import annotations

import importlib
import time
import types
import weakref
from collections import Counter, defaultdict

LAYERS = ("ybcore", "ybhomology", "modalg", "vknots")
MODULES = LAYERS + ("cli", "reference")

# functions whose own self time is reported, even when called from
# inside their layer
STAGES = {
    "ybcore.ybe_failure", "ybcore.extend", "ybcore.make_omega",
    "ybcore.omega_extension_check",
    "ybhomology.coboundary_matrix", "ybhomology.coboundary",
    "ybhomology.is_cocycle", "ybhomology.obstruction_cocycle",
    "modalg.kernel_mod", "modalg.quotient_invariant_factors",
    "modalg.solve_mod",
    "vknots.count_colorings", "vknots.state_sum", "vknots.colorings",
}

# methods that carry a layer's work: (module, class, method)
METHODS = (
    ("ybcore", "FiniteYBSet", "ybe_failure"),
    ("ybcore", "FiniteYBSet", "verify_birack"),
    ("ybcore", "FiniteYBSet", "biquandle_witness"),
    ("ybcore", "FiniteYBSet", "from_json"),
    ("ybcore", "CochainTable", "from_function"),
    ("ybcore", "CochainTable", "from_json"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(
            f"{package.__name__}.{name}") for name in MODULES}
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self._seen: dict = {}
        self._saved: list = []
        self._hooks = {
            "ybcore.ybe_failure": self._count_ybe,
            "ybhomology.color_cube": self._count_cube,
            "ybhomology.coboundary_matrix": self._count_matrix,
            "modalg.kernel_mod": self._count_kernel,
            "vknots.count_colorings": self._count_colorings,
            "vknots.state_sum": self._count_colorings,
            "vknots.colorings": self._count_colorings,
        }

    # -- counters, called with the arguments and result of each call
    def _count_ybe(self, args, result):
        self.counts["ybe_failure.calls"] += 1
        solution = args[0]
        # FiniteYBSet defines __eq__ without __hash__: key on identity
        known = self._seen.get(id(solution))
        if known is not None and known() is solution:
            return
        self._seen[id(solution)] = weakref.ref(solution)
        n = solution.size
        self.counts["ybe.evaluated"] += 1
        if result is None:
            self.counts["ybe.passed"] += 1
            self.counts["triples_checked"] += n ** 3
        else:
            x, y, z = result
            self.counts["triples_checked"] += (x * n + y) * n + z + 1

    def _count_cube(self, args, result):
        self.counts["cubes_colored"] += 1

    def _count_matrix(self, args, result):
        self.counts["matrix_entries"] += result.rows * result.cols

    def _count_kernel(self, args, result):
        self.counts["kernel_rows"] += args[0].rows
        self.counts["kernel_generators"] += len(result)

    def _count_colorings(self, args, result):
        X, word = args[0], args[-1]
        self.counts["tuples_enumerated"] += X.size ** word.strands
        found = getattr(result, "colorings", None)
        if found is None:
            found = getattr(result, "count", result)
        self.counts["colorings_found"] += found

    # -- wrapping
    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack
        stage = name in STAGES
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stage and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                stack.append((index, layer))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    parent = stack[-1][0] if stack else -1
                    spans[index] = (name, layer, start, end, parent, self.job)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for short, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value,
                                                          types.FunctionType):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home not in MODULES:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{home}.{attr}",
                                                     home)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for attr, value in list(vars(self.package).items()):
            if id(value) in wrappers:
                self._saved.append((self.package, attr, value))
                setattr(self.package, attr, wrappers[id(value)])
        for home, cls_name, attr in METHODS:
            cls = getattr(self.modules[home], cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            name = f"{home}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name,
                                                          home)))
            else:
                setattr(cls, attr, self._wrap(raw, name, home))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._seen.clear()

    # -- reduction
    def self_times(self):
        """(seconds by layer, seconds by function name) of self time."""
        inner = [0.0] * len(self.spans)
        for name, layer, start, end, parent, job in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        by_layer: dict = defaultdict(float)
        by_name: dict = defaultdict(float)
        for i, (name, layer, start, end, parent, job) in enumerate(self.spans):
            own = end - start - inner[i]
            by_layer[layer] += own
            by_name[name] += own
        return by_layer, by_name

    def top_level(self) -> list:
        """(start, end) of the spans no other span encloses."""
        return [(start, end) for _, _, start, end, parent, _ in self.spans
                if parent < 0]
