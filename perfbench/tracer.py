"""Span tracing of trigrat's layers from outside the package.

``Tracer.install`` wraps the public callables of each layer module (its
functions and the methods of the classes it defines) and rebinds every
import site that refers to them, so a call from ``trig`` into
``cyclotomic.zeta_power`` goes through the wrapper just like a call from
the benchmark.  Each wrapper records one span (id, parent id, name, start,
end) in memory.  A layer's self time is the duration of its spans minus
the time their child spans cover.

Calls that stay inside one layer are not spans unless the callable is one
the per-layer metrics name (``NAMED``): a helper called by its own layer
adds nothing to that layer's self time, and skipping it keeps the cost of
tracing down.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "sweep", "trig", "cyclotomic", "polynomials", "kummer", "numtheory")

# span names the metrics use, with the metric prefix each one feeds
NAMED = {
    "cli.run_cli": "cli.run_cli",
    "sweep.verify_theorem_sweep": "sweep.verify_theorem_sweep",
    "cyclotomic.CycElem.__mul__": "cyclotomic.mul",
    "cyclotomic.CycElem.__rmul__": "cyclotomic.mul",
    "cyclotomic.CycElem.inverse": "cyclotomic.inverse",
    "cyclotomic.CycElem.galois_apply": "cyclotomic.galois_apply",
    "cyclotomic.CycElem.embed": "cyclotomic.embed",
    "cyclotomic.zeta_power": "cyclotomic.zeta_power",
    "cyclotomic.express_in_submodulus": "cyclotomic.express_in_submodulus",
    "polynomials.poly_xgcd": "polynomials.poly_xgcd",
    "polynomials.RatPoly.__divmod__": "polynomials.divmod",
    "trig.classify": "trig.classify",
    "trig.trig_elem": "trig.trig_elem",
    "kummer.nth_root_in_cyclotomic": "kummer.nth_root_in_cyclotomic",
    "kummer.subset_factorizations": "kummer.subset_factorizations",
    "numtheory.prime_factorization": "numtheory.prime_factorization",
}
# lru caches whose hit ratio is reported, by metric prefix
CACHED = {
    "trig.classify": ("trig", "classify"),
    "trig.trig_elem": ("trig", "trig_elem"),
    "numtheory.prime_factorization": ("numtheory", "prime_factorization"),
}
JUSTIFICATIONS = ("constructed_witness", "exponent_reduced", "galois_invariance", "theorem_1_3")
# not worth a span: identity and bookkeeping dunders
_SKIP_METHODS = {"__new__", "__setattr__", "__delattr__", "__reduce__", "__reduce_ex__",
                 "__hash__", "__repr__", "__init_subclass__", "__getnewargs__", "__dir__",
                 "__format__"}


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    """Records spans for one process; ``install`` once, ``uninstall`` to
    restore the package."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.errors: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.subset_found = 0
        self.table_moduli: set[int] = set()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._caches = {}  # metric prefix -> the lru-cached callable

    # -- wrapping

    def _wrap(self, name: str, layer: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        named = name in NAMED
        hook = {
            "kummer.nth_root_in_cyclotomic": lambda v: self.verdicts.update([str(v.justification)]),
            "kummer.subset_factorizations": self._count_found,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not named and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count once, where it is raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                spans.append((sid, parent, name, start, clock()))
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _count_found(self, found) -> None:
        self.subset_found += len(found)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("trigrat")
        modules = {layer: importlib.import_module(f"trigrat.{layer}") for layer in LAYERS}
        self._caches = {metric: getattr(modules[layer], attr) for metric, (layer, attr) in CACHED.items()}
        self._caches["cyclotomic.power_table"] = modules["cyclotomic"]._power_table
        replacements = {}  # id(original) -> wrapper, for rebinding import sites
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and _is_public(attr):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        cyclotomic = modules["cyclotomic"]
        table = cyclotomic._power_table
        moduli = self.table_moduli

        def recording_table(m):
            moduli.add(m)
            return table(m)

        replacements[id(table)] = (table, recording_table)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._patch(module, attr, replacements[id(obj)][1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP_METHODS or not _is_public(attr):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, layer, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results

    def write_spans(self, path: str) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as out:
            json.dump({"names": names,
                       "spans": [[sid, parent, index[name], start, end]
                                 for sid, parent, name, start, end in self.spans]},
                      out, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-name counts and times, per-layer self time and errors, and the
        cache and verdict counts, all summable across processes."""
        covered = defaultdict(float)  # span id -> time its children cover
        subset_ids = set()
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            if name == "kummer.subset_factorizations":
                subset_ids.add(sid)
        calls, seconds, layer_self = Counter(), Counter(), Counter()
        candidates = 0
        for sid, parent, name, start, end in self.spans:
            layer_self[name.split(".", 1)[0]] += end - start - covered[sid]
            metric = NAMED.get(name)
            if metric is not None:
                calls[metric] += 1
                seconds[metric] += end - start
            if metric == "polynomials.divmod" and parent in subset_ids:
                candidates += 1
        caches = {}
        for metric, cached in self._caches.items():
            info = cached.cache_info()
            caches[metric] = [info.hits, info.misses]
        return {
            "calls": dict(calls),
            "seconds": dict(seconds),
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
            "layer_errors": {layer: self.errors[layer] for layer in LAYERS},
            "caches": caches,
            "table_moduli": sorted(self.table_moduli),
            "verdicts": {j: self.verdicts[j] for j in JUSTIFICATIONS},
            "subset_candidates": candidates,
            "subset_found": self.subset_found,
            "spans": len(self.spans),
        }
