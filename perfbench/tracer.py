"""Outside-in tracing of the lfunlab modules for the per-layer benchmark metrics.

Every public function and public method of every lfunlab module is wrapped,
and the wrapper is installed at every import site: modules that bind a name
with `from .x import f` hold their own reference, so each module namespace
is scanned for the original object.  A layer is a module.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame, so self time = duration - time in wrapped children.  Calls of
the span functions are also kept as spans (name, start, end, parent).
Scalar functions called once per residue keep only an aggregated count and
time, so the trace stays small and cheap.

A few counters are computed from arguments rather than measured, and are
labelled so in their units: dense-matrix and exponent-table bytes and the
number of terms the truncated route folds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import weakref
from dataclasses import dataclass, field
from statistics import median

# Scalar functions called per residue or per modulus: aggregated, no spans.
AGGREGATED = {
    "arith.factorize", "arith.is_prime", "arith.euler_phi", "arith.moebius", "arith.divisors",
    "specfun.digamma", "specfun.hurwitz_zeta", "specfun.harmonic", "specfun.floor_ratio",
    "expsum.complete_sum", "expsum.difference_poly",
    "chars.is_principal", "chars.char_value", "chars.conjugate_index",
}
# Methods of small value types are aggregated as well.
AGGREGATED_CLASSES = {"Factorization", "ShiftParam", "Polynomial"}


@dataclass
class FnStat:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def _is_public_function(obj) -> bool:
    return inspect.isfunction(obj) or (hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"))


def package_modules(package) -> list:
    return [importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """Wraps the package once; stats and spans are reset per measured pass."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = package_modules(package)
        self.layers = [m.__name__.rsplit(".", 1)[1] for m in self.modules]
        self.stats: dict[str, FnStat] = {}
        self.counters: dict[str, float] = {}
        self.originals: dict = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []
        self._tables: weakref.WeakSet = weakref.WeakSet()
        self._next_id = 0
        self._install()

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(key, owner, attribute, original, aggregated) for every public function and method."""
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = {n for n, o in vars(mod).items()
                     if not n.startswith("_") and _is_public_function(o)
                     and getattr(o, "__module__", None) == mod.__name__}
            for name in sorted(names):
                yield f"{layer}.{name}", mod, name, getattr(mod, name), False
            for cname, cls in sorted(vars(mod).items()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for mname, meth in sorted(vars(cls).items()):
                    if mname.startswith("_") or not inspect.isfunction(meth):
                        continue
                    key = f"{layer}.{mname}" if mname not in names else f"{layer}.{cname}.{mname}"
                    yield key, cls, mname, meth, cname in AGGREGATED_CLASSES

    def _install(self) -> None:
        self._default_truncation = importlib.import_module(f"{self.package.__name__}.lfun").default_truncation
        replaced = {}
        for key, owner, attr, original, aggregated in list(self._targets()):
            wrapper = self._wrap(key, original, aggregated or key in AGGREGATED)
            self.stats[key] = FnStat()
            self.originals[key] = original
            setattr(owner, attr, wrapper)
            if not inspect.isclass(owner):
                replaced[id(original)] = (original, wrapper)
        for mod in [self.package, *self.modules]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap(self, key: str, fn, aggregated: bool):
        pre, post = _HOOKS.get(key, (None, None))
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, key, args, kwargs)
            if aggregated:
                span_id = None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                st = tracer.stats[key]
                st.calls += 1
                st.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span_id is not None:
                    st.durations.append(duration)
                    tracer.spans.append((span_id, key, start, end, _span_parent(stack)))
            if post is not None:
                post(tracer, key, args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- per-pass bookkeeping ---------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        for key in self.stats:
            self.stats[key] = FnStat()
        self.counters = {name: 0 for name, owner in COUNTERS.items() if owner in self.stats}
        self.spans = []
        self._tables = weakref.WeakSet()
        self._next_id = 0

    def pass_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of the pass just run."""
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in self.layers}
        for key, st in self.stats.items():
            layer_self[key.split(".", 1)[0]] += st.self_s
            out[f"{key}.calls"] = st.calls
            out[f"{key}.self_s"] = st.self_s
            if st.durations:
                ordered = sorted(st.durations)
                out[f"{key}.p50_s"] = median(ordered)
                out[f"{key}.p90_s"] = ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
            else:
                out[f"{key}.p50_s"] = out[f"{key}.p90_s"] = 0.0
        out.update(self.counters)
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["trace.attributed_s"] = sum(layer_self.values())
        out["trace.spans"] = len(self.spans)
        return out


def _span_parent(stack: list[list]) -> int | None:
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame[1]
    return None


# ---------------------------------------------------------------------------
# Counters.  Each belongs to a function; when that function is gone the
# counter is absent too.  Hit counts of the on-disk cache come from return
# values, byte counts of the dense matrices and truncation lengths are
# computed from arguments, and the cache bytes written are measured on disk
# by the runner.

COUNTERS = {
    "chars.values_matrix.materialized": "chars.values_matrix",
    "chars.values_matrix.bytes": "chars.values_matrix",
    "chars.exponent_table.bytes": "chars.build_character_table",
    "chars.get_table.hits": "chars.get_table",
    "chars.get_table.misses": "chars.get_table",
    "cache.get_table.hits": "cache.get_table",
    "cache.get_lvec.hits": "cache.get_lvec",
    "cache.put_table.bytes": "cache.put_table",
    "cache.put_lvec.bytes": "cache.put_lvec",
    "lfun.truncated_vector.terms": "lfun.truncated_vector",
    "lfun.l1_chi_a_truncated.terms": "lfun.l1_chi_a_truncated",
}


def _values_matrix_pre(tracer, key, args, kwargs):
    # One materialisation per distinct table object: the matrix is cached on it.
    table = args[0]
    if table not in tracer._tables:
        tracer._tables.add(table)
        tracer.count("chars.values_matrix.materialized", 1)
        tracer.count("chars.values_matrix.bytes", 16 * table.phi * table.q)


def _exponent_table_post(tracer, key, args, kwargs, table):
    if table is not None:
        tracer.count("chars.exponent_table.bytes", 4 * table.phi * table.q)


def _cache_table_post(tracer, key, args, kwargs, table):
    if table is not None:
        tracer.count("cache.get_table.hits", 1)
    _exponent_table_post(tracer, key, args, kwargs, table)


def _cache_lvec_post(tracer, key, args, kwargs, vec):
    if vec is not None:
        tracer.count("cache.get_lvec.hits", 1)


def _terms_pre(tracer, key, args, kwargs):
    bound = inspect.signature(tracer.originals[key]).bind(*args, **kwargs).arguments
    n_terms = bound.get("n_terms")
    if n_terms is None:
        n_terms = tracer._default_truncation(bound["t"].q)
    tracer.count(f"{key}.terms", n_terms)


_HOOKS = {
    "chars.values_matrix": (_values_matrix_pre, None),
    "chars.build_character_table": (None, _exponent_table_post),
    "cache.get_table": (None, _cache_table_post),
    "cache.get_lvec": (None, _cache_lvec_post),
    "lfun.truncated_vector": (_terms_pre, None),
    "lfun.l1_chi_a_truncated": (_terms_pre, None),
}
