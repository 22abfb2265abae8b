"""Runtime tracing of planarlab's layers from outside the package.

`Tracer.install` replaces the public functions of every layer module (and a
listed set of methods) with wrappers that record a span per call: name,
start, end and the enclosing span.  Spans stay in memory; `write_spans`
saves them at the end of the run.  A span's self time is its duration minus
the time of the spans nested in it, accumulated per span name.

The field kernels are hot leaf calls (tens of thousands per census pass), so
they are aggregated instead of kept as spans: calls, output elements and
time of the outermost kernel call, with nested kernel calls (pow_vec calling
mul_vec) left to the outer call.  `uninstall` restores every original, so an
untraced pass in the same process runs the unmodified code.

Names bound at import in other modules (``from .polyfun import parse_poly``)
are rebound too.  `make_field` is the exception: the lru_cache statistics
give its counts, as they do for `binom.expansion`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("field", "polyfun", "binom", "classify", "cyclo", "mub", "search")

VEC_KERNELS = ("add_vec", "sub_vec", "neg_vec", "mul_vec", "pow_vec", "pow_elemwise")
SCALAR_OPS = ("add", "sub", "neg", "mul", "pow", "inv")
TABLES = {"trace_table": "trace", "trace_bilinear": "tb", "power_table": "pow"}

# Methods traced as spans, by module; module-level public functions are found
# by inspection.
METHODS = {
    "polyfun": ("Poly.value_table", "Poly.__call__", "Poly.reduce", "Poly.__add__",
                "Poly.__sub__", "Poly.__mul__", "Poly.__rmul__", "Poly.__neg__"),
    "search": ("FamilySpec.candidate", "SearchReport.to_json_dict"),
    "mub": ("MubSet.exponent_matrix", "MubVerification.to_json_dict"),
}
UNTRACED = {"field.make_field"}  # bound at import elsewhere; cache_info counts it

CLASSIFY_DECISIONS = {
    "permutation_witness": None, "additive_witness": None, "planar_witness": None,
    "alltop_witness": None, "is_permutation": True, "is_additive_function": True,
    "is_planar": True, "is_alltop": True,
}

SPAN_CAP = 100_000  # spans kept for the trace file; self times cover all calls


class Tracer:
    def __init__(self, pl):
        self.pl = pl
        self._patches: list[tuple[object, str, object]] = []
        self._lru = {"make_field": pl.field.make_field, "expansion": pl.binom.expansion}
        self.reset()

    # -- bookkeeping ----------------------------------------------------

    def reset(self) -> None:
        self.stack: list[list] = []  # [span id, child time]
        self.depth: Counter = Counter()  # open spans per layer
        self.in_kernel = False
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered = 0.0  # time inside top-level spans and kernel calls
        self.spans: list[tuple] = []
        self.n_spans = 0
        self._cache0 = {k: fn.cache_info() for k, fn in self._lru.items()}

    def _close(self, dur: float) -> None:
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.covered += dur

    def cache_delta(self, key: str) -> tuple[int, int]:
        now, then = self._lru[key].cache_info(), self._cache0[key]
        return now.hits - then.hits, now.misses - then.misses

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, layer: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.n_spans
            tracer.n_spans += 1
            parent = stack[-1][0] if stack else -1
            outer = tracer.depth[layer] == 0
            frame = [sid, 0.0]
            stack.append(frame)
            tracer.depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.depth[layer] -= 1
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                tracer._close(dur)
                if sid < SPAN_CAP:
                    tracer.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(args, result, outer)
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's interface
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _kernel(self, name: str, fn, elems: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_kernel:
                return fn(*args, **kwargs)
            tracer.in_kernel = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer.in_kernel = False
                tracer.self_s[name] += dur
                tracer.calls[name] += 1
                tracer._close(dur)
            if elems:
                tracer.counts["field.vec_elems"] += result.size
            return result

        return wrapper

    def _table(self, key: str, fget):
        tracer = self

        def wrapper(fld):
            if tracer.in_kernel:
                return fget(fld)
            name = "field.table_hit" if key in fld._cache else "field.table_build"
            tracer.in_kernel = True
            t0 = perf_counter()
            try:
                return fget(fld)
            finally:
                dur = perf_counter() - t0
                tracer.in_kernel = False
                tracer.self_s[name] += dur
                tracer.calls[name] += 1
                tracer._close(dur)

        return property(wrapper, doc=fget.__doc__)

    # -- counters hooked onto spans ------------------------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def decision(positive):
            def hook(args, result, outer):
                if outer:
                    c["classify.calls"] += 1
                    c["classify.positives"] += result is positive
            return hook

        def full_rows(power):
            decide = decision(None)

            def hook(args, result, outer):
                c["classify.full_rows"] += (args[0].field.q - 1) ** power
                decide(args, result, outer)
            return hook

        def run_search(args, report, outer):
            c["search.candidates"] += report.tested
            c["search.hits"] += len(report.hit_indices)

        def delta(args, result, outer):
            c["polyfun.delta_terms_out"] += len(result.terms)

        def verify(args, report, outer):
            c["mub.vector_pairs"] += report.pairs_checked
            c["mub.violations"] += len(report.violations)

        def entries(m):
            return len(m.phase_bases()) * m.field.q ** 2

        def export(args, data, outer):
            c["mub.io_bytes"] += len(data)
            c["mub.phase_entries"] += entries(args[0])

        def import_(args, m, outer):
            c["mub.io_bytes"] += len(args[0])
            c["mub.phase_entries"] += entries(m)

        hooks = {f"classify.{n}": decision(pos) for n, pos in CLASSIFY_DECISIONS.items()}
        hooks["classify.planar_witness"] = full_rows(1)
        hooks["classify.alltop_witness"] = full_rows(2)
        hooks.update({
            "search.run_search": run_search,
            "polyfun.delta": delta,
            "mub.verify_mub_set": verify,
            "mub.export_mubs": export,
            "mub.import_mubs": import_,
        })
        return hooks

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Replace `original` wherever a planarlab module namespace binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "planarlab" and not modname.startswith("planarlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pl = self.pl
        hooks = self._hooks()
        FieldSpec = pl.field.FieldSpec
        for name in VEC_KERNELS:
            self._patch(FieldSpec, name,
                        self._kernel("field.vec", FieldSpec.__dict__[name], True))
        for name in SCALAR_OPS:
            self._patch(FieldSpec, name,
                        self._kernel("field.scalar", FieldSpec.__dict__[name], False))
        for name, key in TABLES.items():
            self._patch(FieldSpec, name, self._table(key, FieldSpec.__dict__[name].fget))

        for layer in LAYERS:
            mod = getattr(pl, layer)
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") and name not in UNTRACED
                is_fn = inspect.isfunction(fn) or hasattr(fn, "cache_info")
                if public and is_fn and getattr(fn, "__module__", None) == mod.__name__:
                    self._rebind(fn, self._span(name, layer, fn, hooks.get(name)))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                name = f"{layer}.{path}"
                self._patch(cls, meth, self._span(name, layer, cls.__dict__[meth],
                                                  hooks.get(name)))

        perm_rows_ok = pl.classify._perm_rows_ok
        counts = self.counts

        def count_rows(q, rows):
            counts["classify.rows_checked"] += rows.shape[0]
            return perm_rows_ok(q, rows)

        self._patch(pl.classify, "_perm_rows_ok", count_rows)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "parent", "name", "start_us", "end_us"],\n')
            fh.write(f'"names": {json.dumps(names)},\n')
            fh.write(f'"recorded": {len(self.spans)}, "total": {self.n_spans},\n"spans": [\n')
            fh.write(",\n".join(
                f"[{sid},{parent},{index[name]},{(t0 - t_base) * 1e6:.1f},"
                f"{(t1 - t_base) * 1e6:.1f}]"
                for sid, parent, name, t0, t1 in self.spans))
            fh.write("\n]}\n")
