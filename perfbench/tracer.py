"""In-memory span tracer that wraps cubefunc's public functions from outside.

Every public function of the nine layer modules becomes a span named
``<module>.<function>``; the methods the per-layer metrics need are spans
or plain call counters under the names in METHOD_SPANS and METHOD_COUNTS.
A wrapper replaces the original in the class, in its defining module and
in every cubefunc module that bound the same object at import (for example
``functors.mat_solve`` is ``matrix.solve``), so internal calls are traced.

Spans are kept in flat arrays (name, start, end, parent) and written out
only when the run ends.  Self time is a span's duration minus the time of
its direct child spans; inclusive time of a recursive function counts only
its outermost spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import time
from array import array

LAYERS = (
    "domains",
    "matrix",
    "presentation",
    "functors",
    "faithful",
    "rings",
    "gf2",
    "strings_bands",
    "wildness",
)

# (module, class, attribute) -> span name
METHOD_SPANS = {
    ("matrix", "Mat", "__mul__"): "matrix.mul",
    ("matrix", "Mat", "__add__"): "matrix.add",
    ("matrix", "Mat", "__sub__"): "matrix.add",
    ("matrix", "Mat", "scale"): "matrix.add",
    ("matrix", "LatticeSpan", "insert"): "matrix.lattice_insert",
    ("matrix", "LatticeSpan", "contains"): "matrix.lattice_contains",
    ("matrix", "RationalSpan", "insert"): "matrix.rational_insert",
    ("presentation", "FpPresentation", "element_is_zero"): "presentation.element_is_zero",
    ("functors", "BuiltinFunctor", "act"): "functors.act",
    ("faithful", "Representation", "eval"): "faithful.eval",
}

# hot element-level operations: counted, never timed
METHOD_COUNTS = {
    ("domains", "Domain", "canon"): "domains.canon",
    ("domains", "Domain", "add"): "domains.add",
    ("domains", "Domain", "mul"): "domains.mul",
    ("domains", "Domain", "is_zero"): "domains.is_zero",
    ("matrix", "Mat", "__init__"): "matrix.init",
}

# span name -> (ratio name, predicate on the return value)
OUTCOMES = {
    "matrix.lattice_insert": ("grew_ratio", lambda r: r is True),
    "gf2.find_isomorphism": ("hit_ratio", lambda r: r is not None),
    "strings_bands.indecomposability_probe": (
        "unknown_ratio", lambda r: r.verdict == "unknown"),
    "wildness.iso_test_mod2": ("undecided_ratio", lambda r: r.isomorphic is None),
}

# (parent span, child span, metric): direct children counted per parent call
PER_CALL = (("gf2.identify", "gf2.realize", "candidates_per_call"),)


def _public_functions(mod):
    """Public module-level functions (lru_cache'd ones included) that the
    module itself defines."""
    for name, val in vars(mod).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(val) or isinstance(val, functools._lru_cache_wrapper)):
            continue
        if getattr(val, "__module__", None) == mod.__name__:
            yield name, val


class Tracer:
    def __init__(self):
        self.names = []
        self._nid = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self._stack = []  # [span index, name id, child seconds]
        self._active = []
        self.calls = []
        self.self_s = []
        self.incl_s = []
        self.hits = []
        self.child_calls = {}
        self._counters = {}
        self.counts = {}
        self._patches = []  # (owner, attribute, original)

    def _name_id(self, name):
        nid = self._nid.get(name)
        if nid is None:
            nid = self._nid[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.self_s, self.incl_s, self.hits, self._active):
                lst.append(0)
        return nid

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        nid = self._name_id(name)
        outcome = OUTCOMES.get(name, (None, None))[1]
        stack, active = self._stack, self._active
        calls, self_s, incl_s, hits = self.calls, self.self_s, self.incl_s, self.hits
        sp_name, sp_start, sp_end, sp_parent = (
            self.sp_name, self.sp_start, self.sp_end, self.sp_parent)
        child_calls = self.child_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                key = (parent[1], nid)
                child_calls[key] = child_calls.get(key, 0) + 1
                pidx = parent[0]
            else:
                parent, pidx = None, -1
            idx = len(sp_start)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            active[nid] += 1
            sp_name.append(nid)
            sp_parent.append(pidx)
            sp_end.append(0.0)
            t0 = clock()
            sp_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sp_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                active[nid] -= 1
                if not active[nid]:
                    incl_s[nid] += dur
                if parent is not None:
                    parent[2] += dur
            if outcome is not None and outcome(result):
                hits[nid] += 1
            return result

        return wrapper

    def counter(self, name, fn):
        """A call counter; the counted methods are called ~10^8 times per
        run, so methods of two or three plain positional parameters get a
        fixed-arity wrapper, which costs a third of a generic one."""
        tick = self._counters.setdefault(name, itertools.count())
        bump = tick.__next__
        code = fn.__code__
        plain = not (fn.__defaults__ or code.co_kwonlyargcount
                     or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS))
        if plain and code.co_argcount == 2:
            def wrapper(a, b, _bump=bump, _fn=fn):
                _bump()
                return _fn(a, b)
        elif plain and code.co_argcount == 3:
            def wrapper(a, b, c, _bump=bump, _fn=fn):
                _bump()
                return _fn(a, b, c)
        else:
            def wrapper(*args, **kwargs):
                bump()
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Replace every traced callable by its wrapper."""
        by_name = {m: importlib.import_module(f"cubefunc.{m}") for m in LAYERS}
        mods = [importlib.import_module("cubefunc")] + list(by_name.values())
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in by_name.items():
            for fname, fn in _public_functions(mod):
                replace[id(fn)] = (fn, self.span(f"{layer}.{fname}", fn))
        for table, make in ((METHOD_SPANS, self.span), (METHOD_COUNTS, self.counter)):
            for (layer, cls_name, attr), name in table.items():
                cls = getattr(by_name[layer], cls_name)
                self._patch(cls, attr, make(name, cls.__dict__[attr]))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        """Restore the originals and freeze the call counters."""
        for name, tick in self._counters.items():
            self.counts[name] = next(tick)
        self._counters.clear()
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def count(self, name):
        """Calls of a counted method, known once the tracer is uninstalled."""
        return self.counts.get(name, 0)

    def stats(self, name):
        nid = self._nid.get(name)
        if nid is None:
            return {"calls": 0, "self_s": 0.0, "s": 0.0, "hits": 0}
        return {
            "calls": self.calls[nid],
            "self_s": self.self_s[nid],
            "s": self.incl_s[nid],
            "hits": self.hits[nid],
        }

    def per_call(self, parent, child):
        pid, cid = self._nid.get(parent), self._nid.get(child)
        n = self.child_calls.get((pid, cid), 0)
        calls = self.calls[pid] if pid is not None else 0
        return n / calls if calls else 0.0

    def metric(self, key):
        """Value of one per-layer metric named ``<layer>.<op>.<field>``."""
        base, field = key.rsplit(".", 1)
        if field == "calls" and any(base == n for n in METHOD_COUNTS.values()):
            return self.count(base)
        st = self.stats(base)
        if field in ("calls", "self_s", "s"):
            return st[field]
        ratio = OUTCOMES.get(base, (None,))[0]
        if field == ratio:
            return st["hits"] / st["calls"] if st["calls"] else 0.0
        for parent, child, metric in PER_CALL:
            if base == parent and field == metric:
                return self.per_call(parent, child)
        raise KeyError(key)

    def summary(self):
        """Every span and counter, for the written-out trace."""
        out = {name: self.stats(name) for name in self.names}
        for name, n in self.counts.items():
            out[name] = {"calls": n}
        return out

    def write(self, path, meta):
        """Spans as parallel arrays plus the per-name summary, one gzipped
        JSON file."""
        doc = {
            "meta": meta,
            "names": self.names,
            "summary": self.summary(),
            "children": [[self.names[p], self.names[c], n]
                         for (p, c), n in sorted(self.child_calls.items())],
            "spans": {
                "name": self.sp_name.tolist(),
                "start": self.sp_start.tolist(),
                "end": self.sp_end.tolist(),
                "parent": self.sp_parent.tolist(),
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
