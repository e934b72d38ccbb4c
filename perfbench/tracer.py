"""Per-layer tracing of classlab from outside the package.

The tracer wraps public functions and methods of each layer and records one
span per call: (name, start, end, parent span, op id).  A span's self time is
its duration minus the time covered by its child spans.  Spans stay in memory
and are written out by `write_spans` when the run ends; aggregates (calls,
self time and layer-specific work counts) are kept per span name as calls
close, so the per-layer metrics need no second pass over the spans.

classlab modules import names directly (`from .structure import subgroups`),
so a wrapped function is rebound in every `classlab.*` module that holds it;
methods are patched on their class.

Three kinds of target:
  span   calls and self time;
  count  calls only, no clock reads: for the hottest leaf (`StabChain.strip`),
         whose time stays in its caller's self time;
  gen    a generator (`StabChain.iter_elements`): the time spent inside each
         resumption is its self time, charged as child time of the span that
         consumes it, and every yielded item is counted.
"""
from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (layer, module, qualified name, kind).  Targets missing from the program
# are listed in `Tracer.missing` and skipped, so a later refactor shows up as
# absent metrics, not as a crash.
TARGETS = [
    ("perm", "classlab.perm", "StabChain.extend", "span"),
    ("perm", "classlab.perm", "StabChain.strip", "count"),
    ("perm", "classlab.perm", "StabChain.iter_elements", "gen"),
    ("perm", "classlab.perm", "coset_action", "span"),
    ("structure", "classlab.structure", "subgroups", "span"),
    ("structure", "classlab.structure", "isomorphic", "span"),
    ("structure", "classlab.structure", "fingerprint", "span"),
    ("structure", "classlab.structure", "normal_subgroups", "span"),
    ("structure", "classlab.structure", "quotient", "span"),
    ("structure", "classlab.structure", "conjugacy_classes", "span"),
    ("universe", "classlab.universe", "build_universe", "span"),
    ("universe", "classlab.universe", "save_catalog", "span"),
    ("universe", "classlab.universe", "load_catalog", "span"),
    ("universe", "classlab.universe", "parse_group_spec", "span"),
    ("classes", "classlab.classes", "ClassEval.member", "span"),
    ("classes", "classlab.classes", "ClassEval.canon_id", "span"),
    ("classes", "classlab.classes", "audit_property", "span"),
    ("realization", "classlab.realization", "build_realization", "span"),
    ("realization", "classlab.realization", "brute_normalizer", "span"),
    ("realization", "classlab.realization", "maximal_selfnormalizing", "span"),
    ("realization", "classlab.realization", "embedding_into", "span"),
    ("realization", "classlab.realization", "brute_search", "span"),
]


def _audit_name(prefix, args, kwargs):
    which = kwargs.get("which", args[2] if len(args) > 2 else "?")
    return f"{prefix}.{which}"


def _subgroups_extra(agg, result, args, kwargs):
    agg["found"] = agg.get("found", 0) + len(result)


def _isomorphic_extra(agg, result, args, kwargs):
    agg["certs"] = agg.get("certs", 0) + (result is not None)


def _brute_normalizer_extra(agg, result, args, kwargs):
    parent = kwargs.get("parent", args[0] if args else None)
    agg["elements_scanned"] = agg.get("elements_scanned", 0) + parent.order()


# Per-target hooks: a span-name function (one aggregate per audited property)
# and an extra-counter function run on each result.
_NAME_FNS = {"audit_property": _audit_name}
_EXTRAS = {
    "subgroups": _subgroups_extra,
    "isomorphic": _isomorphic_extra,
    "brute_normalizer": _brute_normalizer_extra,
}


class Tracer:
    """Wraps the targets for the rest of the process once installed; `op`
    labels the spans being opened, and `enabled` switches recording off."""

    def __init__(self):
        self.enabled = True
        self.op = None
        self.spans: list = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.aggs: dict[str, dict] = {}
        self._stack: list = []
        self.missing: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def _agg(self, name: str) -> dict:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = {"calls": 0, "self_s": 0.0}
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return agg

    def reset_aggregates(self) -> None:
        """Start a fresh set of per-pass aggregates (spans are kept)."""
        for agg in self.aggs.values():
            for key in agg:
                agg[key] = 0.0 if key.endswith("_s") else 0

    def snapshot(self) -> dict:
        return {name: dict(agg) for name, agg in self.aggs.items()}

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, orig, prefix, name_fn, extra):
        tracer = self
        stack = self._stack
        spans = self.spans
        fixed_agg = None if name_fn is not None else self._agg(prefix)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            name = prefix if name_fn is None else name_fn(prefix, args, kwargs)
            agg = fixed_agg if fixed_agg is not None else tracer._agg(name)
            name_id = tracer._name_ids[name]
            idx = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                agg["calls"] += 1
                agg["self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                spans[idx] = (name_id, t0, t1, parent, tracer.op)
            if extra is not None:
                extra(agg, result, args, kwargs)
            return result

        return wrapper

    def _wrap_count(self, orig, prefix):
        tracer = self
        agg = self._agg(prefix)

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                agg["calls"] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _wrap_gen(self, orig, prefix):
        tracer = self
        stack = self._stack
        agg = self._agg(prefix)
        agg["elements"] = 0

        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)
            if not tracer.enabled:
                return gen
            agg["calls"] += 1

            def resumed():
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        dt = perf_counter() - t0
                        agg["self_s"] += dt
                        if stack:
                            stack[-1][0] += dt
                        return
                    dt = perf_counter() - t0
                    agg["self_s"] += dt
                    agg["elements"] += 1
                    if stack:
                        stack[-1][0] += dt
                    yield item

            return resumed()

        return wrapper

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, qualname, kind in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            prefix = f"{layer}.{attr}"
            if kind == "count":
                wrapper = self._wrap_count(orig, prefix)
            elif kind == "gen":
                wrapper = self._wrap_gen(orig, prefix)
            else:
                wrapper = self._wrap_span(orig, prefix, _NAME_FNS.get(attr),
                                          _EXTRAS.get(attr))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "classlab"
                                          or mod_name.startswith("classlab.")):
                    continue
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapper)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every closed span as one JSON line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name_id, t0, t1, parent, op = span
                fh.write(json.dumps({"name": self.names[name_id], "start": t0,
                                     "end": t1, "parent": parent, "op": op}))
                fh.write("\n")
                written += 1
        return written
