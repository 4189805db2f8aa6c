"""Spans around qser's public callables, and the per-layer metrics made from them.

:func:`install` replaces the module attributes that callers actually look
up (``catalog.build`` is reached through its own module global when it
recurses, ``expand_product`` is bound separately in ``catalog`` and
``checks``) with wrappers that record one span per call.  Spans stay in
memory as ``[name, start, end, parent, note]`` lists, ``parent`` being the
index of the enclosing span or -1, and are written out when the process
ends.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

COUNTED = (
    "series.mul.small", "series.mul.mid", "series.mul.large",
    "series.inverse", "catalog.build",
)
SELF_TIMED = COUNTED + (
    "series.pow", "series.truediv",
    "products.pochhammer_inf", "products.euler_f", "products.expand_product",
    "catalog.coefficient", "checks.scan_signs", "checks.verify", "cli.main",
)
METRIC_UNITS = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "catalog.build.computed": "count",
    "catalog.hit_ratio": "ratio",
    "catalog.useful_ratio": "ratio",
    "series.mul.max_bits": "bits",
}


class Recorder:
    """Patches callables to record spans; :meth:`uninstall` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]
        self._patched = []

    def wrap(self, owner, attr, name, note=None, after=None):
        """Replace owner.attr with a wrapper recording one span per call.

        ``name`` is the span name, or a function of the call's positional
        arguments giving the name, or None to call through unrecorded.
        ``note(*args)`` is stored with the span; ``after(result)`` replaces
        that note once the call returns, and its own cost is recorded as a
        "trace" span beside the call, so it lands in no layer's self time.
        """
        fn = getattr(owner, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = [label, start, end, parent, note(*args) if note else None]
            if after is not None:
                spans[index][4] = after(out)
                spans.append(["trace", end, clock(), parent, None])
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def uninstall(self) -> list[list]:
        """Restore every patched attribute and return the spans."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
        return self.spans


def install(qser) -> Recorder:
    """Wrap the public callables of qser's series, products, catalog,
    checks and cli modules."""
    from qser import catalog, checks, cli, products

    series_cls = qser.Series
    rec = Recorder()

    def mul_label(a, b):
        if not isinstance(b, series_cls):
            return None  # scalar multiple, a plain scale
        n = min(a.prec, b.prec)  # the truncated length
        if n < 64:
            return "series.mul.small"
        return "series.mul.mid" if n < 1024 else "series.mul.large"

    def max_bits(out):
        return max(map(abs, out.coeffs), default=0).bit_length()

    rec.wrap(series_cls, "__mul__", mul_label, after=max_bits)
    rec.wrap(series_cls, "inverse", "series.inverse")
    rec.wrap(series_cls, "__pow__", "series.pow")
    rec.wrap(series_cls, "__truediv__", "series.truediv")
    for fn in ("pochhammer_inf", "euler_f", "expand_product"):
        rec.wrap(products, fn, f"products.{fn}")
    for module in (catalog, checks):
        rec.wrap(module, "expand_product", "products.expand_product")
    rec.wrap(catalog, "build", "catalog.build",
             note=lambda name, prec: [catalog.ALIASES.get(name, name), prec])
    for module in (catalog, qser):
        rec.wrap(module, "coefficient", "catalog.coefficient")
    rec.wrap(checks, "scan_signs", "checks.scan_signs")
    for fn in ("verify_identity_B20", "verify_identity_R5", "verify_genfun", "verify_dissection"):
        rec.wrap(checks, fn, "checks.verify")
    # no metrics of their own: these two keep their loops out of cli.main's self time
    rec.wrap(checks, "check_conjecture13", "checks.check_conjecture13")
    rec.wrap(checks, "scan_asymptotic", "checks.scan_asymptotic")
    rec.wrap(cli, "main", "cli.main")
    return rec


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children[index]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_metrics(processes) -> dict:
    """Per-layer metrics summed over the span lists of several processes.

    A catalog build counts as computed when its span has children (a cache
    hit only truncates).  useful_ratio is, per process, the sum over names
    of the largest precision computed, over the sum of every precision
    computed.
    """
    calls = dict.fromkeys(COUNTED, 0)
    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    builds = computed = useful = total = max_bits = 0
    for spans in processes:
        has_child = {parent for *_, parent, _ in spans if parent >= 0}
        largest = {}
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, note = span[0], span[4]
            if name in calls:
                calls[name] += 1
            if name in self_s:
                self_s[name] += own
            if name.startswith("series.mul."):
                max_bits = max(max_bits, note)
            if name == "catalog.build":
                builds += 1
                if index in has_child:
                    computed += 1
                    key, prec = note
                    total += prec
                    largest[key] = max(largest.get(key, 0), prec)
        useful += sum(largest.values())
    metrics = {f"{name}.calls": calls[name] for name in COUNTED}
    metrics.update({f"{name}.self_s": self_s[name] for name in SELF_TIMED})
    metrics["catalog.build.computed"] = computed
    metrics["catalog.hit_ratio"] = (builds - computed) / builds if builds else 1.0
    metrics["catalog.useful_ratio"] = useful / total if total else 1.0
    metrics["series.mul.max_bits"] = max_bits
    return metrics
