"""Per-layer spans and work counts, recorded from outside the library.

``Tracer.install`` replaces each traced public function of ``symtest`` by a
wrapper in every ``symtest`` module that holds it, so a call is traced no
matter which module looks the name up.  A wrapper records the call's
duration, charges it as child time to the span that was open when it
started, and adds the counts it can read from the result.  A layer's self
time is its spans' durations minus their child spans'; time in a function
that is not traced is charged to the nearest traced caller.

Totals are kept per replication: ``begin`` clears them and ``end`` returns
them as one dict holding every name in ``METRICS``.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _one(out):
    return 1


def _rows(out):
    return out.shape[0]


def _null_copies(out):
    return out.null_stats.size


# layer -> (module, attribute, {count metric: value read from the result})
LAYERS = {
    "groups.sample_batch": (
        "groups", "sample_batch",
        {"groups.sample_batch.elements": lambda out: out.count}),
    "groups.TransformBatch.apply": (
        "groups", "TransformBatch.apply",
        {"groups.TransformBatch.apply.rows": _rows}),
    "groups.haar_rotations": (
        "groups", "haar_rotations",
        {"groups.haar_rotations.matrices": _rows}),
    "groups.inversion_kernel_sample": (
        "groups", "inversion_kernel_sample",
        {"groups.inversion_kernel_sample.calls": _one}),
    "groups.representative_inversion": (
        "groups", "representative_inversion",
        {"groups.representative_inversion.calls": _one}),
    "kernels.gram": (
        "kernels", "gram",
        {"kernels.gram.calls": _one, "kernels.gram.entries": lambda out: out.size}),
    "mmd.invariance_stat_u": (
        "mmd", "invariance_stat_u", {"mmd.invariance_stat_u.calls": _one}),
    "mmd.mmd_u": ("mmd", "mmd_u", {"mmd.mmd_u.calls": _one}),
    # both invariance tests report their null copies under one count
    "invariance.mc_invariance_test": (
        "invariance", "mc_invariance_test", {"invariance.null_copies": _null_copies}),
    "invariance.inversion_mc_test": (
        "invariance", "inversion_mc_test", {"invariance.null_copies": _null_copies}),
    "condsym.transform_responses": (
        "condsym", "transform_responses",
        {"condsym.transform_responses.rows": lambda out: out.X.shape[0]}),
    "condsym.kci_statistic": ("condsym", "kci_statistic", {}),
    # its draws are counted on the generator it is handed, see CountingRng
    "condsym.kci_null_samples": ("condsym", "kci_null_samples", {}),
    "condsym.cp_test": ("condsym", "cp_test", {}),
    "condsym.multiple_correlation_statistic": (
        "condsym", "multiple_correlation_statistic",
        {"condsym.multiple_correlation_statistic.calls": _one}),
    "harness.run_replication": ("harness", "run_replication", {}),
}

_DRAWS = "condsym.kci_null_samples.draws"

COUNTS = list(dict.fromkeys(
    [name for _, _, counters in LAYERS.values() for name in counters] + [_DRAWS]
))

METRICS = [f"{layer}.ms" for layer in LAYERS] + COUNTS


class CountingRng:
    """A numpy Generator stand-in that counts the random variates drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.draws += int(np.size(out))
            return out

        return draw


def _count_rng(args, kwargs):
    """Swap the ``rng`` argument of ``kci_null_samples(data, config, rng)``."""
    if len(args) > 2:
        rng = CountingRng(args[2])
        return args[:2] + (rng,) + args[3:], kwargs, rng
    rng = CountingRng(kwargs["rng"])
    return args, dict(kwargs, rng=rng), rng


class Tracer:
    def __init__(self):
        self._open = []  # child seconds of each open span, innermost last
        self._installed = []  # (owner, attribute, original)
        self.begin()

    def begin(self):
        self.values = dict.fromkeys(METRICS, 0)
        self.values.update({f"{layer}.ms": 0.0 for layer in LAYERS})

    def end(self):
        return dict(self.values)

    def _wrap(self, layer, fn, counters):
        ms_key = f"{layer}.ms"
        counts_draws = layer == "condsym.kci_null_samples"

        def traced(*args, **kwargs):
            if counts_draws:
                args, kwargs, rng = _count_rng(args, kwargs)
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.values[ms_key] += (dt - child) * 1e3
                if self._open:
                    self._open[-1] += dt
            for name, read in counters.items():
                self.values[name] += int(read(out))
            if counts_draws:
                self.values[_DRAWS] += rng.draws
            return out

        return traced

    def install(self):
        """Wrap every traced function wherever a ``symtest`` module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "symtest" or name.startswith("symtest.")]
        for layer, (module, attr, counters) in LAYERS.items():
            owner = sys.modules[f"symtest.{module}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(layer, original, counters))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(layer, original, counters)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, traced)
        self.begin()

    def _patch(self, owner, name, original, traced):
        setattr(owner, name, traced)
        self._installed.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
