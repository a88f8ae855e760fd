"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` replaces the public functions of each module with
wrappers that record a span (name, start, end, parent) per call, at every
place the function is looked up: ``polarity`` imports
``batch_top_k_singular_values`` by name, and ``cli``/``harness`` import
``build_pool``, ``sample_batch``, ``precision_recall`` and
``frechet_distance`` by name.  Only functions called once per op or per
chunk are wrapped, never per record; ``analytic_density`` runs once per
query point and is opaque, so the per-point work it calls stays in its self
time.
"""

import contextlib
import inspect
import os
import time

import numpy as np

from polarity_sampling import cli, cpa, density, harness, metrics, polarity, spectral, synth
from polarity_sampling.cpa import CpaNetwork


def _rows(bound, result):
    shape = np.shape(bound["z"])
    return {"rows": shape[0] if len(shape) == 2 else 1}


# (span name, attribute, owners it is looked up on, computed counts, opaque)
LAYERS = [
    ("cli.main", "main", [cli], None, False),
    ("harness.run_pareto", "run_pareto", [harness], None, False),
    ("harness.write_csv", "write_csv", [harness],
     lambda b, r: {"rows": len(b["rows"])}, False),
    ("synth.reference", "sample", [synth.SyntheticDataset], None, False),
    ("polarity.build_pool", "build_pool", [polarity, cli, harness], None, False),
    ("polarity.pool_save", "save", [polarity.SamplePool],
     lambda b, r: {"bytes": os.path.getsize(b["path"])}, False),
    ("polarity.pool_load", "load", [polarity.SamplePool], None, False),
    ("polarity.latents", "latents", [polarity.SamplePool], None, False),
    ("polarity.sample_batch", "sample_batch", [polarity, cli, harness],
     lambda b, r: {"rows": b["s"]}, False),
    ("polarity.weights", "polarity_weights", [polarity], None, False),
    ("polarity.prior_sample", "sample", [polarity.LatentDomain],
     lambda b, r: {"rows": b["n"]}, False),
    ("cpa.forward", "forward", [cpa], _rows, False),
    ("cpa.region_codes", "region_codes", [cpa], _rows, False),
    ("cpa.affine_maps", "affine_maps", [cpa],
     lambda b, r: {"rows": r[0].shape[0], "bytes_computed": r[0].nbytes}, False),
    ("spectral.svd", "batch_top_k_singular_values", [spectral, polarity],
     lambda b, r: {"matrices": len(b["As"]), "bytes_computed": np.asarray(b["As"]).nbytes},
     False),
    ("metrics.precision_recall", "precision_recall", [metrics, harness],
     lambda b, r: {"pairs": len(b["real"]) * len(b["fake"])}, False),
    ("metrics.frechet", "frechet_distance", [metrics, harness], None, False),
    ("density.enumerate_regions", "enumerate_regions", [density],
     lambda b, r: {"regions": len(r.regions)}, False),
    ("density.analytic_density", "analytic_density", [density], None, True),
    ("density.mc_density", "mc_density", [density], None, False),
]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._opaque = 0

    def _wrap(self, name, fn, count, opaque):
        sig = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            self._opaque += opaque
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._opaque -= opaque
                self._stack.pop()
            if count:
                for key, value in count(sig.bind(*args, **kwargs).arguments, result).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        saved = []
        try:
            for name, attr, owners, count, opaque in LAYERS:
                raw = (owners[0].__dict__[attr] if isinstance(owners[0], type)
                       else getattr(owners[0], attr))
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__, count, opaque))
                elif isinstance(raw, property):
                    patched = property(self._wrap(name, raw.fget, count, opaque))
                else:
                    patched = self._wrap(name, raw, count, opaque)
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]
                                  if isinstance(owner, type) else getattr(owner, attr)))
                    setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self):
        """{"<span>.s", "<span>.self_s", "<span>.calls", counts...} summed over spans,
        plus "covered_s", the time inside any span (the sum of all self times)."""
        out = dict(self.counts)
        covered = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if parent is None:
                covered += dur
            else:
                pname = self.spans[parent][0]
                out[f"{pname}.self_s"] -= dur
        out["covered_s"] = covered
        return out


LAYER_ROWS = 8192   # one build_pool chunk


def affine_layer_times(net, rows=LAYER_ROWS, reps=5):
    """Seconds per network layer of ``cpa.affine_maps`` on ``rows`` latents.

    Layer i costs t(layers[:i+1]) - t(layers[:i]), each t the median of
    ``reps`` timings of ``affine_maps`` on the prefix network.
    """
    z = np.random.default_rng(0).standard_normal((rows, net.input_dim))
    prefix = [0.0]
    for i in range(1, len(net.layers) + 1):
        sub = CpaNetwork(f"{net.name}[:{i}]", net.layers[:i])
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            cpa.affine_maps(sub, z)
            times.append(time.perf_counter() - t0)
        prefix.append(float(np.median(times)))
    return [b - a for a, b in zip(prefix, prefix[1:])]
