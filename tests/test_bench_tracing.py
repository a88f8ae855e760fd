"""The bench tracer patches package functions by name at every lookup site,
so a rename or deletion under ``src/`` shows up here, not first in
``bench/run.py --trace 1``."""

import os

import numpy as np
import pytest

from polarity_sampling import density, polarity, zoo

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    return tracing


def _sites(tracing):
    """(owner, attribute, current value) for every patched lookup site."""
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr))
            for _, attr, owners, _, _ in tracing.LAYERS for owner in owners]


def test_tracer_patches_and_restores_every_site(tracing):
    before = _sites(tracing)
    with tracing.Tracer().installed() as tracer:
        during = _sites(tracing)
        polarity.build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 50, 1, seed=0)
    assert all(new is not old for (_, _, old), (_, _, new) in zip(before, during))
    assert all(now is old for (_, _, old), (_, _, now) in zip(before, _sites(tracing)))
    spans = {name for name, *_ in tracer.spans}
    assert {"polarity.build_pool", "cpa.region_codes", "spectral.svd"} <= spans
    assert np.isfinite(tracer.layer_totals()["covered_s"])


def test_tracer_records_density_and_draw_spans(tracing):
    net, domain = zoo.two_piece_net(), zoo.two_piece_domain()
    pool = polarity.build_pool(net, domain, 50, 1, seed=0)
    with tracing.Tracer().installed() as tracer:
        atlas = density.enumerate_regions(net, domain, 32, seed=0)
        density.analytic_density(atlas, np.array([[-1.0], [0.25]]), -1.0)
        draws = polarity.sample_batch(polarity.PolaritySampler(pool, -1.0), 20, seed=1)
        density.mc_density(net, draws, [np.linspace(-2.0, 0.5, 6)])
    spans = {name for name, *_ in tracer.spans}
    assert {"density.enumerate_regions", "cpa.region_codes", "cpa.affine_maps",
            "density.analytic_density", "polarity.weights", "polarity.sample_batch",
            "polarity.latents", "density.mc_density", "cpa.forward"} <= spans
    totals = tracer.layer_totals()
    assert totals["density.enumerate_regions.regions"] == 2
    assert totals["polarity.sample_batch.rows"] == 20
    assert totals["cpa.forward.rows"] == 20
