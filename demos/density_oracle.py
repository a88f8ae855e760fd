"""Density oracle walkthrough on a one-dimensional two-slope generator.

The generator stretches z < 0 by 2 and compresses z >= 0 by 0.5, so the
uniform prior on [-1, 1] pushes forward to a two-level staircase.  A region
atlas gives the exact output density under any polarity rho, and a million
resampled draws should land on top of it.
"""

import numpy as np

from polarity_sampling import (
    PolaritySampler, analytic_density, build_pool, enumerate_regions,
    mc_density, normalization_constant, sample_batch, total_variation, zoo,
)

net = zoo.two_piece_net()
domain = zoo.two_piece_domain()

atlas = enumerate_regions(net, domain, resolution=64)
print(f"atlas: {len(atlas.regions)} regions, complete={atlas.complete}")
for region in atlas.regions:
    print(f"  slope {region.sigma[0]:4.2f}, prior mass {region.prior_mass:.2f}, "
          f"image offset {region.offset[0]:+.2f}")

print("\nanalytic density at x = -1 (stretched side) and x = 0.25 (compressed):")
for rho in (-2.0, 0.0, 2.0):
    c = normalization_constant(atlas, rho)
    left = analytic_density(atlas, [-1.0], rho)
    right = analytic_density(atlas, [0.25], rho)
    print(f"  rho {rho:+.0f}: Z = {c:6.3f},  p(-1) = {left:.4f},  "
          f"p(0.25) = {right:.4f}")

print("\nmillion-draw histograms vs the oracle (50 bins, TV distance):")
pool = build_pool(net, domain, 200_000, k=1, seed=0)
edges = np.linspace(-2.0, 0.5, 51)
centers = (edges[:-1] + edges[1:]) / 2
for rho in (-2.0, 0.0, 2.0):
    draws = sample_batch(PolaritySampler(pool, rho), 1_000_000, seed=1)
    hist = mc_density(net, draws, [edges])
    expected = analytic_density(atlas, centers[:, None], rho) * np.diff(edges)
    print(f"  rho {rho:+.0f}: TV = {total_variation(hist.mass, expected):.4f}")

print("\nnegative rho piles mass on the compressed (high-density) side;")
print("positive rho drains it toward the stretched side.")
