"""Analytic output-space densities for enumerable-region networks.

For a uniform latent prior over a box, the output density of a CPA
generator is a sum over regions of pseudo-determinant powers restricted to
each region's image.  With the polarity exponent rho the per-region factor
becomes det(A^T A)^((rho-1)/2).  At desk scale (K <= 3) the region atlas is
built by grid probing, and the density evaluated exactly from it; the
Monte-Carlo histogram here is the independent oracle the samplers are
validated against.
"""

from dataclasses import dataclass

import numpy as np

from . import cpa
from .errors import InputError, ScaleError, StateError
from .spectral import RANK_RTOL, pseudo_log_det_sqrt


@dataclass(frozen=True)
class AtlasRegion:
    code: np.ndarray           # the region's activation bit row (bool)
    rep_z: np.ndarray          # a probe point inside the region
    slope: np.ndarray          # (D, K): the network is slope @ z + offset here
    offset: np.ndarray         # (D,)
    sigma: np.ndarray          # full singular spectrum of the slope
    prior_mass: float          # fraction of the latent box in this region
    pinv: np.ndarray           # Moore-Penrose pseudo-inverse of the slope


@dataclass(frozen=True)
class RegionAtlas:
    """All regions a dense probe grid discovered, with prior masses."""

    net: object
    domain: object             # uniform_box LatentDomain
    regions: tuple
    complete: bool

    def log_pseudo_dets(self):
        """Per-region log of det(A^T A)^(1/2) (product of nonzero sigmas)."""
        return np.array([pseudo_log_det_sqrt(r.sigma) for r in self.regions])


def _grid_points(domain, resolution):
    axes = [
        domain.lo[d] + (domain.hi[d] - domain.lo[d]) * (np.arange(resolution) + 0.5)
        / resolution
        for d in range(domain.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def enumerate_regions(net, domain, resolution=64, seed=0):
    """Probe a regular grid (plus jitter near code changes) to map the partition.

    ``complete`` is set only when doubling the resolution and the jittered
    refinement both discover no new activation codes.  Prior masses are
    fine-grid cell fractions.
    """
    if domain.kind != "uniform_box":
        raise InputError("region enumeration needs a uniform_box domain")
    if net.input_dim > 3:
        raise ScaleError(
            f"exact atlases support K <= 3 (got K={net.input_dim}); "
            f"use a sampled pool instead"
        )
    if resolution < 32:
        raise InputError("resolution must be at least 32 per dimension")

    coarse = _grid_points(domain, resolution)
    fine = _grid_points(domain, 2 * resolution)
    shape = (2 * resolution,) * domain.dim
    fine_codes, first, labels, counts = np.unique(
        cpa.region_codes(net, fine), axis=0, return_index=True,
        return_inverse=True, return_counts=True,
    )
    labels = labels.reshape(shape)

    # jittered probes inside fine cells whose axis-neighbor has a different code
    rng = np.random.default_rng(seed)
    boundary = np.zeros(shape, dtype=bool)
    for d in range(domain.dim):
        diff = np.diff(labels, axis=d) != 0
        pad_lo = np.zeros((*shape[:d], 1, *shape[d + 1 :]), dtype=bool)
        boundary |= np.concatenate([diff, pad_lo], axis=d)
        boundary |= np.concatenate([pad_lo, diff], axis=d)
    cell = (domain.hi - domain.lo) / (2 * resolution)
    centers = fine[boundary.reshape(-1)]
    reps = 8
    probes = (
        centers[:, None, :]
        + rng.uniform(-1.0, 1.0, size=(centers.shape[0], reps, domain.dim)) * cell
    ).reshape(-1, domain.dim)
    # stay strictly interior: clipping onto the box edge can land exactly
    # on an activation hyperplane and manufacture a measure-zero code
    margin = 1e-9 * (domain.hi - domain.lo)
    probes = np.clip(probes, domain.lo + margin, domain.hi - margin)

    # fine-grid codes plus any only the probes found, in np.unique row order;
    # each code's first occurrence in [fine codes, probes] gives its
    # representative (first fine point in grid order, else first probe)
    codes, source = np.unique(
        np.concatenate([fine_codes, cpa.region_codes(net, probes)]), axis=0,
        return_index=True,
    )
    complete = len(codes) == len(fine_codes) and np.array_equal(
        np.unique(cpa.region_codes(net, coarse), axis=0), fine_codes
    )
    rep_z = np.concatenate([fine[first], probes])[source]
    prior_mass = np.concatenate([counts, np.zeros(len(probes), int)])[source] / len(fine)

    regions = []
    for code, z, mass in zip(codes, rep_z, prior_mass):
        # one latent per call: a batched call moves offsets by round-off
        A, b, _ = cpa.affine_maps(net, z)
        regions.append(
            AtlasRegion(
                code=code,
                rep_z=z,
                slope=A[0],
                offset=b[0],
                sigma=np.linalg.svd(A[0], compute_uv=False),
                prior_mass=float(mass),
                pinv=np.linalg.pinv(A[0], rcond=RANK_RTOL),
            )
        )
    return RegionAtlas(net=net, domain=domain, regions=tuple(regions), complete=complete)


def normalization_constant(atlas, rho):
    """Integral of the unnormalized region-sum density over the image.

    Each region contributes det^((rho-1)/2) times its image volume, and the
    image volume is det^(1/2) times the latent volume, so the constant is
    sum_w det_w^(rho/2) * vol(w)  -- computable straight from prior masses.
    """
    logdets = atlas.log_pseudo_dets()
    masses = np.array([r.prior_mass for r in atlas.regions])
    vol = atlas.domain.volume
    return float(np.sum(np.exp(rho * logdets) * masses * vol))


def analytic_density(atlas, x, rho):
    """Exact output density under polarity rho (uniform box prior) at one
    point ``x`` of shape (D,), giving a float, or a batch (m, D), giving (m,).

    Sums det(A^T A)^((rho-1)/2) over every region whose image contains x:
    the pre-image z* = pinv(A)(x - b) must carry the region's own activation
    code, sit inside the latent box, and map back onto x.  Overlapping
    region images (non-injective nets) are handled by the sum itself.
    """
    if not atlas.complete:
        raise StateError("atlas is incomplete; rebuild at higher resolution")
    x = np.asarray(x, dtype=np.float64)
    xs = x[None, :] if x.ndim == 1 else x
    if xs.ndim != 2 or xs.shape[1] != atlas.net.output_dim:
        raise InputError(
            f"query shape {x.shape} does not match output dim {atlas.net.output_dim}"
        )
    tol = 1e-8 * (1.0 + np.linalg.norm(xs, axis=1))
    total = np.zeros(xs.shape[0])
    for region in atlas.regions:
        A, b = region.slope, region.offset
        z_star = (xs - b) @ region.pinv.T
        ok = atlas.domain.contains(z_star)
        ok &= np.linalg.norm(z_star @ A.T + b - xs, axis=1) <= tol
        ok[ok] = np.all(cpa.region_codes(atlas.net, z_star[ok]) == region.code, axis=1)
        w = np.exp((rho - 1.0) * pseudo_log_det_sqrt(region.sigma))
        total += np.where(ok, w, 0.0)
    total /= normalization_constant(atlas, rho)
    return float(total[0]) if x.ndim == 1 else total


# --- Monte-Carlo histogram oracle --------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: tuple            # per-dimension bin edge arrays
    mass: np.ndarray        # normalized to total draw count


def mc_density(net, draws, bins):
    """Normalized histogram of forward(net, z) over the supplied latents.

    ``bins`` is a per-output-dimension list of bin edge arrays.  Mass is
    normalized by the number of draws, so it totals 1 when the bins cover
    the image.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size == 0:
        raise InputError("draws must be nonempty")
    edges = [np.asarray(e, dtype=np.float64) for e in bins]
    for e in edges:
        if np.any(np.diff(e) <= 0):
            raise InputError("bin edges must be strictly increasing")
    xs = cpa.forward(net, draws)
    if xs.ndim == 1:
        xs = xs[:, None]
    counts, _ = np.histogramdd(xs, bins=edges)
    return Histogram(edges=tuple(edges), mass=counts / draws.shape[0])


def total_variation(mass_a, mass_b):
    return 0.5 * float(np.abs(np.asarray(mass_a) - np.asarray(mass_b)).sum())
