"""Analytic output-space densities for enumerable-region networks.

For a uniform latent prior over a box, the output density of a CPA
generator is a sum over regions of pseudo-determinant powers restricted to
each region's image.  With the polarity exponent rho the per-region factor
becomes det(A^T A)^((rho-1)/2).  At desk scale (K <= 3) the region atlas is
built by grid probing, and the density evaluated exactly from it; the
Monte-Carlo histogram here is the independent oracle the samplers are
validated against.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import cpa
from .errors import InputError, ScaleError, StateError
from .spectral import DEFAULT_EPS, RANK_RTOL, pseudo_log_det_sqrt


@dataclass(frozen=True)
class AtlasRegion:
    code_hash: str
    rep_z: np.ndarray          # a probe point inside the region
    affine: cpa.AffineMap
    sigma: np.ndarray          # full singular spectrum of the slope
    log_volume: float          # sum log(sigma + eps), full spectrum
    prior_mass: float          # fraction of the latent box in this region
    pinv: np.ndarray           # Moore-Penrose pseudo-inverse of the slope


@dataclass(frozen=True)
class RegionAtlas:
    """All regions a dense probe grid discovered, with prior masses."""

    net: object
    domain: object             # uniform_box LatentDomain
    regions: tuple
    complete: bool
    resolution: int

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


def _code_keys(net, pts):
    codes = cpa.region_codes(net, pts)
    return [cpa.ActivationCode(c).digest for c in codes]


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
    coarse_keys = set(_code_keys(net, coarse))
    fine_keys = _code_keys(net, fine)
    fine_set = set(fine_keys)

    # jittered probes inside fine cells whose axis-neighbor has a different code
    rng = np.random.default_rng(seed)
    shape = (2 * resolution,) * domain.dim
    key_arr = np.array(fine_keys).reshape(shape)
    boundary = np.zeros(shape, dtype=bool)
    for d in range(domain.dim):
        diff = np.take(key_arr, range(1, shape[d]), axis=d) != np.take(
            key_arr, range(0, shape[d] - 1), axis=d
        )
        pad_lo = np.zeros((*shape[:d], 1, *shape[d + 1 :]), dtype=bool)
        boundary |= np.concatenate([diff, pad_lo], axis=d)
        boundary |= np.concatenate([pad_lo, diff], axis=d)
    cell = (domain.hi - domain.lo) / (2 * resolution)
    centers = fine[boundary.reshape(-1)]
    jitter_keys = []
    probes = np.empty((0, domain.dim))
    if centers.shape[0]:
        reps = 8
        probes = (
            centers[:, None, :]
            + rng.uniform(-1.0, 1.0, size=(centers.shape[0], reps, domain.dim)) * cell
        ).reshape(-1, domain.dim)
        # stay strictly interior: clipping onto the box edge can land exactly
        # on an activation hyperplane and manufacture a measure-zero code
        margin = 1e-9 * (domain.hi - domain.lo)
        probes = np.clip(probes, domain.lo + margin, domain.hi - margin)
        jitter_keys = _code_keys(net, probes)

    complete = fine_set == coarse_keys and set(jitter_keys) <= fine_set
    all_keys = sorted(fine_set | set(jitter_keys))

    counts = {k: 0 for k in all_keys}
    reps_z = {}
    for key, z in zip(fine_keys, fine):
        counts[key] += 1
        reps_z.setdefault(key, z)
    for key, z in zip(jitter_keys, probes):
        reps_z.setdefault(key, z)
    total = len(fine_keys)

    regions = []
    for key in all_keys:
        z = reps_z[key]
        amap = cpa.affine_map(net, z)
        sigma = np.linalg.svd(amap.slope, compute_uv=False)
        regions.append(
            AtlasRegion(
                code_hash=key,
                rep_z=np.asarray(z, dtype=np.float64),
                affine=amap,
                sigma=sigma,
                log_volume=float(np.sum(np.log(sigma + DEFAULT_EPS))),
                prior_mass=counts[key] / total,
                pinv=np.linalg.pinv(amap.slope, rcond=RANK_RTOL),
            )
        )
    return RegionAtlas(
        net=net, domain=domain, regions=tuple(regions), complete=complete,
        resolution=resolution,
    )


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
    """Exact output density at x under polarity rho (uniform box prior).

    Sums det(A^T A)^((rho-1)/2) over every region whose image contains x:
    the pre-image z* = pinv(A)(x - b) must carry the region's own activation
    code, sit inside the latent box, and map back onto x.  Overlapping
    region images (non-injective nets) are handled by the sum itself.
    """
    if not atlas.complete:
        raise StateError("atlas is incomplete; rebuild at higher resolution")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != atlas.net.output_dim:
        raise InputError(
            f"query dim {x.size} does not match output dim {atlas.net.output_dim}"
        )
    tol = 1e-8 * (1.0 + np.linalg.norm(x))
    total = 0.0
    for region in atlas.regions:
        z_star = region.pinv @ (x - region.affine.offset)
        if not atlas.domain.contains(z_star)[0]:
            continue
        residual = np.linalg.norm(region.affine.slope @ z_star + region.affine.offset - x)
        if residual > tol:
            continue
        if cpa.region_code(atlas.net, z_star).digest != region.code_hash:
            continue
        total += np.exp((rho - 1.0) * pseudo_log_det_sqrt(region.sigma))
    return total / normalization_constant(atlas, rho)


def mode_regions(atlas, rho):
    """Regions ranked by polarity preference: modes first for rho < 0,
    anti-modes first for rho > 0, atlas order for rho = 0.  Ties keep order."""
    if rho == 0:
        return list(atlas.regions)
    lv = atlas.log_pseudo_dets()
    order = np.argsort(lv if rho < 0 else -lv, kind="stable")
    return [atlas.regions[i] for i in order]


# --- Monte-Carlo histogram oracle --------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: tuple            # per-dimension bin edge arrays
    mass: np.ndarray        # normalized to total draw count

    def save_csv(self, path):
        dims = len(self.edges)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"bin_lo_{d}" for d in range(dims)]
                + [f"bin_hi_{d}" for d in range(dims)]
                + ["mass"]
            )
            it = np.ndindex(self.mass.shape)
            for idx in it:
                row = [repr(float(self.edges[d][idx[d]])) for d in range(dims)]
                row += [repr(float(self.edges[d][idx[d] + 1])) for d in range(dims)]
                row.append(repr(float(self.mass[idx])))
                writer.writerow(row)


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
