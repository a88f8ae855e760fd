"""Analytic output-space densities for enumerable-region networks.

For a uniform latent prior over a box, the output density of a CPA
generator is a sum over regions of det(A^T A)^((rho-1)/2) restricted to each
region's image.  That gives each region one pre-image, so it holds only when
every slope A has full rank K; the oracle refuses any other atlas.  At desk
scale (K <= 3) the atlas is built by grid probing; the Monte-Carlo histogram
here is the independent oracle the samplers are validated against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cpa
from .errors import InputError, ScaleError, StateError, is_finite, read_field

# a slope whose smallest singular value is at most this times its largest has rank < K
RANK_RTOL = 1e-10
_OUT_OF_RANGE = "rho={}: a density weight or its normalizer leaves the float range"


@dataclass(frozen=True)
class AtlasRegion:
    code: np.ndarray           # the region's activation bit row (bool)
    rep_z: np.ndarray          # a probe point inside the region
    slope: np.ndarray          # (D, K): the network is slope @ z + offset here
    offset: np.ndarray         # (D,)
    log_pdet: float            # log det(slope^T slope)^(1/2); -inf at rank < K
    prior_mass: float          # fraction of the latent box in this region
    pinv: np.ndarray           # pseudo-inverse: at rank K, the slope's inverse on its image


@dataclass(frozen=True)
class RegionAtlas:
    """All regions a dense probe grid discovered, with prior masses."""

    net: object
    domain: object             # uniform_box LatentDomain
    regions: tuple
    complete: bool

    def log_pseudo_dets(self):
        """Per-region log of det(A^T A)^(1/2); -inf for a slope of rank < K."""
        return np.array([r.log_pdet for r in self.regions])


def _grid_points(domain, resolution):
    axes = [
        domain.lo[d] + (domain.hi[d] - domain.lo[d]) * (np.arange(resolution) + 0.5)
        / resolution
        for d in range(domain.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _unique_codes(bits):
    """``np.unique(bits, axis=0, return_index=True, return_inverse=True,
    return_counts=True)`` for a bool code array, sorted as integer keys.

    Each row is packed big-endian into 8-byte words, so the words' numeric
    order is the rows' lexicographic order, ``np.unique``'s row order; rows
    of up to 64 bits are one key each.
    """
    packed = np.packbits(bits, axis=1)
    words = np.zeros((bits.shape[0], max(1, -(-packed.shape[1] // 8))), dtype=np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    words = words.view(">u8").astype(np.uint64)
    one = words.shape[1] == 1   # then a sort of numbers, not of records
    _, first, inverse, counts = np.unique(words[:, 0] if one else words,
                                          axis=None if one else 0, return_index=True,
                                          return_inverse=True, return_counts=True)
    return bits[first], first, inverse, counts


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
    row_bytes = 8 * domain.dim + net.num_units   # a fine-grid point and its code
    # one axis of the fine grid must fit, so that its row count can be printed
    resolution = read_field(resolution, int, "resolution", InputError, 32, 2 * row_bytes)
    read_field((2 * resolution) ** domain.dim, int, f"resolution={resolution}: grid",
               InputError, row_bytes=row_bytes)

    coarse = _grid_points(domain, resolution)
    fine = _grid_points(domain, 2 * resolution)
    shape = (2 * resolution,) * domain.dim
    fine_codes, first, labels, counts = _unique_codes(cpa.region_codes(net, fine))
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
    codes, source, _, _ = _unique_codes(
        np.concatenate([fine_codes, cpa.region_codes(net, probes)]))
    complete = len(codes) == len(fine_codes) and np.array_equal(
        _unique_codes(cpa.region_codes(net, coarse))[0], fine_codes
    )
    rep_z = np.concatenate([fine[first], probes])[source]
    prior_mass = np.concatenate([counts, np.zeros(len(probes), int)])[source] / len(fine)

    regions = []
    for code, z, mass in zip(codes, rep_z, prior_mass):
        # one latent per call: a batched call moves offsets by round-off
        A, b, _ = cpa.affine_maps(net, z)
        sigma = np.linalg.svd(A[0], compute_uv=False)
        full_rank = sigma.size == net.input_dim and sigma[-1] > RANK_RTOL * sigma[0]
        regions.append(
            AtlasRegion(
                code=code,
                rep_z=z,
                slope=A[0],
                offset=b[0],
                log_pdet=float(np.sum(np.log(sigma))) if full_rank else -math.inf,
                prior_mass=float(mass),
                pinv=np.linalg.pinv(A[0]),
            )
        )
    return RegionAtlas(net=net, domain=domain, regions=tuple(regions), complete=complete)


def normalization_constant(atlas, rho):
    """Integral of the unnormalized region-sum density over the image.

    Each region contributes det^((rho-1)/2) times its image volume, and the
    image volume is det^(1/2) times the latent volume, so the constant is
    sum_w det_w^(rho/2) * vol(w)  -- computable straight from prior masses.
    This is the oracle's one gate: an atlas with a region of rank < K, a
    non-finite rho, or a constant outside the float range raises InputError.
    """
    for i, r in enumerate(atlas.regions):
        if r.log_pdet == -math.inf:
            rank = np.linalg.matrix_rank(r.slope, RANK_RTOL * np.linalg.norm(r.slope, 2))
            bits = "".join(str(int(b)) for b in r.code)
            raise InputError(f"atlas region {i} (code [{bits}]) has rank {rank} < "
                             f"K={atlas.net.input_dim}: the exact density needs full rank")
    if not is_finite(rho):   # numpy takes no int past 64 bits
        raise InputError("rho must be finite")
    masses = np.array([r.prior_mass for r in atlas.regions])
    vol = atlas.domain.volume
    with np.errstate(over="ignore"):
        c = float(np.sum(np.exp(rho * atlas.log_pseudo_dets()) * masses * vol))
    if not 0.0 < c < math.inf:
        raise InputError(_OUT_OF_RANGE.format(rho))
    return c


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
    c = normalization_constant(atlas, rho)
    x = np.asarray(x, dtype=np.float64)
    xs = x[None, :] if x.ndim == 1 else x
    if xs.ndim != 2 or xs.shape[1] != atlas.net.output_dim:
        raise InputError(
            f"query shape {x.shape} does not match output dim {atlas.net.output_dim}"
        )
    with np.errstate(over="ignore"):
        weights = np.exp((rho - 1.0) * atlas.log_pseudo_dets())
    if not np.all(np.isfinite(weights)):
        raise InputError(_OUT_OF_RANGE.format(rho))
    tol = 1e-8 * (1.0 + np.linalg.norm(xs, axis=1))
    total = np.zeros(xs.shape[0])
    for region, w in zip(atlas.regions, weights):
        A, b = region.slope, region.offset
        z_star = (xs - b) @ region.pinv.T
        ok = atlas.domain.contains(z_star)
        ok &= np.linalg.norm(z_star @ A.T + b - xs, axis=1) <= tol
        ok[ok] = np.all(cpa.region_codes(atlas.net, z_star[ok]) == region.code, axis=1)
        total += np.where(ok, w, 0.0)
    total /= c
    return float(total[0]) if x.ndim == 1 else total


# --- Monte-Carlo histogram oracle --------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: tuple            # per-dimension bin edge arrays
    mass: np.ndarray        # normalized to total draw count


def _bin_index(x, edges, scale):
    """``np.searchsorted(edges, x, "right")`` per point, with ``histogramdd``'s
    rule that a point on the last edge counts in the last bin.

    The index c is guessed arithmetically, ``floor((x - e[0]) * scale) + 1``
    with ``scale = (m - 1) / (e[-1] - e[0])``, which evenly spaced edges miss
    only by rounding next to an edge.  A guess is kept only where it
    brackets x, ``e[c - 1] <= x < e[c]`` with the edges padded by -inf
    before and inf after; every other point, NaN included, is binary-searched.
    """
    m = edges.size
    with np.errstate(over="ignore", invalid="ignore"):
        guess = x - edges[0]
        guess *= scale
    guess += 1
    np.floor(guess, out=guess)
    np.fmax(guess, 0, out=guess)   # NaN goes to 0
    np.fmin(guess, m, out=guess)
    c = guess.astype(np.intp)
    padded = np.concatenate([[-np.inf], edges, [np.inf]])
    hit = padded[c] <= x
    hit &= x < padded[1:][c]
    miss = np.flatnonzero(~hit)
    c[miss] = edges.searchsorted(x[miss], side="right")
    c[x == edges[-1]] -= 1
    return c


def mc_density(net, draws, bins):
    """Normalized histogram of forward(net, z) over the supplied latents.

    ``draws`` is an (n, K) array of latents and ``bins`` a per-output-dimension
    list of bin edge arrays, each 1-D with at least two strictly increasing
    entries.  Mass is normalized by the number of draws, so it totals 1 when
    the bins cover the image.  The mass equals ``np.histogramdd``'s:
    ``_bin_index`` bins each axis, and one ``bincount`` of the raveled cell
    index, with an outlier bin on each side of each axis, counts a block.
    Row blocks are forwarded and binned on every CPU by ``cpa.map_blocks``;
    their integer counts add up exactly, in block order.  Where OpenBLAS
    rounds a block's GEMM otherwise than one call over all rows, a count can
    move only for an output within an ulp of a bin edge.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != net.input_dim:
        raise InputError(f"draws must be an (n, {net.input_dim}) array of latents, "
                         f"got shape {draws.shape}")
    if draws.shape[0] == 0:
        raise InputError("draws must be nonempty")
    edges = [np.asarray(e, dtype=np.float64) for e in bins]
    if len(edges) != net.output_dim:
        raise InputError(f"bins give {len(edges)} edge arrays for an output of "
                         f"dim {net.output_dim}")
    for d, e in enumerate(edges):
        with np.errstate(invalid="ignore"):   # inf - inf is NaN, and refused
            increasing = e.ndim == 1 and e.size >= 2 and np.all(np.diff(e) > 0)
        if not increasing:
            raise InputError(f"bin edges of output dim {d} must be a 1-D array of at "
                             f"least 2 strictly increasing numbers")
    with np.errstate(over="ignore"):
        scales = [(e.size - 1) / (e[-1] - e[0]) for e in edges]
    shape = tuple(e.size + 1 for e in edges)   # with an outlier bin on each side
    cells = read_field(math.prod(shape), int, "bins: histogram cells", InputError,
                       row_bytes=8)

    def count(rows):
        xs = cpa.forward(net, draws[rows])
        cell = 0
        for d, (e, scale) in enumerate(zip(edges, scales)):
            cell = cell * shape[d] + _bin_index(xs[:, d], e, scale)
        return np.bincount(cell, minlength=cells)

    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    counts = sum(cpa.map_blocks(count, draws.shape[0], 8 * widest)).reshape(shape)
    core = counts[(slice(1, -1),) * len(edges)]
    return Histogram(edges=tuple(edges), mass=core / draws.shape[0])


def total_variation(mass_a, mass_b):
    return 0.5 * float(np.abs(np.asarray(mass_a) - np.asarray(mass_b)).sum())
