"""Polarity sampling: reweight a generator's latent prior by Jacobian volume.

Pool construction draws N latents, records each one's region log-volume
(sum of log top-k singular values of the local slope matrix), and the
sampler then resamples those latents under softmax(rho * log-volume):
rho < 0 concentrates on the output-density modes (small Jacobian volume),
rho > 0 on the anti-modes, rho = 0 reproduces the prior.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cpa
from .errors import (
    ConfigError, InputError, ValidationError, finite_array, parse_json, read_bytes,
    read_field,
)
from .spectral import batch_top_k_singular_values

DEFAULT_EPS = 1e-12
POOL_FORMAT_VERSION = 4
# pool header fields and their JSON types
_POOL_HEADER = {"net_fingerprint": str, "domain": dict, "n": int, "k": int,
                "seed": int, "regions": int}


# --- latent domains ----------------------------------------------------------


@dataclass(frozen=True)
class LatentDomain:
    """Latent prior: a uniform box or an axis-aligned gaussian.

    A gaussian domain may carry a truncation factor psi in (0, 1]; its
    support is then the centered box mean +- psi * 2 * std (the truncation
    baseline's support), sampled exactly per axis by inverse CDF.
    """

    kind: str                      # "uniform_box" | "gaussian"
    lo: np.ndarray = None          # box only
    hi: np.ndarray = None
    mean: np.ndarray = None        # gaussian only
    std: np.ndarray = None
    psi: float = None              # gaussian truncation, optional

    def __post_init__(self):
        if self.kind == "uniform_box":
            lo = np.asarray(self.lo, dtype=np.float64).reshape(-1)
            hi = np.asarray(self.hi, dtype=np.float64).reshape(-1)
            with np.errstate(over="ignore"):   # a width past the float range is inf
                if lo.size != hi.size or not np.all((lo < hi) & np.isfinite(hi - lo)):
                    raise InputError("uniform_box needs lo < hi and a finite hi - lo "
                                     "per dimension")
            if self.psi is not None:
                raise InputError("truncation is defined for gaussian domains only")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "gaussian":
            mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
            std = np.asarray(self.std, dtype=np.float64).reshape(-1)
            if mean.size != std.size or np.any(std <= 0):
                raise InputError("gaussian needs std > 0 per dimension")
            if self.psi is not None and not (0.0 < self.psi <= 1.0):
                raise InputError("psi must lie in (0, 1]")
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "std", std)
        else:
            raise InputError(f"unknown domain kind {self.kind!r}")
        if self.dim == 0:
            raise InputError(f"{self.kind} needs at least one dimension")

    @property
    def dim(self):
        return (self.lo if self.kind == "uniform_box" else self.mean).size

    @property
    def volume(self):
        if self.kind != "uniform_box":
            raise InputError("volume is defined for box domains only")
        with np.errstate(over="ignore"):
            volume = float(np.prod(self.hi - self.lo))
        if not math.isfinite(volume):
            raise InputError(f"the volume of the uniform_box lo={self.lo.tolist()}, "
                             f"hi={self.hi.tolist()} leaves the float range")
        return volume

    def contains(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if self.kind == "uniform_box":
            return np.all((z >= self.lo) & (z <= self.hi), axis=1)
        if self.psi is None:
            return np.ones(z.shape[0], dtype=bool)
        half = self.psi * 2.0 * self.std
        return np.all(np.abs(z - self.mean) <= half, axis=1)

    def sample(self, n, rng):
        if self.kind == "uniform_box":
            return rng.uniform(self.lo, self.hi, size=(n, self.dim))
        if self.psi is None:
            return self.mean + self.std * rng.standard_normal((n, self.dim))
        # the psi-box factorizes per axis: invert each axis's normal CDF
        # between the two box edges.  scipy loads here, on the first
        # truncated draw, so the untruncated CLI runs never import it.
        from scipy.special import ndtr, ndtri

        u = rng.uniform(ndtr(-2.0 * self.psi), ndtr(2.0 * self.psi), size=(n, self.dim))
        return self.mean + self.std * ndtri(u)

    def truncate(self, psi):
        if self.kind != "gaussian":
            raise InputError(
                "truncation baseline is defined for gaussian priors only"
            )
        return LatentDomain("gaussian", mean=self.mean, std=self.std, psi=psi)

    def to_dict(self):
        if self.kind == "uniform_box":
            return {"kind": self.kind, "lo": list(self.lo), "hi": list(self.hi)}
        d = {"kind": self.kind, "mean": list(self.mean), "std": list(self.std)}
        if self.psi is not None:
            d["psi"] = self.psi
        return d

    @staticmethod
    def from_dict(d):
        """Inverse of ``to_dict``; any malformed document is a ConfigError."""
        kind = read_field(d, dict, "domain", ConfigError).get("kind")
        fields = {"uniform_box": ("lo", "hi"), "gaussian": ("mean", "std")}.get(kind)
        if fields is None:
            raise ConfigError(f"unknown domain kind {kind!r}")
        spec = {}
        for key in fields:
            if key not in d:
                raise ConfigError(f"{kind} domain has no field {key!r}")
            spec[key] = finite_array(d[key], f"domain field {key!r}", ConfigError)
        psi = d.get("psi") if kind == "gaussian" else None
        if psi is not None:
            read_field(psi, float, "domain field 'psi'", ConfigError)
        try:
            return LatentDomain(kind, psi=psi, **spec)
        except InputError as exc:
            raise ConfigError(f"bad {kind} domain: {exc}") from exc


# --- pools -------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePool:
    """N candidate latents with precomputed region log-volumes, as columns.

    ``regions`` counts the distinct activation codes among the latents
    (a coverage diagnostic); the codes themselves are not kept.
    """

    z: np.ndarray              # (n, K) float64
    log_volumes: np.ndarray    # (n,) float64
    k: int
    seed: int
    regions: int
    domain: LatentDomain
    net_fingerprint: str
    eps = DEFAULT_EPS          # added to each singular value before its log

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        lvs = np.asarray(self.log_volumes, dtype=np.float64)
        n = lvs.shape[0] if lvs.ndim == 1 else -1
        if z.shape != (n, self.domain.dim):
            raise ValidationError(
                f"pool columns disagree: z {z.shape}, log_volumes {lvs.shape}, "
                f"latent dim {self.domain.dim}"
            )
        if n == 0:
            raise ValidationError("pool is empty: it holds no latents")
        if not np.all(np.isfinite(z)):
            raise ValidationError("pool latents must be finite")
        if not np.all(np.isfinite(lvs)):
            raise ValidationError("pool log-volumes must be finite")
        if self.seed < 0 or self.k < 1 or not 1 <= self.regions <= n:
            raise ValidationError(f"pool needs seed >= 0, k >= 1 and 1 <= regions <= n, got "
                                  f"seed={self.seed}, k={self.k}, regions={self.regions}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "log_volumes", lvs)

    @property
    def n(self):
        return self.log_volumes.shape[0]

    @property
    def latents(self):
        return self.z

    def save(self, path):
        """One JSON header line, then the little-endian float64 bytes of
        ``z`` (n·K, row by row) and of ``log_volumes`` (n).  Identical pools
        give identical bytes."""
        header = {
            "version": POOL_FORMAT_VERSION,
            "net_fingerprint": self.net_fingerprint,
            "domain": self.domain.to_dict(),
            "n": self.n,
            "k": int(self.k),
            "seed": int(self.seed),
            "regions": int(self.regions),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for column in (self.z, self.log_volumes):
                fh.write(np.ascontiguousarray(column, dtype="<f8").tobytes())

    @staticmethod
    def load(path):
        # a JSON header never holds a raw newline; files of versions 1-3 are
        # one JSON document on one line
        header, _, payload = read_bytes(path, ValidationError).partition(b"\n")
        doc = parse_json(header, path, ValidationError)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != POOL_FORMAT_VERSION:
            raise ValidationError(
                f"{path}: unsupported pool format version {version!r}; "
                f"rebuild it with `polsamp pool build`"
            )
        for key, kind in _POOL_HEADER.items():
            if key not in doc:
                raise ValidationError(f"{path}: pool file has no field {key!r}")
            read_field(doc[key], kind, f"{path}: pool field {key!r}", ValidationError)
        try:
            domain = LatentDomain.from_dict(doc["domain"])
        except ConfigError as exc:
            raise ValidationError(f"{path}: bad pool domain: {exc}") from exc
        n, dim = doc["n"], domain.dim
        if len(payload) != 8 * n * (dim + 1):
            raise ValidationError(
                f"{path}: pool columns hold {len(payload)} bytes, not the "
                f"8 * n * (K + 1) = {8 * n * (dim + 1)} of n={n} latents of dim "
                f"K={dim} and their log-volumes"
            )
        columns = np.frombuffer(payload, dtype="<f8")
        try:
            return SamplePool(
                z=columns[:n * dim].reshape(n, dim),
                log_volumes=columns[n * dim:],
                k=doc["k"],
                seed=doc["seed"],
                regions=doc["regions"],
                domain=domain,
                net_fingerprint=doc["net_fingerprint"],
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    def check_fingerprint(self, net):
        fp = cpa.fingerprint(net)
        if fp != self.net_fingerprint:
            raise ConfigError(
                f"pool was built for model {self.net_fingerprint[:12]}..., "
                f"supplied model hashes to {fp[:12]}..."
            )


def region_log_volumes(net, zs, k):
    """Per-latent log-volumes of the top-k spectra, plus the (n, num_units)
    activation bits, in row blocks whose slopes fit in ``cpa.BLOCK_BYTES``,
    scored on every CPU by ``cpa.map_blocks``."""
    zs = np.atleast_2d(zs)
    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    lvs = np.empty(zs.shape[0])
    bits = np.empty((zs.shape[0], net.num_units), dtype=bool)

    def score(rows):
        A, _, bits[rows] = cpa.affine_maps(net, zs[rows])
        lvs[rows] = np.log(batch_top_k_singular_values(A, k) + DEFAULT_EPS).sum(axis=1)

    cpa.map_blocks(score, zs.shape[0], 8 * net.input_dim * widest)
    return lvs, bits


def build_pool(net, domain, n, k, seed, feature_net=None):
    """Draw n latents i.i.d. from the domain and score each one's region.

    Deterministic given the seed; pool construction and later sampling use
    independent RNG streams, so the pool is reusable across sample sizes.
    """
    # the network the pool scores: the generator, or it composed with the feature net
    eff = net if feature_net is None else cpa.compose(net, feature_net)
    if domain.dim != eff.input_dim:
        raise InputError(
            f"domain dim {domain.dim} does not match network input {eff.input_dim}"
        )
    # a row of z, its score and its bits
    n = read_field(n, int, "n", InputError, 1, 8 * (eff.input_dim + 1) + eff.num_units)
    k = read_field(k, int, "k", InputError)
    seed = read_field(seed, int, "seed", InputError, 0)
    # every slope factors through each layer, so its rank is at most the
    # narrowest width; singular values past it are exact zeros
    widths = [eff.input_dim] + [layer.out_dim for layer in eff.layers]
    narrowest = int(np.argmin(widths))
    if not (1 <= k <= widths[narrowest]):
        where = ("the latent input" if narrowest == 0
                 else f"layer {narrowest - 1} of {eff.name!r}")
        raise InputError(
            f"k={k} outside [1, {widths[narrowest]}]: slopes in this space have "
            f"rank at most {widths[narrowest]}, the width of {where}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = domain.sample(n, rng)
    lvs, bits = region_log_volumes(eff, z, k)
    # distinct packed code rows; a net without nonlinear units has one region
    codes = np.packbits(bits, axis=1)
    regions = len(set(codes.view(f"V{codes.shape[1]}")[:, 0].tolist())) if bits.size else 1
    return SamplePool(
        z=z,
        log_volumes=lvs,
        k=k,
        seed=seed,
        regions=regions,
        domain=domain,
        net_fingerprint=cpa.fingerprint(net),
    )


# --- samplers ----------------------------------------------------------------

# per draw in a block of ``sample_batch``'s search: its rank, the sorted key
# and the found index
_SEARCH_ROW_BYTES = 3 * 8


def polarity_weights(pool, rho):
    """Categorical weights softmax(rho * log_volumes), computed in log-space;
    an entry whose score overflows to -inf just gets weight 0."""
    if not math.isfinite(rho):   # numpy takes no int past 64 bits
        raise InputError("rho must be finite")
    with np.errstate(over="ignore"):
        scores = rho * pool.log_volumes
    top = scores.max()
    if not np.isfinite(top):
        raise InputError(f"rho={rho} overflows the pool's largest log-weight")
    scores -= top
    w = np.exp(scores)
    return w / w.sum()


@dataclass(frozen=True)
class PolaritySampler:
    """A frozen pool bound to one polarity value."""

    pool: SamplePool
    rho: float
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", polarity_weights(self.pool, self.rho))

    def draw(self, s, seed):
        return sample_batch(self, s, seed)


def sample_batch(sampler, s, seed):
    """S categorical draws (with replacement) from the pool latents.

    For a given seed the draws are exactly ``pool.latents[idx]`` with
    ``idx = np.random.default_rng(seed).choice(n, size=s, p=weights)``: the
    same CDF, inverted at the same uniforms, drawn in one call.  Each block
    of uniforms is sorted before the binary search, so the searches walk
    the CDF in order instead of missing cache, and ``cpa.map_blocks``
    searches the blocks on every CPU; the index found for a key does not
    depend on the order of the keys or on the block.
    """
    # a draw, its uniform and its index
    s = read_field(s, int, "s", InputError, 1, 8 * (sampler.pool.domain.dim + 2))
    rng = np.random.default_rng(seed)
    cdf = sampler.weights.cumsum()   # as Generator.choice builds it
    cdf /= cdf[-1]
    u = rng.random(s)
    idx = np.empty(s, dtype=np.int64)

    def search(rows):
        keys = u[rows]
        order = np.argsort(keys)
        idx[rows][order] = cdf.searchsorted(keys[order], side="right")   # idx[rows] is a view

    cpa.map_blocks(search, s, _SEARCH_ROW_BYTES)
    return np.take(sampler.pool.latents, idx, axis=0)
