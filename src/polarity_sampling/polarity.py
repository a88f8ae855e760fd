"""Polarity sampling: reweight a generator's latent prior by Jacobian volume.

Pool construction draws N latents, records each one's region log-volume
(sum of log top-k singular values of the local slope matrix), and the
samplers then resample those latents under softmax(rho * log-volume):
rho < 0 concentrates on the output-density modes (small Jacobian volume),
rho > 0 on the anti-modes, rho = 0 reproduces the prior.
"""

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import cpa
from .errors import (
    ConfigError, InputError, SamplingTimeout, StateError, ValidationError,
    finite_array, read_json,
)
from .spectral import DEFAULT_EPS, batch_top_k_singular_values

POOL_FORMAT_VERSION = 2
# pool file fields: header JSON types, then base64 columns with their dtypes
_POOL_HEADER = {"net_fingerprint": str, "domain": dict, "n": int, "k": int,
                "eps": float, "space": str, "seed": int, "code_bytes": int,
                "z": str, "log_volumes": str, "codes": str}
_POOL_COLUMNS = {"z": "<f8", "log_volumes": "<f8", "codes": "u1"}
_STALL_LIMIT = 10_000_000
_ONLINE_CHUNK = 4096   # candidates proposed per round in OnlineSampler.draw


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
            if lo.size != hi.size or np.any(lo >= hi):
                raise InputError("uniform_box needs lo < hi per dimension")
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

    @property
    def dim(self):
        return (self.lo if self.kind == "uniform_box" else self.mean).size

    @property
    def volume(self):
        if self.kind != "uniform_box":
            raise InputError("volume is defined for box domains only")
        return float(np.prod(self.hi - self.lo))

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
        # between the two box edges
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
        if not isinstance(d, dict):
            raise ConfigError(f"domain must be an object, not {type(d).__name__}")
        kind = d.get("kind")
        fields = {"uniform_box": ("lo", "hi"), "gaussian": ("mean", "std")}.get(kind)
        if fields is None:
            raise ConfigError(f"unknown domain kind {kind!r}")
        spec = {}
        for key in fields:
            if key not in d:
                raise ConfigError(f"{kind} domain has no field {key!r}")
            spec[key] = finite_array(d[key], f"domain field {key!r}", ConfigError)
        psi = d.get("psi") if kind == "gaussian" else None
        if isinstance(psi, bool) or not isinstance(psi, (int, float, type(None))):
            raise ConfigError(f"domain field 'psi' must be a number, got {psi!r}")
        try:
            return LatentDomain(kind, psi=psi, **spec)
        except InputError as exc:
            raise ConfigError(f"bad {kind} domain: {exc}") from exc


# --- pools -------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePool:
    """N candidate latents with precomputed region log-volumes, as columns.

    ``codes`` holds each latent's activation code packed with
    ``np.packbits(bits, axis=1)``: one row of ceil(num_units / 8) bytes.
    """

    z: np.ndarray              # (n, K) float64
    log_volumes: np.ndarray    # (n,) float64
    codes: np.ndarray          # (n, code bytes) uint8
    k: int
    eps: float
    space: str            # "output" or "composed:<feature net name>"
    seed: int
    domain: LatentDomain
    net_fingerprint: str

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        lvs = np.asarray(self.log_volumes, dtype=np.float64)
        codes = np.asarray(self.codes, dtype=np.uint8)
        n = lvs.shape[0] if lvs.ndim == 1 else -1
        if z.shape != (n, self.domain.dim) or codes.ndim != 2 or codes.shape[0] != n:
            raise ValidationError(
                f"pool columns disagree: z {z.shape}, log_volumes {lvs.shape}, "
                f"codes {codes.shape}, latent dim {self.domain.dim}"
            )
        if not np.all(np.isfinite(lvs)):
            raise ValidationError("pool log-volumes must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "log_volumes", lvs)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self):
        return self.log_volumes.shape[0]

    @property
    def latents(self):
        return self.z

    def distinct_code_count(self):
        """How many distinct regions the pool has discovered (coverage diagnostic)."""
        return len(np.unique(self.codes, axis=0))

    def save(self, path):
        """One JSON document: header fields, then each column as base64 of
        its little-endian bytes.  Identical pools give identical bytes."""
        doc = {
            "version": POOL_FORMAT_VERSION,
            "net_fingerprint": self.net_fingerprint,
            "domain": self.domain.to_dict(),
            "n": self.n,
            "k": int(self.k),
            "eps": float(self.eps),
            "space": self.space,
            "seed": int(self.seed),
            "code_bytes": self.codes.shape[1],
        }
        for name, dtype in _POOL_COLUMNS.items():
            raw = np.ascontiguousarray(getattr(self, name), dtype=dtype).tobytes()
            doc[name] = base64.b64encode(raw).decode("ascii")
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @staticmethod
    def load(path):
        doc = read_json(path, ValidationError)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != POOL_FORMAT_VERSION:
            raise ValidationError(
                f"{path}: unsupported pool format version {version!r}; "
                f"rebuild it with `polsamp pool build`"
            )
        for key, kind in _POOL_HEADER.items():
            if key not in doc:
                raise ValidationError(f"{path}: pool file has no field {key!r}")
            if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
                raise ValidationError(
                    f"{path}: pool field {key!r} has type {type(doc[key]).__name__}"
                )
        try:
            domain = LatentDomain.from_dict(doc["domain"])
        except ConfigError as exc:
            raise ValidationError(f"{path}: bad pool domain: {exc}") from exc
        n = doc["n"]
        shapes = {"z": (n, domain.dim), "log_volumes": (n,),
                  "codes": (n, doc["code_bytes"])}
        columns = {}
        for name, dtype in _POOL_COLUMNS.items():
            try:
                raw = base64.b64decode(doc[name], validate=True)
            except ValueError as exc:
                raise ValidationError(f"{path}: column {name!r}: {exc}") from exc
            shape = shapes[name]
            if min(shape) < 0 or len(raw) != np.dtype(dtype).itemsize * math.prod(shape):
                raise ValidationError(
                    f"{path}: column {name!r} holds {len(raw)} bytes, "
                    f"not the {shape} {np.dtype(dtype).name} array the header gives"
                )
            columns[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        try:
            return SamplePool(
                **columns,
                k=doc["k"],
                eps=doc["eps"],
                space=doc["space"],
                seed=doc["seed"],
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


def _effective_net(net, space, feature_net):
    if space == "output":
        return net
    if space.startswith("composed"):
        if feature_net is None:
            raise ConfigError(
                f"pool space {space!r} requires the matching feature network"
            )
        return cpa.compose(net, feature_net)
    raise ConfigError(f"unknown space {space!r}")


def region_log_volumes(net, zs, k, eps=DEFAULT_EPS):
    """Per-latent log-volumes of the top-k spectra, plus the (n, num_units)
    activation bits, in row blocks whose slopes fit in ``cpa.BLOCK_BYTES``."""
    zs = np.atleast_2d(zs)
    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    lvs = np.empty(zs.shape[0])
    bits = np.empty((zs.shape[0], net.num_units), dtype=bool)
    for rows in cpa.row_blocks(zs.shape[0], 8 * net.input_dim * widest):
        A, _, bits[rows] = cpa.affine_maps(net, zs[rows])
        lvs[rows] = np.log(batch_top_k_singular_values(A, k) + eps).sum(axis=1)
    return lvs, bits


def build_pool(net, domain, n, k, seed, space="output", feature_net=None,
               eps=DEFAULT_EPS):
    """Draw n latents i.i.d. from the domain and score each one's region.

    Deterministic given the seed; pool construction and later sampling use
    independent RNG streams, so the pool is reusable across sample sizes.
    """
    if n < 1:
        raise InputError("pool size must be at least 1")
    eff = _effective_net(net, space, feature_net)
    if domain.dim != eff.input_dim:
        raise InputError(
            f"domain dim {domain.dim} does not match network input {eff.input_dim}"
        )
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
    lvs, bits = region_log_volumes(eff, z, k, eps)
    return SamplePool(
        z=z,
        log_volumes=lvs,
        codes=np.packbits(bits, axis=1),
        k=k,
        eps=eps,
        space=space,
        seed=seed,
        domain=domain,
        net_fingerprint=cpa.fingerprint(net),
    )


# --- samplers ----------------------------------------------------------------


def polarity_weights(pool, rho):
    """Categorical weights softmax(rho * log_volumes), computed in log-space."""
    if pool.n == 0:
        raise StateError("empty pool")
    if not np.isfinite(rho):
        raise InputError("rho must be finite")
    # an entry that overflows to -inf just gets weight 0
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
    """S categorical draws (with replacement) from the pool latents."""
    if s < 1:
        raise InputError("need at least one sample")
    rng = np.random.default_rng(seed)
    idx = rng.choice(sampler.pool.n, size=s, p=sampler.weights)
    return sampler.pool.latents[idx]


class OnlineSampler:
    """Rejection sampling against the pool's weight scale, no pool lookup.

    Fresh candidates come straight from the prior; each one's Jacobian
    spectrum is computed on the fly.  A candidate is accepted with
    probability w_z / w_max, w_max the largest pool weight, so acceptance
    is exactly proportional to w_z: textbook rejection sampling for the
    target density.  That holds only while w_max bounds every candidate; a
    candidate that outweighs it raises StateError instead of biasing the
    draws.
    """

    def __init__(self, pool, net, rho, seed, feature_net=None):
        if pool.n == 0:
            raise StateError("empty pool")
        self.pool = pool
        self.net = _effective_net(net, pool.space, feature_net)
        self.rho = float(rho)
        self.rng = np.random.default_rng(seed)
        self._log_wmax = float((rho * pool.log_volumes).max())
        self._proposed = 0
        self._accepted = 0

    def draw(self, s):
        out = np.empty((s, self.pool.domain.dim))
        filled = 0
        rejections = 0
        while filled < s:
            zs = self.pool.domain.sample(_ONLINE_CHUNK, self.rng)
            lw = self.rho * region_log_volumes(
                self.net, zs, self.pool.k, self.pool.eps
            )[0]
            excess = float(lw.max()) - self._log_wmax
            if excess > 0.0:
                raise StateError(
                    f"online envelope violated: a fresh candidate outweighs all "
                    f"{self.pool.n} pool latents (log-weight excess {excess:.3g}); "
                    f"build a larger pool"
                )
            accept = self.rng.uniform(size=_ONLINE_CHUNK) < np.exp(lw - self._log_wmax)
            took = zs[accept]
            take = min(s - filled, took.shape[0])
            out[filled : filled + take] = took[:take]
            filled += take
            self._proposed += _ONLINE_CHUNK
            self._accepted += int(accept.sum())
            rejections += int(_ONLINE_CHUNK - accept.sum())
            if rejections >= _STALL_LIMIT and filled < s:
                raise SamplingTimeout(
                    rejections, self._accepted / max(self._proposed, 1)
                )
        return out

    @property
    def acceptance_rate(self):
        return self._accepted / max(self._proposed, 1)
