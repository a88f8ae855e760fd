"""Polarity sampling: reweight a generator's latent prior by Jacobian volume.

Pool construction draws N latents, records each one's region log-volume
(sum of log(sigma_i + eps) over the top-k singular values of the local
slope matrix; at k = K, sum of log(|R_ii| + eps) over the slope's QR
diagonal, within 1e-7 of it, with rows near rank deficiency, or where
the eps may move the two forms apart, scored by SVD;
slope and QR or SVD run once per distinct activation code in each scoring
block, as a region's slope is constant), and the sampler then resamples
those latents under softmax(rho * log-volume):
rho < 0 concentrates on the output-density modes (small Jacobian volume),
rho > 0 on the anti-modes, rho = 0 reproduces the prior.

The latents of a pool are ``draw_latents(domain, n, seed)``, a function of
the pool's header alone, so a pool file stores only the log-volumes and the
sha256 of the latents; loading redraws them and checks the digest.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _cephes, cpa
from .errors import (
    ConfigError, InputError, ValidationError, finite_array, is_finite, parse_json,
    read_bytes, read_field,
)
from .spectral import batch_top_k_singular_values

DEFAULT_EPS = 1e-12
POOL_FORMAT_VERSION = 5
# a k = K slope is scored by SVD, not by its QR diagonal, where its smallest
# |R_ii| is at most _QR_FLAG times max(max |R_ii|, 1), or where the eps may
# move the QR and SVD forms apart by more than _QR_GAP
_QR_FLAG = 1e-4
_QR_GAP = 5e-8
# pool header fields and their JSON types
_POOL_HEADER = {"net_fingerprint": str, "domain": dict, "n": int, "k": int,
                "seed": int, "regions": int, "latents_sha256": str}


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
            z = rng.standard_normal((n, self.dim))
        else:
            # the psi-box factorizes per axis: invert each axis's normal CDF
            # between the two box edges, by the ports of scipy.special's
            # ndtr and ndtri, so that the draws are scipy's to the bit
            z = _cephes.ndtri(rng.uniform(_cephes.ndtr(-2.0 * self.psi),
                                          _cephes.ndtr(2.0 * self.psi), size=(n, self.dim)))
        # in place, the same bytes as mean + std * z
        try:
            with np.errstate(over="raise"):
                z *= self.std
                z += self.mean
        except FloatingPointError as exc:
            psi = "" if self.psi is None else f", psi={self.psi}"
            raise InputError(f"a draw of the gaussian domain mean={self.mean.tolist()}, "
                             f"std={self.std.tolist()}{psi} leaves the float range") from exc
        return z

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


def draw_latents(domain, n, seed):
    """The n latents of the pool with this domain and seed: i.i.d. prior draws
    from the first child of ``SeedSequence(seed)``, a stream of their own, so
    sampling from the pool never reuses it."""
    return domain.sample(n, np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]))


def _latents_sha256(z):
    """The sha256 of the little-endian float64 bytes of ``z``, row by row."""
    return hashlib.sha256(np.ascontiguousarray(z, dtype="<f8")).hexdigest()


@dataclass(frozen=True)
class SamplePool:
    """N candidate latents with precomputed region log-volumes, as columns.

    ``regions`` counts the distinct activation codes among the latents
    (a coverage diagnostic); the codes themselves are not kept.  A pool file
    keeps the log-volumes but not the latents: they are
    ``draw_latents(domain, n, seed)``, redrawn on load.
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
        ``log_volumes`` (n).  The header's ``latents_sha256`` is the digest of
        ``z``; a pool whose ``z`` is not ``draw_latents(domain, n, seed)``
        saves, but ``load`` refuses its file.  Identical pools give identical
        bytes."""
        header = {
            "version": POOL_FORMAT_VERSION,
            "net_fingerprint": self.net_fingerprint,
            "domain": self.domain.to_dict(),
            "n": self.n,
            "k": int(self.k),
            "seed": int(self.seed),
            "regions": int(self.regions),
            "latents_sha256": _latents_sha256(self.z),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(self.log_volumes, dtype="<f8").tobytes())

    @staticmethod
    def load(path):
        """The pool saved at ``path``: the header is checked first, then the
        latents are redrawn from its domain, n and seed and must match its
        ``latents_sha256``.  A numpy or libm that draws the prior differently
        is refused, never sampled from."""
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
        seed = read_field(doc["seed"], int, f"{path}: pool field 'seed'", ValidationError, 0)
        if len(payload) != 8 * n:
            raise ValidationError(
                f"{path}: pool columns hold {len(payload)} bytes, not the 8 * n = "
                f"{8 * n} of the log-volumes of n={n} latents"
            )
        if n == 0:
            raise ValidationError(f"{path}: pool is empty: it holds no latents")
        # the redraw allocates n rows of K floats
        read_field(n, int, f"{path}: pool field 'n'", ValidationError, row_bytes=8 * dim)
        try:
            z = draw_latents(domain, n, seed)
        except InputError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        if _latents_sha256(z) != doc["latents_sha256"]:
            raise ValidationError(
                f"{path}: the latents redrawn from the header's domain, n and seed "
                f"do not match its latents_sha256; rebuild it with `polsamp pool build` "
                f"(another numpy or libm may draw the prior differently)"
            )
        try:
            return SamplePool(
                z=z,
                log_volumes=np.frombuffer(payload, dtype="<f8"),
                k=doc["k"],
                seed=seed,
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
        # a hand-made file may pair the fingerprint with latents of another dim
        if self.domain.dim != net.input_dim:
            raise ConfigError(f"pool latents have dim {self.domain.dim}, the model's "
                              f"input_dim is {net.input_dim}")


def _eps_gap_too_wide(A, h, d, rows):
    """Which of the full-rank k = K slopes ``rows`` may score more than
    ``_QR_GAP`` apart by QR and by SVD, given their raw QR ``h`` and its
    ``|R_ii|`` ``d``.

    Without the eps both forms are ``log |det R|``; the eps moves them apart
    by at most ``eps * sum(1 / sigma_i)`` (or ``eps * sum(1 / |R_ii|)``),
    both at most ``eps * sqrt(K) * ||R^-1||_F <= eps * K / sigma_min``.  R is
    inverted only where ``sigma_min >= prod |R_ii| * ((K - 1) /
    ||A||_F^2)^((K - 1) / 2)`` (AM-GM on the other K - 1 singular values)
    does not already clear the slope.
    """
    K = d.shape[1]
    with np.errstate(all="ignore"):   # log(0) on rows already flagged; huge slopes
        log_floor = (np.log(d).sum(axis=1) - (K - 1) / 2
                     * np.log(np.einsum("nij,nij->n", A, A) / max(K - 1, 1)))
    unsure = np.flatnonzero(rows & ~(log_floor >= math.log(DEFAULT_EPS * K / _QR_GAP)))
    wide = np.zeros(len(d), dtype=bool)
    r_inv = np.linalg.inv(np.tril(h[unsure, :, :K]))
    wide[unsure] = DEFAULT_EPS * math.sqrt(K) * np.linalg.norm(r_inv, axis=(1, 2)) > _QR_GAP
    return wide


def region_log_volumes(net, zs, k):
    """Per-latent log-volumes ``sum log(sigma_i + eps)`` of the top-k
    spectra, plus the activation codes of each block's distinct regions as
    rows of ``np.packbits`` (ceil(num_units / 8) bytes; a code may recur in
    another block), in row blocks whose slopes fit in ``cpa.BLOCK_BYTES``,
    scored on every CPU by ``cpa.map_blocks``.

    A block's code pass (``cpa.region_codes``) finds its distinct codes;
    slopes and their QR or SVD run once per distinct code, and each latent
    takes the score of its code.  A slope depends on its code alone, and
    its QR and SVD run per matrix, so a score has the same bits whichever
    latent stands for the region.  A pre-activation that overflows, or
    that is NaN, raises FloatingPointError naming the model.

    At k = K the product of all singular values is ``|det R|`` of the
    slope's QR, so a row is scored ``sum log(|R_ii| + eps)``, within 1e-7 of
    the singular-value form, unless its smallest ``|R_ii|`` is at most
    ``_QR_FLAG * max(max |R_ii|, 1)`` (a rank deficiency may act) or
    ``eps * sqrt(K) * ||R^-1||_F``, which bounds what the eps does to the two
    forms (``1 / sigma_min <= ||R^-1||_F``), exceeds ``_QR_GAP``: such a row
    is scored by SVD like every row at k < K.
    """
    zs = np.atleast_2d(zs)
    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    lvs = np.empty(zs.shape[0])

    def score(rows):
        try:
            with np.errstate(over="raise", invalid="raise"):
                bits = cpa.region_codes(net, zs[rows])
        except FloatingPointError as exc:
            raise FloatingPointError(f"model {net.name!r}: a pre-activation at a pool "
                                     f"latent leaves the float range ({exc})") from exc
        codes = np.packbits(bits, axis=1)
        # one key per packed row: an unsigned integer where numpy has one of
        # its width (it sorts ~10x faster than a void), else a void; a net
        # without nonlinear units has one code
        width = codes.shape[1]
        keys = (codes.view(f"u{width}" if width in (1, 2, 4, 8) else f"V{width}")[:, 0]
                if width else np.zeros(len(codes), np.uint8))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        A = cpa.slopes(net, bits[first])
        block = np.empty(len(first))
        svd_rows = slice(None)
        # an output narrower than K leaves k above the rank: the SVD call refuses it
        if k == net.input_dim <= net.output_dim:
            h = np.linalg.qr(A, mode="raw")[0]    # R transposed in its lower triangle
            d = np.abs(np.diagonal(h, axis1=1, axis2=2))
            block[:] = np.log(d + DEFAULT_EPS).sum(axis=1)
            svd_rows = d.min(axis=1) <= _QR_FLAG * np.maximum(d.max(axis=1), 1.0)
            svd_rows |= _eps_gap_too_wide(A, h, d, ~svd_rows)
        # called on every block, also with no row: it checks k <= min(D, K)
        sigma = batch_top_k_singular_values(A[svd_rows], k)
        block[svd_rows] = np.log(sigma + DEFAULT_EPS).sum(axis=1)
        np.take(block, inverse, out=lvs[rows])   # lvs[rows] is a view: rows is a slice
        return codes[first]

    blocks = cpa.map_blocks(score, zs.shape[0], 8 * net.input_dim * widest)
    return lvs, np.concatenate([np.empty((0, -(-net.num_units // 8)), np.uint8), *blocks])


def build_pool(net, domain, n, k, seed, feature_net=None):
    """Draw the n latents ``draw_latents(domain, n, seed)`` and score each
    one's region.

    Deterministic given the seed; pool construction and later sampling use
    independent RNG streams, so the pool is reusable across sample sizes.
    """
    # the network the pool scores: the generator, or it composed with the feature net
    eff = net if feature_net is None else cpa.compose(net, feature_net)
    if domain.dim != eff.input_dim:
        raise InputError(
            f"domain dim {domain.dim} does not match network input {eff.input_dim}"
        )
    # a row of z, its score and its packed code
    n = read_field(n, int, "n", InputError, 1,
                   8 * (eff.input_dim + 1) + -(-eff.num_units // 8))
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
    z = draw_latents(domain, n, seed)
    lvs, codes = region_log_volumes(eff, z, k)
    # distinct packed code rows among the blocks' distinct codes; a net
    # without nonlinear units has one region
    regions = len(set(codes.view(f"V{codes.shape[1]}")[:, 0].tolist())) if codes.size else 1
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

# per draw in a block of ``sample_batch``'s search: its uniform, its guide
# bucket and the found index
_SEARCH_ROW_BYTES = 3 * 8
# guide-table steps a draw walks before it falls back to the binary search
_GUIDE_STEPS = 2


def polarity_weights(pool, rho):
    """Categorical weights softmax(rho * log_volumes), computed in log-space;
    an entry whose score overflows to -inf just gets weight 0."""
    if not is_finite(rho):   # numpy takes no int past 64 bits
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
    same CDF, inverted at the same uniforms, drawn in one call.  The
    inversion looks each uniform up in a guide table (Chen & Asau's indexed
    search) instead of binary-searching the whole CDF.  With B the power of
    two at or above ``min(n, s)``, ``guide[b]`` counts the CDF entries at or
    below ``b / B``; since B is a power of two, ``u * B``, its floor and
    ``ceil(cdf * B)`` are exact, so ``guide[floor(u * B)]`` is never past the
    index ``cdf.searchsorted(u, "right")`` wants.  Each draw walks up from
    it at most ``_GUIDE_STEPS`` entries, and a draw still short of its
    index is binary-searched as ``Generator.choice`` does.  ``cpa.map_blocks``
    looks the blocks of uniforms up on every CPU; a draw's index does not
    depend on its block.
    """
    # a draw, its uniform, its index and up to two guide entries
    s = read_field(s, int, "s", InputError, 1, 8 * (sampler.pool.domain.dim + 4))
    rng = np.random.default_rng(seed)
    cdf = sampler.weights.cumsum()   # as Generator.choice builds it
    cdf /= cdf[-1]
    u = rng.random(s)
    size = 1 << (min(cdf.size, s) - 1).bit_length()
    guide = np.bincount(np.ceil(cdf * size).astype(np.intp),
                        minlength=size + 1).cumsum()[:size]
    idx = np.empty(s, dtype=np.intp)

    def search(rows):
        keys = u[rows]
        found = guide[(keys * size).astype(np.intp)]
        for _ in range(_GUIDE_STEPS):
            found += cdf[found] <= keys
        short = np.flatnonzero(cdf[found] <= keys)
        found[short] = cdf.searchsorted(keys[short], side="right")
        idx[rows] = found

    cpa.map_blocks(search, s, _SEARCH_ROW_BYTES)
    return np.take(sampler.pool.latents, idx, axis=0)
