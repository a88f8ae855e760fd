"""Desk-scale experiment sweeps with reproducible seeds and CSV output.

Each grid point gets its own child seed derived from (master seed,
component name, grid indices), so grids can be resized without perturbing
other points.  Sample-draw seeds deliberately do not depend on the rho
index: on a single-region network every rho then reuses the same draws,
making "polarity off" and "rho = 0" bit-identical.
"""

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import cpa
from .errors import ConfigError, read_field, read_json
from .metrics import (
    SampleSet, frechet_distance, nn_distances, nn_summary, path_length,
    precision_recall,
)
from .polarity import LatentDomain, PolaritySampler, build_pool, sample_batch
from .synth import SyntheticDataset


def child_seed(master, label, *indices):
    """Deterministic sub-seed for one component at one grid point."""
    key = f"{master}/{label}/" + "/".join(str(i) for i in indices)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


# config field -> (kind, least), as ``read_field`` takes them: paths, counts,
# integers, numbers and grids of either ([kind])
_FIELDS = {
    # open() would take an integer as a file descriptor (0 reads stdin)
    "model_path": (str, None), "feature_model_path": (str, None),
    **dict.fromkeys(("n", "k", "s", "k_nn", "j", "n_pairs", "m_top"), (int, 1)),
    "seed": (int, 0), "resolution": (int, None), "epsilon": (float, None),
    "rho_grid": ([float], None), "psi_grid": ([float], None),
    "n_grid": ([int], None), "k_grid": ([int], None),
}


@dataclass
class ExperimentConfig:
    model_path: str
    domain: dict
    seed: int
    rho_grid: list
    feature_model_path: str = None
    n: int = 200_000          # pool size; shrink for quick runs
    k: int = 30               # top-k singular values
    psi_grid: list = field(default_factory=lambda: [1.0])
    s: int = 2000             # samples drawn per grid point
    k_nn: int = 3
    j: int = 3
    epsilon: float = 1e-4     # path-length interpolation step
    n_pairs: int = 1000
    m_top: int = 16           # latents reported by the modes command
    reference: dict = None
    reference_biased: dict = None
    reference_uniform: dict = None
    n_grid: list = None
    k_grid: list = None
    resolution: int = 64

    def __post_init__(self):
        for name, (kind, least) in _FIELDS.items():
            value = getattr(self, name)
            # a field that defaults to None (feature model, ablation grids) may be null
            if value is not None or getattr(ExperimentConfig, name, 0) is not None:
                read_field(value, kind, f"config field {name!r}", ConfigError, least)
        if self.epsilon <= 0:
            raise ConfigError(f"config field 'epsilon' must be above 0, got {self.epsilon}")
        if not self.rho_grid:
            raise ConfigError("rho grid must be nonempty")
        if not self.psi_grid:
            raise ConfigError("psi grid must be nonempty")

    def to_json(self, path=None):
        doc = {k: v for k, v in asdict(self).items() if v is not None}
        text = json.dumps(doc, indent=1, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @staticmethod
    def from_json(path):
        doc = read_json(path, ConfigError)
        try:
            return ExperimentConfig(**doc)
        except TypeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    # --- loaded resources ---

    def load_net(self):
        return cpa.load_model(self.model_path)

    def load_feature_net(self):
        if self.feature_model_path is None:
            return None
        return cpa.load_model(self.feature_model_path)

    def load_domain(self):
        return LatentDomain.from_dict(self.domain)

    def load_reference(self, which="reference"):
        spec = getattr(self, which)
        if spec is None:
            raise ConfigError(f"config is missing the {which!r} dataset")
        return SyntheticDataset.from_dict(spec).sample()


def write_csv(path, header, rows):
    """CSV of ``rows`` with ``csv.writer``'s bytes: fields by ``repr`` (which
    round-trips a float, and is ``str`` for an int) and "\r\n" line ends.
    ``rows`` is a list of rows of Python floats and ints, as ``tolist()``
    gives them, or a 2-D float64 array, whose file has the bytes of its
    ``tolist()``.  Identical runs give identical bytes."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if not isinstance(rows, np.ndarray):
            fh.writelines(_repr_line(row) + b"\r\n" for row in rows)
            return
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        # a float's text is at most 24 bytes; the dump, its split and their
        # join hold it a few times over
        for block in cpa.row_blocks(len(rows), 192 * rows.shape[1]):
            fh.write(_float_lines(rows[block]))


def _repr_line(row):
    return ",".join(map(repr, row)).encode()


def _float_lines(block):
    """The CSV lines of a C-contiguous 2-D float64 block, by ``repr``.

    orjson writes a float's shortest round-trip digits, nearest with ties to
    even, as ``repr`` does; the two spell the same text for 0 and for
    1e-4 <= |x| < 1e16.  A row with any other value (orjson writes 1e16 and
    0.00001 where ``repr`` writes 1e+16 and 1e-05, and NaN as null) is
    formatted by ``repr``.  orjson is imported here, not at start-up."""
    import orjson

    lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    mag = np.abs(block)
    plain = (block == 0) | ((mag >= 1e-4) & (mag < 1e16))
    for i in np.flatnonzero(~plain.all(axis=1)).tolist():
        lines[i] = _repr_line(block[i].tolist())
    lines.append(b"")
    return b"\r\n".join(lines)


def _load(config):
    """The (net, feature_net, domain) triple every sweep starts from."""
    return config.load_net(), config.load_feature_net(), config.load_domain()


def _pool_for(config, net, feature_net, domain, seed):
    return build_pool(net, domain, config.n, config.k, seed, feature_net=feature_net)


def _generate(config, net, pool, rho, seed):
    """One grid point's drawn outputs, as a SampleSet."""
    zs = sample_batch(PolaritySampler(pool, rho), config.s, seed)
    return SampleSet(cpa.forward(net, zs))


def _scores(config, net, pool, rho, seed, reference):
    """(precision, recall, Fréchet distance) of one grid point's draws; the
    draws and their manifold are freed on return, before the next draw."""
    fake = _generate(config, net, pool, rho, seed)
    prec, rec = precision_recall(reference, fake, config.k_nn)
    return float(prec), float(rec), float(frechet_distance(reference, fake))


def _pareto_rows(config, net, feature_net, domain, reference, i_psi, psi):
    """The rows of one psi; its pool is freed on return, before the next
    psi's pool is built."""
    pool = _pool_for(config, net, feature_net, domain,
                     child_seed(config.seed, "pool", i_psi))
    draw_seed = child_seed(config.seed, "sample", i_psi)
    rows = []
    for rho in config.rho_grid:
        prec, rec, fd = _scores(config, net, pool, rho, draw_seed, reference)
        rows.append((float(rho), float(psi), prec, rec, fd, config.seed))
    return rows


def run_pareto(config):
    """(rho, psi) sweep of precision/recall/Fréchet against the reference set."""
    net, feature_net, base_domain = _load(config)
    if base_domain.psi is not None:
        raise ConfigError("pareto truncates the prior through psi_grid; give it a "
                          "domain without psi")
    reference = SampleSet(config.load_reference())
    rows = []
    for i_psi, psi in enumerate(config.psi_grid):
        domain = base_domain if psi == 1.0 else base_domain.truncate(psi)
        rows += _pareto_rows(config, net, feature_net, domain, reference, i_psi, psi)
    return ["rho", "psi", "precision", "recall", "frechet", "seed"], rows


def _ablation_row(config, net, feature_net, domain, reference, rho, i_n, n, i_k, k):
    """The row of one (n, k); its pool is freed on return."""
    pool = build_pool(net, domain, int(n), int(k),
                      child_seed(config.seed, "ablate_pool", i_n, i_k),
                      feature_net=feature_net)
    prec, rec, fd = _scores(config, net, pool, rho,
                            child_seed(config.seed, "ablate_sample", i_n, i_k), reference)
    return int(n), int(k), fd, prec, rec, config.seed


def run_ablation(config):
    """Metrics across the (N, k) pool-construction grid, at the first rho."""
    if not config.n_grid or not config.k_grid:
        raise ConfigError("ablation needs nonempty n_grid and k_grid")
    net, feature_net, domain = _load(config)
    reference = SampleSet(config.load_reference())
    rho = config.rho_grid[0]
    rows = [_ablation_row(config, net, feature_net, domain, reference, rho, i_n, n, i_k, k)
            for i_n, n in enumerate(config.n_grid)
            for i_k, k in enumerate(config.k_grid)]
    return ["n", "k", "frechet", "precision", "recall", "seed"], rows


def run_modes(config, rho_extreme=None):
    """Report the highest-weight pool latents, their outputs, and NN distances."""
    net, feature_net, domain = _load(config)
    rho = config.rho_grid[0] if rho_extreme is None else rho_extreme
    pool = _pool_for(config, net, feature_net, domain,
                     child_seed(config.seed, "pool", 0))
    sampler = PolaritySampler(pool, rho)
    order = np.argsort(-sampler.weights, kind="stable")[: config.m_top]
    latents = pool.latents[order]
    outputs = cpa.forward(net, latents)
    report = {
        "rho": float(rho),
        "seed": config.seed,
        "latents": latents.tolist(),
        "outputs": outputs.tolist(),
        "weights": sampler.weights[order].tolist(),
    }
    if config.reference is not None:
        dists = nn_distances(
            SampleSet(outputs),
            SampleSet(config.load_reference()),
            config.j,
        )
        report["nn_distances"] = dists.tolist()
        report["nn_summary"] = nn_summary(dists)
    return report


def _shift_distances(config, net, pool, rho, seed, biased, uniform):
    """Fréchet distances of one rho's draws to both references; the draws
    are freed on return, before the next draw."""
    fake = _generate(config, net, pool, rho, seed)
    return float(frechet_distance(biased, fake)), float(frechet_distance(uniform, fake))


def run_shift(config):
    """Fréchet distance to a biased and an unbiased reference across rho."""
    net, feature_net, domain = _load(config)
    biased = SampleSet(config.load_reference("reference_biased"))
    uniform = SampleSet(config.load_reference("reference_uniform"))
    if biased.dim != uniform.dim:
        raise ConfigError("shift references live in different spaces")
    pool = _pool_for(config, net, feature_net, domain,
                     child_seed(config.seed, "pool", 0))
    draw_seed = child_seed(config.seed, "sample", 0)
    rows = [(float(rho), *_shift_distances(config, net, pool, rho, draw_seed,
                                           biased, uniform), config.seed)
            for rho in config.rho_grid]
    return ["rho", "frechet_biased", "frechet_uniform", "seed"], rows


def _ppl_row(config, net, feature_net, pool, i_rho, rho):
    """The row of one rho; its path-length scores are freed on return."""
    scores = path_length(
        net, PolaritySampler(pool, rho), config.epsilon, config.n_pairs,
        child_seed(config.seed, "ppl", i_rho), feature_net=feature_net,
    )
    return (float(rho), float(scores.mean()),
            *(float(np.quantile(scores, q)) for q in (0.1, 0.5, 0.9)), config.seed)


def run_ppl(config):
    """Path-length distribution per rho, endpoints drawn by the polarity sampler."""
    net, feature_net, domain = _load(config)
    pool = _pool_for(config, net, feature_net, domain,
                     child_seed(config.seed, "pool", 0))
    rows = [_ppl_row(config, net, feature_net, pool, i_rho, rho)
            for i_rho, rho in enumerate(config.rho_grid)]
    return ["rho", "mean_ppl", "q10", "q50", "q90", "seed"], rows
