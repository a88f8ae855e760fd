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


def write_csv(path, header, rows, order=None):
    """CSV of rows of Python floats and ints, as ``tolist()`` gives them, with
    ``csv.writer``'s bytes: fields by ``repr`` (which round-trips a float, and
    is ``str`` for an int) and "\r\n" line ends.  Given ``order``, a list of
    indices into ``rows``, line i holds ``rows[order[i]]``, so a row that
    recurs is formatted once.  Identical runs give identical bytes."""
    lines = [",".join(map(repr, row)) + "\r\n" for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines if order is None else map(lines.__getitem__, order))


def _load(config):
    """The (net, feature_net, domain) triple every sweep starts from."""
    return config.load_net(), config.load_feature_net(), config.load_domain()


def _pool_for(config, net, feature_net, domain, seed):
    return build_pool(net, domain, config.n, config.k, seed, feature_net=feature_net)


def _generate(config, net, pool, rho, seed):
    zs = sample_batch(PolaritySampler(pool, rho), config.s, seed)
    return cpa.forward(net, zs)


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
        pool = _pool_for(config, net, feature_net, domain,
                         child_seed(config.seed, "pool", i_psi))
        draw_seed = child_seed(config.seed, "sample", i_psi)
        for rho in config.rho_grid:
            fake = SampleSet(_generate(config, net, pool, rho, draw_seed))
            prec, rec = precision_recall(reference, fake, config.k_nn)
            fd = frechet_distance(reference, fake)
            rows.append((float(rho), float(psi), float(prec), float(rec),
                         float(fd), config.seed))
    return ["rho", "psi", "precision", "recall", "frechet", "seed"], rows


def run_ablation(config):
    """Metrics across the (N, k) pool-construction grid, at the first rho."""
    if not config.n_grid or not config.k_grid:
        raise ConfigError("ablation needs nonempty n_grid and k_grid")
    net, feature_net, domain = _load(config)
    reference = SampleSet(config.load_reference())
    rho = config.rho_grid[0]
    rows = []
    for i_n, n in enumerate(config.n_grid):
        for i_k, k in enumerate(config.k_grid):
            pool = build_pool(net, domain, int(n), int(k),
                              child_seed(config.seed, "ablate_pool", i_n, i_k),
                              feature_net=feature_net)
            fake = SampleSet(
                _generate(config, net, pool, rho,
                          child_seed(config.seed, "ablate_sample", i_n, i_k)))
            prec, rec = precision_recall(reference, fake, config.k_nn)
            fd = frechet_distance(reference, fake)
            rows.append((int(n), int(k), float(fd), float(prec), float(rec),
                         config.seed))
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
    rows = []
    for rho in config.rho_grid:
        fake = SampleSet(_generate(config, net, pool, rho, draw_seed))
        rows.append((float(rho), float(frechet_distance(biased, fake)),
                     float(frechet_distance(uniform, fake)), config.seed))
    return ["rho", "frechet_biased", "frechet_uniform", "seed"], rows


def run_ppl(config):
    """Path-length distribution per rho, endpoints drawn by the polarity sampler."""
    net, feature_net, domain = _load(config)
    pool = _pool_for(config, net, feature_net, domain,
                     child_seed(config.seed, "pool", 0))
    rows = []
    for i_rho, rho in enumerate(config.rho_grid):
        scores = path_length(
            net, PolaritySampler(pool, rho), config.epsilon, config.n_pairs,
            child_seed(config.seed, "ppl", i_rho), feature_net=feature_net,
        )
        rows.append((float(rho), float(scores.mean()),
                     *(float(np.quantile(scores, q)) for q in (0.1, 0.5, 0.9)),
                     config.seed))
    return ["rho", "mean_ppl", "q10", "q50", "q90", "seed"], rows
