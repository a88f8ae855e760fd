"""Synthetic reference datasets for desk-scale experiments."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class SyntheticDataset:
    """Seeded generator spec for a reference point cloud.

    kinds:
      gaussian_mixture: params {weights, means, covs} (covs are per-component
          full matrices, or scalars for isotropic)
    """

    kind: str
    params: dict
    size: int
    seed: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError("dataset size must be at least 1")
        if self.kind != "gaussian_mixture":
            raise ConfigError(f"unknown synthetic dataset kind {self.kind!r}")
        w = np.asarray(self.params["weights"], dtype=np.float64)
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise InputError("mixture weights must be nonnegative and sum to 1")

    def sample(self):
        rng = np.random.default_rng(self.seed)
        weights = np.asarray(self.params["weights"], dtype=np.float64)
        means = np.atleast_2d(np.asarray(self.params["means"], dtype=np.float64))
        covs = self.params["covs"]
        dim = means.shape[1]
        comp = rng.choice(len(weights), size=self.size, p=weights)
        out = np.empty((self.size, dim))
        for c in range(len(weights)):
            idx = comp == c
            n_c = int(idx.sum())
            if n_c == 0:
                continue
            cov = covs[c]
            cov = (
                float(cov) * np.eye(dim)
                if np.ndim(cov) == 0
                else np.asarray(cov, dtype=np.float64)
            )
            out[idx] = rng.multivariate_normal(means[c], cov, size=n_c)
        return out

    def to_dict(self):
        params = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in self.params.items()
        }
        return {"kind": self.kind, "params": params, "size": self.size,
                "seed": self.seed}

    @staticmethod
    def from_dict(d):
        try:
            return SyntheticDataset(d["kind"], d["params"], int(d["size"]),
                                    int(d["seed"]))
        except KeyError as exc:
            raise ConfigError(f"synthetic dataset spec missing field {exc}") from exc
