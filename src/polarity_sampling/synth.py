"""Synthetic reference datasets for desk-scale experiments."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, finite_array, read_field

# tolerance of the covariance checks; numpy's multivariate_normal warns past
# the same 1e-8
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class SyntheticDataset:
    """Seeded generator spec for a reference point cloud.

    kinds:
      gaussian_mixture: params {weights, means, covs} (covs are per-component
          full matrices, or scalars for isotropic)

    Any malformed spec raises ConfigError naming the field.
    """

    kind: str
    params: dict
    size: int
    seed: int
    # the checked (weights, means, covariance matrices) of ``params``
    _mixture: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind != "gaussian_mixture":
            raise ConfigError(f"unknown synthetic dataset kind {self.kind!r}")
        read_field(self.seed, int, "dataset field 'seed'", ConfigError, 0)
        object.__setattr__(self, "_mixture", self._check_mixture())
        # a row of the sample and its component
        dim = self._mixture[1].shape[1]
        read_field(self.size, int, "dataset field 'size'", ConfigError, 1, 8 * (dim + 1))

    def _check_mixture(self):
        """(weights, means, covariance matrices) of the spec."""
        params = read_field(self.params, dict, "dataset field 'params'", ConfigError)
        for key in ("weights", "means", "covs"):
            if key not in params:
                raise ConfigError(f"dataset params have no field {key!r}")
        w = finite_array(params["weights"], "dataset field 'weights'", ConfigError)
        if w.ndim != 1 or abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise ConfigError("dataset field 'weights' must be nonnegative and sum to 1")
        means = np.atleast_2d(
            finite_array(params["means"], "dataset field 'means'", ConfigError))
        if means.ndim != 2 or means.shape[0] != w.size:
            raise ConfigError(f"dataset field 'means' must hold one row per weight "
                              f"({w.size}), got shape {means.shape}")
        covs, dim = params["covs"], means.shape[1]
        if not isinstance(covs, (list, tuple, np.ndarray)) or len(covs) != w.size:
            raise ConfigError(f"dataset field 'covs' must be a list of one "
                              f"covariance per weight ({w.size})")
        mats = []
        for c, cov in enumerate(covs):
            cov = finite_array(cov, f"dataset field 'covs' entry {c}", ConfigError)
            if cov.shape not in ((), (dim, dim)):
                raise ConfigError(f"dataset field 'covs' entry {c} is not a number "
                                  f"or a {dim}x{dim} matrix")
            mat = cov * np.eye(dim) if cov.ndim == 0 else cov
            if not np.allclose(mat, mat.T, rtol=_PSD_TOL, atol=_PSD_TOL):
                raise ConfigError(f"dataset field 'covs' entry {c} is not symmetric")
            eig = np.linalg.eigvalsh(mat)
            if eig[0] < -_PSD_TOL * max(eig[-1], 0.0):
                raise ConfigError(f"dataset field 'covs' entry {c} is not positive "
                                  f"semidefinite (eigenvalue {eig[0]:.3g})")
            mats.append(mat)
        return w, means, mats

    def sample(self):
        weights, means, covs = self._mixture
        rng = np.random.default_rng(self.seed)
        comp = rng.choice(len(weights), size=self.size, p=weights)
        out = np.empty((self.size, means.shape[1]))
        for c, (mean, cov) in enumerate(zip(means, covs)):
            idx = comp == c
            if idx.any():
                out[idx] = rng.multivariate_normal(mean, cov, size=int(idx.sum()))
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
            return SyntheticDataset(**read_field(d, dict, "synthetic dataset spec",
                                                 ConfigError))
        except TypeError as exc:
            raise ConfigError(f"synthetic dataset spec: {exc}") from exc
