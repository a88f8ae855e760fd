"""The three benchmark workloads: fixed networks, seeded inputs, timed ops, oracles.

Each workload's network weights are fixed, so region structure (and with it
cost) does not move with the workload seed; the seed drives only the config,
pool, draw and query seeds.  Every timed op is followed by an untimed check
against an oracle that does not share the timed code path.
"""

import collections
import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from polarity_sampling import cli, cpa, density, polarity
from polarity_sampling.cpa import CpaNetwork, Layer


class CheckFailed(Exception):
    """An op ran but its output disagrees with the oracle."""


# One timed operation: ``run()`` is timed, ``check(result)`` is not.
Op = collections.namedtuple("Op", "name run check")


def fixed_net(name, seed, k, spec, bias_scale):
    """Seeded CPA net; ``spec`` is a list of (width, activation)."""
    rng = np.random.default_rng(seed)
    layers, d_in = [], k
    for width, act in spec:
        layers.append(Layer(
            rng.standard_normal((width, d_in)) / np.sqrt(d_in),
            bias_scale * rng.standard_normal(width),
            act,
            alpha=0.2 if act == "leaky_relu" else 0.0,
        ))
        d_in = width
    return CpaNetwork(name, tuple(layers))


def sub_seed(seed, label):
    """Seed for one component (config, draws, queries, ...) of a workload run."""
    key = [seed] + [ord(c) for c in label]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def run_cli(argv):
    """``polsamp <argv>`` in-process; raises unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"polsamp {' '.join(argv)} exited {rc}: "
                           f"{err.getvalue().strip()}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def unit_bits(net, z):
    """(n, units) activation bits of every nonlinear unit, computed here from
    the weights rather than through ``cpa``."""
    h = np.asarray(z, dtype=np.float64)
    bits = []
    for layer in net.layers:
        pre = h @ layer.weight.T + layer.bias
        if layer.activation != "identity":
            on = pre > 0.0
            bits.append(on)
            h = np.where(on, pre, 0.0 if layer.activation == "relu" else layer.alpha * pre)
        else:
            h = pre
    return np.concatenate(bits, axis=1)


def region_keys(net, z):
    """One integer per row naming its region; for nets of at most 63 units."""
    bits = unit_bits(net, z)
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def fd_log_volumes(net, zs, k, eps, scale=1e-6):
    """Log-volumes from central finite differences of ``cpa.forward``.

    Returns (log_volumes, interior): ``interior`` is False where the
    stencil crosses a region boundary, where the difference quotient means
    nothing.
    """
    n, K = zs.shape
    h = scale * (1.0 + np.abs(zs))                       # (n, K)
    steps = np.zeros((n, 2 * K, K))
    for d in range(K):
        steps[:, 2 * d, d] = h[:, d]
        steps[:, 2 * d + 1, d] = -h[:, d]
    pts = np.concatenate([zs[:, None, :], zs[:, None, :] + steps], axis=1)
    flat = pts.reshape(-1, K)
    bits = unit_bits(net, flat).reshape(n, 2 * K + 1, -1)
    interior = np.all(bits == bits[:, :1], axis=(1, 2))
    out = cpa.forward(net, flat).reshape(n, 2 * K + 1, -1)
    J = (out[:, 1::2, :] - out[:, 2::2, :]) / (2.0 * h[:, :, None])   # (n, K, D)
    sigma = np.linalg.svd(J, compute_uv=False)[:, :k]
    return np.sum(np.log(sigma + eps), axis=1), interior


class Workload:
    """Base: ``write_inputs`` is set-up, ``ops`` is one timed cycle."""

    name = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.state = {}

    def path(self, name):
        return os.path.join(self.workdir, name)


class PoolCycle(Workload):
    name = "pool_cycle"
    net = fixed_net("pool_cycle", 101, 8, [
        (16, "leaky_relu"), (32, "leaky_relu"), (64, "relu"), (32, "identity"),
    ], 0.1)
    n, k, s = 50_000, 8, 10_000
    rhos = (-2.0, 0.0, 2.0)
    fd_records = 200
    # FD log-volumes agree with the exact ones to ~1e-8 on this net; the
    # bound leaves two orders of margin and still catches a wrong singular value.
    fd_tol = 1e-6

    def write_inputs(self):
        cpa.save_model(self.net, self.path("model.json"))
        write_json(self.path("config.json"), {
            "model_path": self.path("model.json"),
            "domain": {"kind": "gaussian", "mean": [0.0] * 8, "std": [1.0] * 8},
            "seed": sub_seed(self.seed, "pool"),
            "rho_grid": [0.0],
            "n": self.n,
            "k": self.k,
        })

    def ops(self):
        ops = [Op("pool_build", self._build, self._check_pool)]
        for i, rho in enumerate(self.rhos):
            ops.append(Op("sample", self._sampler(i, rho), self._check_draws))
        return ops

    def _build(self):
        out = self.path("pool.json")
        run_cli(["pool", "build", "--config", self.path("config.json"),
                 "--out", out])
        return out

    def _sampler(self, i, rho):
        def run():
            out = self.path(f"draws{i}.csv")
            run_cli(["sample", "--pool", self.path("pool.json"),
                     "--model", self.path("model.json"), "--rho", repr(rho),
                     "--s", str(self.s), "--seed", str(sub_seed(self.seed, f"draw{i}")),
                     "--out", out])
            return out
        return run

    def _check_pool(self, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.state.get("pool_digest") == digest:
            return   # same bytes as a pool already checked in this run
        self.state.pop("pool_rows", None)
        pool = polarity.SamplePool.load(path)
        zs, lvs = pool.latents, pool.log_volumes
        if pool.n != self.n or zs.shape != (self.n, 8) or pool.k != self.k:
            raise CheckFailed(f"pool has n={pool.n}, shape {zs.shape}, k={pool.k}")
        rng = np.random.default_rng(sub_seed(self.seed, "fd"))
        idx = rng.choice(self.n, size=2 * self.fd_records, replace=False)
        fd, interior = fd_log_volumes(self.net, zs[idx], self.k, pool.eps)
        checked = np.flatnonzero(interior)[: self.fd_records]
        if checked.size < self.fd_records:
            raise CheckFailed(f"only {checked.size} FD stencils inside one region")
        err = np.max(np.abs(fd[checked] - lvs[idx[checked]]))
        if not err <= self.fd_tol:
            raise CheckFailed(f"log-volume differs from FD Jacobian by {err:.3g}")
        self.state["pool_rows"] = {row.tobytes() for row in zs}
        self.state["pool_digest"] = digest

    def _check_draws(self, path):
        header, rows = read_csv(path)
        if header != [f"x{d}" for d in range(8)] or len(rows) != self.s:
            raise CheckFailed(f"{path}: header {header}, {len(rows)} rows")
        pool_rows = self.state.get("pool_rows")
        if pool_rows is None:
            raise CheckFailed("no checked pool to compare draws against")
        drawn = np.array(rows, dtype=np.float64)
        missing = sum(row.tobytes() not in pool_rows for row in drawn)
        if missing:
            raise CheckFailed(f"{missing} drawn rows are not pool latents")


class ParetoTall(Workload):
    name = "pareto_tall"
    net = fixed_net("pareto_tall", 202, 8, [
        (64, "relu"), (256, "leaky_relu"), (64, "identity"),
    ], 0.1)
    rhos = (-2.0, -1.0, 0.0, 1.0, 2.0)
    psis = (1.0, 0.7)
    # reference mixture: one component on the image of each of 64 fixed latents
    centres = cpa.forward(net, np.random.default_rng(303).standard_normal((64, 8)))
    ref_var = 0.05

    def write_inputs(self):
        cpa.save_model(self.net, self.path("model.json"))
        write_json(self.path("config.json"), {
            "model_path": self.path("model.json"),
            "domain": {"kind": "gaussian", "mean": [0.0] * 8, "std": [1.0] * 8},
            "seed": sub_seed(self.seed, "pareto"),
            "rho_grid": list(self.rhos),
            "psi_grid": list(self.psis),
            "n": 25_000,
            "k": 8,
            "s": 2000,
            "reference": {
                "kind": "gaussian_mixture",
                "params": {"weights": [1.0 / 64] * 64,
                           "means": self.centres.tolist(),
                           "covs": [self.ref_var] * 64},
                "size": 2000,
                "seed": sub_seed(self.seed, "reference"),
            },
        })

    def ops(self):
        return [Op("pareto", self._pareto, self._check)]

    def _pareto(self):
        out = self.path("pareto.csv")
        run_cli(["pareto", "--config", self.path("config.json"), "--out", out])
        return out

    def _check(self, path):
        header, rows = read_csv(path)
        if header[:5] != ["rho", "psi", "precision", "recall", "frechet"]:
            raise CheckFailed(f"pareto header {header}")
        if len(rows) != len(self.rhos) * len(self.psis):
            raise CheckFailed(f"pareto wrote {len(rows)} rows")
        vals = np.array([row[:5] for row in rows], dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise CheckFailed("pareto rows hold non-finite values")
        prec = {(rho, psi): p for rho, psi, p in vals[:, :3]}
        for psi in self.psis:
            if not prec[(-2.0, psi)] > prec[(2.0, psi)]:
                raise CheckFailed(
                    f"psi={psi}: precision at rho=-2 ({prec[(-2.0, psi)]}) "
                    f"not above rho=+2 ({prec[(2.0, psi)]})")


class DensityLaw(Workload):
    name = "density_law"
    # a complete 18-region atlas at resolution 64 on the box below
    net = fixed_net("density_law", 5, 2, [
        (4, "leaky_relu"), (4, "leaky_relu"), (2, "leaky_relu"),
    ], 0.3)
    domain = polarity.LatentDomain("uniform_box", lo=[-1.0, -1.0], hi=[1.0, 1.0])
    n, draws, queries = 200_000, 1_000_000, 2000
    rhos = (-2.0, -1.0, 0.0, 1.0, 2.0)
    tv_max = 0.02

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # histogram bins cover the image of the box with a wide margin
        grid = np.stack(np.meshgrid(*[np.linspace(-1, 1, 257)] * 2), -1).reshape(-1, 2)
        img = cpa.forward(self.net, grid)
        lo, hi = img.min(axis=0) - 0.5, img.max(axis=0) + 0.5
        self.edges = [np.linspace(lo[d], hi[d], 41) for d in range(2)]

    def write_inputs(self):
        cpa.save_model(self.net, self.path("model.json"))
        write_json(self.path("config.json"), {
            "model_path": self.path("model.json"),
            "domain": self.domain.to_dict(),
            "seed": sub_seed(self.seed, "atlas"),
            "rho_grid": [-1.0],
            "n": self.n,
            "k": 2,
            "resolution": 64,
        })
        zs = self.domain.sample(self.queries,
                                np.random.default_rng(sub_seed(self.seed, "queries")))
        self.query_points = cpa.forward(self.net, zs)
        with open(self.path("points.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1"])
            writer.writerows([[repr(float(v)) for v in row] for row in self.query_points])

    def ops(self):
        ops = [Op("density_eval", self._eval, self._check_eval),
               Op("law_pool", self._law_pool, self._check_law_pool)]
        for rho in self.rhos:
            ops.append(Op("law_rho", self._law_rho(rho), self._check_law))
        return ops

    def _eval(self):
        out = self.path("density.csv")
        run_cli(["density", "eval", "--config", self.path("config.json"),
                 "--rho", "-1", "--points", self.path("points.csv"), "--out", out])
        return out

    def _check_eval(self, path):
        header, rows = read_csv(path)
        if header != ["x0", "x1", "density"] or len(rows) != self.queries:
            raise CheckFailed(f"density eval: header {header}, {len(rows)} rows")
        vals = np.array(rows, dtype=np.float64)
        if not np.array_equal(vals[:, :2], self.query_points):
            raise CheckFailed("density eval rows are not the query points")
        dens = vals[:, 2]
        if not np.all(np.isfinite(dens) & (dens > 0)):
            raise CheckFailed(f"{np.sum(~(np.isfinite(dens) & (dens > 0)))} query "
                              f"points got a density that is not finite and > 0")

    # The density-law pass of acceptance 01, one pool then 1M draws per rho,
    # timed as one op per step: more, shorter samples of each step per run.
    def _law_pool(self):
        self.state.pop("law", None)
        net = cpa.load_model(self.path("model.json"))
        pool = polarity.build_pool(net, self.domain, self.n, 2,
                                   sub_seed(self.seed, "law_pool"))
        self.state["law"] = (net, pool)
        return pool

    def _check_law_pool(self, pool):
        if pool.n != self.n or pool.latents.shape != (self.n, 2):
            raise CheckFailed(f"law pool has n={pool.n}, shape {pool.latents.shape}")

    def _law_rho(self, rho):
        def run():
            net, pool = self.state["law"]
            draws = polarity.sample_batch(polarity.PolaritySampler(pool, rho),
                                          self.draws, sub_seed(self.seed, f"law{rho}"))
            return rho, draws, density.mc_density(net, draws, self.edges)
        return run

    def _atlas(self):
        """Region keys, prior masses and log pseudo-dets of the probed atlas."""
        if "atlas" not in self.state:
            atlas = density.enumerate_regions(self.net, self.domain, 64, seed=0)
            if not atlas.complete:
                raise CheckFailed("region atlas is not complete")
            reps = region_keys(self.net, np.array([r.rep_z for r in atlas.regions]))
            self.state["atlas"] = (
                reps,
                np.array([r.prior_mass for r in atlas.regions]),
                atlas.log_pseudo_dets(),
            )
        return self.state["atlas"]

    def _check_law(self, result):
        """Per-region draw frequencies against prior_mass * exp(rho * log pdet)."""
        reps, mass, logdet = self._atlas()
        rho, draws, hist = result
        if draws.shape != (self.draws, 2):
            raise CheckFailed(f"rho={rho}: draws shape {draws.shape}")
        if abs(hist.mass.sum() - 1.0) > 1e-9:
            raise CheckFailed(f"rho={rho}: histogram mass {hist.mass.sum()}")
        keys, counts = np.unique(region_keys(self.net, draws), return_counts=True)
        if not np.all(np.isin(keys, reps)):
            raise CheckFailed(f"rho={rho}: draws hit a region outside the atlas")
        freq = np.zeros(mass.size)
        freq[[int(np.flatnonzero(reps == key)[0]) for key in keys]] = counts
        predicted = mass * np.exp(rho * logdet)
        tv = 0.5 * np.abs(freq / freq.sum() - predicted / predicted.sum()).sum()
        if not tv <= self.tv_max:
            raise CheckFailed(f"rho={rho}: region-frequency TV {tv:.4f} > {self.tv_max}")


WORKLOADS = {w.name: w for w in (PoolCycle, ParetoTall, DensityLaw)}
