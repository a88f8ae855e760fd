import csv
import hashlib
import json

import numpy as np
import pytest

from polarity_sampling import (
    ConfigError, ExperimentConfig, child_seed, run_ablation, run_modes,
    run_pareto, run_ppl, run_shift, save_model, write_csv,
)
from polarity_sampling import zoo
from polarity_sampling.synth import SyntheticDataset


@pytest.fixture
def bimodal_config(tmp_path):
    path = tmp_path / "bimodal.json"
    save_model(zoo.bimodal_generator(), path)
    return ExperimentConfig(
        model_path=str(path),
        domain=zoo.bimodal_domain().to_dict(),
        seed=42,
        rho_grid=[-2.0, 0.0, 2.0],
        n=3000, k=1, s=1000,
        reference=zoo.bimodal_reference(1000, 5).to_dict(),
    )


@pytest.fixture
def linear_config(tmp_path):
    from polarity_sampling import CpaNetwork, Layer

    net = CpaNetwork("lin", (Layer(np.array([[1.5]]), np.zeros(1)),))
    path = tmp_path / "lin.json"
    save_model(net, path)
    return ExperimentConfig(
        model_path=str(path),
        domain={"kind": "gaussian", "mean": [0.0], "std": [1.0]},
        seed=3,
        rho_grid=[-1.0, 0.0, 1.0],
        n=1000, k=1, s=500,
        reference=SyntheticDataset(
            "gaussian_mixture",
            {"weights": [1.0], "means": [[0.0]], "covs": [2.25]}, 500, 9,
        ).to_dict(),
    )


def test_child_seed_distinct_and_stable():
    a = child_seed(1, "pool", 0)
    assert a == child_seed(1, "pool", 0)
    assert a != child_seed(1, "pool", 1)
    assert a != child_seed(1, "sample", 0)
    assert a != child_seed(2, "pool", 0)


def test_config_round_trip(tmp_path, bimodal_config):
    path = tmp_path / "cfg.json"
    bimodal_config.to_json(path)
    loaded = ExperimentConfig.from_json(str(path))
    assert loaded == bimodal_config


def test_config_validation(bimodal_config):
    with pytest.raises(ConfigError):
        ExperimentConfig(model_path=bimodal_config.model_path,
                         domain=bimodal_config.domain, seed=0, rho_grid=[])


def test_pareto_single_region_constant(linear_config):
    header, rows = run_pareto(linear_config)
    precs = {r[2] for r in rows}
    recs = {r[3] for r in rows}
    # single-region pool: uniform weights for every rho, same draw seed
    assert len(precs) == 1 and len(recs) == 1


def test_pareto_bimodal_ordering(bimodal_config):
    header, rows = run_pareto(bimodal_config)
    by_rho = {r[0]: r for r in rows}
    i_p, i_r = header.index("precision"), header.index("recall")
    assert by_rho[2.0][i_r] >= by_rho[-2.0][i_r] + 0.05
    assert by_rho[-2.0][i_p] >= by_rho[2.0][i_p] + 0.05


def test_pareto_rho_zero_matches_control(bimodal_config):
    header, rows = run_pareto(bimodal_config)
    control = ExperimentConfig(**{**vars(bimodal_config), "rho_grid": [0.0]})
    _, control_rows = run_pareto(control)
    row0 = next(r for r in rows if r[0] == 0.0)
    assert row0 == control_rows[0]


def test_pareto_reproducible(bimodal_config):
    assert run_pareto(bimodal_config) == run_pareto(bimodal_config)


def test_pareto_missing_reference(bimodal_config):
    bimodal_config.reference = None
    with pytest.raises(ConfigError):
        run_pareto(bimodal_config)


def test_ablation_stabilizes_on_two_region_net(tmp_path):
    path = tmp_path / "sg.json"
    save_model(zoo.shift_generator(), path)
    config = ExperimentConfig(
        model_path=str(path),
        domain=zoo.shift_domain().to_dict(),
        seed=11,
        rho_grid=[-1.0],
        s=8000, k_nn=3,
        reference=SyntheticDataset(
            "gaussian_mixture",
            {"weights": [1.0], "means": [[10.0]], "covs": [0.16]}, 8000, 2,
        ).to_dict(),
        n_grid=[100, 400, 1600], k_grid=[1],
    )
    header, rows = run_ablation(config)
    assert [r[:2] for r in rows] == [(100, 1), (400, 1), (1600, 1)]
    fds = [r[2] for r in rows]
    # two-region pools saturate immediately: successive differences < 1%
    for a, b in zip(fds, fds[1:]):
        assert abs(b - a) <= 0.01 * abs(a)


def test_ablation_trailing_constant_sigmas_share_weights(tmp_path):
    # second singular value is 0.3 in both regions, so k=1 and k=2 rank
    # candidates identically (softmax is shift invariant)
    from polarity_sampling import CpaNetwork, Layer, LatentDomain
    from polarity_sampling import PolaritySampler, build_pool

    net = CpaNetwork(
        "diag_leaky",
        (Layer(np.diag([1.0, 0.3]), np.zeros(2), "leaky_relu", alpha=0.5),),
    )
    dom = LatentDomain("uniform_box", lo=[-1.0, 0.0], hi=[1.0, 2.0])
    p1 = build_pool(net, dom, 2000, 1, seed=4)
    p2 = build_pool(net, dom, 2000, 2, seed=4)
    w1 = PolaritySampler(p1, 1.5).weights
    w2 = PolaritySampler(p2, 1.5).weights
    np.testing.assert_allclose(w1, w2, atol=1e-10)


def test_ablation_requires_grids(bimodal_config):
    with pytest.raises(ConfigError):
        run_ablation(bimodal_config)


def test_modes_extreme_rho_all_in_mode_region(bimodal_config):
    report = run_modes(bimodal_config, rho_extreme=-20.0)
    assert all(z[0] < 0 for z in report["latents"])  # slope-0.1 region
    assert "nn_distances" in report


def test_modes_rho_zero_keeps_pool_order(bimodal_config):
    from polarity_sampling import PolaritySampler, SamplePool, build_pool
    from polarity_sampling.harness import child_seed as cs

    report = run_modes(bimodal_config, rho_extreme=0.0)
    net = bimodal_config.load_net()
    pool = run_pool_for(bimodal_config, net)
    np.testing.assert_allclose(report["latents"], pool.latents[: len(report["latents"])])


def run_pool_for(config, net):
    from polarity_sampling import build_pool
    from polarity_sampling.harness import child_seed

    return build_pool(net, config.load_domain(), config.n, config.k,
                      child_seed(config.seed, "pool", 0))


def test_modes_nn_distance_smaller_than_baseline(bimodal_config):
    near = run_modes(bimodal_config, rho_extreme=-5.0)
    base = run_modes(bimodal_config, rho_extreme=0.0)
    assert near["nn_summary"]["mean"] < base["nn_summary"]["mean"]


@pytest.fixture
def shift_config(tmp_path):
    path = tmp_path / "shift.json"
    save_model(zoo.shift_generator(), path)
    biased, uniform = zoo.shift_references(3000, 21)
    return ExperimentConfig(
        model_path=str(path),
        domain=zoo.shift_domain().to_dict(),
        seed=7,
        rho_grid=[-2.0, -1.0, 0.0, 1.0, 2.0],
        n=4000, k=1, s=3000,
        reference_biased=biased.to_dict(),
        reference_uniform=uniform.to_dict(),
    )


def test_shift_biased_argmin_at_zero(shift_config):
    header, rows = run_shift(shift_config)
    rhos = [r[0] for r in rows]
    biased = [r[1] for r in rows]
    assert abs(rhos[int(np.argmin(biased))]) <= 1.0  # rho = 0 +- one grid step


def test_shift_uniform_argmin_away_from_zero(shift_config):
    header, rows = run_shift(shift_config)
    uniform = [r[2] for r in rows]
    best = int(np.argmin(uniform))
    assert rows[best][0] != 0.0
    at_zero = next(r[2] for r in rows if r[0] == 0.0)
    assert uniform[best] <= 0.8 * at_zero


def test_shift_identical_references(shift_config):
    shift_config.reference_uniform = shift_config.reference_biased
    header, rows = run_shift(shift_config)
    for r in rows:
        assert abs(r[1] - r[2]) <= 1e-10


def test_ppl_two_piece_gap(tmp_path):
    path = tmp_path / "tp.json"
    save_model(zoo.two_piece_net(), path)
    config = ExperimentConfig(
        model_path=str(path), domain=zoo.two_piece_domain().to_dict(), seed=1,
        rho_grid=[-20.0, 20.0], n=4000, k=1, n_pairs=4000,
    )
    header, rows = run_ppl(config)
    means = {r[0]: r[1] for r in rows}
    assert means[-20.0] * 10 <= means[20.0]


def test_ppl_linear_constant(linear_config):
    header, rows = run_ppl(linear_config)
    means = [r[1] for r in rows]
    # single region: identical distributions, only Monte-Carlo error remains
    assert np.ptp(means) <= 0.2 * np.mean(means)


def test_write_csv_byte_stable(tmp_path):
    rows = [(1.0, 2.5e-7, 3), (0.1, float(np.pi), 4)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x", "y", "n"], rows)
    write_csv(p2, ["x", "y", "n"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert "3.141592653589793" in p1.read_text()


def test_write_csv_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(-0.0, 5e-324, 1e300, 3), (0.1, -2.5e-7, float("inf"), 2**63),
            (float("nan"), -1e-310, 1e16, -7)]
    rows += [tuple(r) + (i,) for i, r in enumerate(rng.standard_normal((50, 3)).tolist())]
    header = ["a", "b", "c", "seed"]
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    out = tmp_path / "out.csv"
    write_csv(out, header, rows)
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, reference)]
    assert digest[0] == digest[1]
