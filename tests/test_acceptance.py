"""End-to-end acceptance checks, one printed pass/fail line per criterion.

These run the whole stack at full scale (million-draw histograms, five-seed
sweeps) on analytically tractable generators, so they are slower than the
module tests.
"""

import numpy as np
import pytest
from scipy import stats

from polarity_sampling import (
    ExperimentConfig, OnlineSampler, PolaritySampler, SampleSet,
    affine_maps, analytic_density, build_pool, enumerate_regions, forward,
    frechet_distance, mc_density, path_length, precision_recall,
    region_codes, run_pareto, run_shift, sample_batch, save_model,
    total_variation, zoo,
)
from polarity_sampling.spectral import batch_top_k_singular_values
from polarity_sampling.cli import main


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _cell_mass(atlas, rho, edges):
    """Per-cell analytic mass; exact when edges align with region breakpoints."""
    centers = [(e[:-1] + e[1:]) / 2 for e in edges]
    widths = [np.diff(e) for e in edges]
    mesh = np.meshgrid(*centers, indexing="ij")
    vol = np.ones(mesh[0].shape)
    for d, w in enumerate(widths):
        shape = [1] * len(edges)
        shape[d] = -1
        vol = vol * w.reshape(shape)
    xs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return analytic_density(atlas, xs, rho).reshape(vol.shape) * vol


def test_criterion_01_density_law(capsys):
    cases = [
        (zoo.two_piece_net(), zoo.two_piece_domain(),
         [np.linspace(-2.0, 0.5, 51)]),
        (zoo.ramp_2d_net(), zoo.ramp_2d_domain(),
         [np.linspace(-0.5, 2.0, 26), np.linspace(0.0, 2.0, 3)]),
    ]
    worst = 0.0
    for i, (net, domain, edges) in enumerate(cases):
        atlas = enumerate_regions(net, domain, 64)
        pool = build_pool(net, domain, 200_000, net.input_dim, seed=10 + i)
        for rho in (-2.0, -1.0, 0.0, 1.0, 2.0):
            draws = sample_batch(PolaritySampler(pool, rho), 1_000_000,
                                 seed=20 + i)
            hist = mc_density(net, draws, edges)
            expected = _cell_mass(atlas, rho, edges)
            worst = max(worst, total_variation(hist.mass, expected))
    _report(capsys, "01 density-law TV <= 0.02 over both nets, rho in [-2, 2]",
            worst <= 0.02, f"worst TV {worst:.4f}")


def test_criterion_02_rho_zero_matches_prior(capsys):
    net = zoo.two_piece_net()
    domain = zoo.two_piece_domain()
    pool = build_pool(net, domain, 200_000, 1, seed=31)
    drawn = forward(net, sample_batch(PolaritySampler(pool, 0.0), 100_000,
                                      seed=32))
    direct = forward(net, domain.sample(100_000, np.random.default_rng(33)))
    pvalue = stats.ks_2samp(drawn[:, 0], direct[:, 0]).pvalue
    _report(capsys, "02 rho=0 equals prior pushforward (KS, alpha=0.01)",
            pvalue > 0.01, f"p={pvalue:.3f}")


def test_criterion_03_mode_and_antimode_limits(capsys):
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 50_000, 1, seed=41)
    # slope is 0.5 for z >= 0 (mode region) and 2 for z < 0 (anti-mode)
    zs = sample_batch(PolaritySampler(pool, -20.0), 100_000, seed=42)
    mode_frac = np.mean(zs[:, 0] >= 0)
    zs = sample_batch(PolaritySampler(pool, 20.0), 100_000, seed=43)
    anti_frac = np.mean(zs[:, 0] < 0)
    ok = mode_frac >= 0.999 and anti_frac >= 0.999
    _report(capsys, "03 rho=-20/+20 concentrates >= 99.9% in mode/anti-mode",
            ok, f"mode {mode_frac:.4f}, anti-mode {anti_frac:.4f}")


def test_criterion_04_batch_online_agreement(capsys):
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 50_000, 1, seed=51)
    worst = 0.0
    for rho in (-2.0, 0.0, 2.0):
        batch = sample_batch(PolaritySampler(pool, rho), 100_000, seed=52)
        online = OnlineSampler(pool, net, rho, seed=53).draw(100_000)
        gap = abs(np.mean(batch[:, 0] < 0) - np.mean(online[:, 0] < 0))
        worst = max(worst, gap)
    _report(capsys, "04 batch vs online region frequencies within 2%",
            worst <= 0.02, f"worst gap {worst:.4f}")


def _fd_jacobian(net, z, scale=1e-6):
    J = np.zeros((net.output_dim, net.input_dim))
    for d in range(net.input_dim):
        h = scale * (1.0 + abs(z[d]))
        zp, zm = z.copy(), z.copy()
        zp[d] += h
        zm[d] -= h
        J[:, d] = (forward(net, zp) - forward(net, zm)) / (2 * h)
    return J


def _stencil_interior(net, z, scale=1e-6):
    """True when the finite-difference stencil stays inside one region."""
    pts = [z]
    for d in range(net.input_dim):
        h = scale * (1.0 + abs(z[d]))
        for sgn in (1.0, -1.0):
            p = z.copy()
            p[d] += sgn * h
            pts.append(p)
    codes = region_codes(net, np.array(pts))
    return all(np.array_equal(codes[0], c) for c in codes[1:])


def test_criterion_05_jacobian_finite_differences(capsys):
    worst = 0.0
    for i in range(10):
        net = zoo.random_net(300 + i)
        rng = np.random.default_rng(i)
        checked = 0
        while checked < 100:
            z = rng.uniform(-2, 2, size=net.input_dim)
            if not _stencil_interior(net, z):
                continue  # the difference quotient is meaningless across a crease
            J = _fd_jacobian(net, z)
            A = affine_maps(net, z)[0][0]
            worst = max(worst,
                        np.linalg.norm(A - J) / max(np.linalg.norm(J), 1.0))
            checked += 1
    _report(capsys, "05 affine map vs finite differences, rel err <= 1e-6",
            worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_06_spectral_identities(capsys):
    rng = np.random.default_rng(61)
    worst_det = 0.0
    for _ in range(100):
        D = int(rng.integers(2, 9))
        K = int(rng.integers(1, D + 1))
        A = rng.standard_normal((D, K))
        sigma = batch_top_k_singular_values(A[None], K)[0]
        det = np.linalg.det(A.T @ A)
        worst_det = max(worst_det,
                        abs(np.exp(2 * np.log(sigma).sum()) - det) / abs(det))
    _report(capsys, "06 spectral identities (det 1e-8)",
            worst_det <= 1e-8, f"det {worst_det:.2e}")


def test_criterion_07_frechet_closed_forms(capsys):
    rng = np.random.default_rng(71)
    u = rng.standard_normal((500, 1))
    u = (u - u.mean()) / u.std(ddof=1)
    base = SampleSet(u)
    same = frechet_distance(base, SampleSet(u.copy()))
    shift = frechet_distance(base, SampleSet(u + 1.0))
    scale = frechet_distance(base, SampleSet(2.0 * u))
    ok = same <= 1e-10 and abs(shift - 1.0) <= 1e-10 and abs(scale - 1.0) <= 1e-8
    _report(capsys, "07 Frechet closed forms (0, mean shift 1, std 1 vs 2)",
            ok, f"same {same:.1e}, shift err {abs(shift - 1):.1e}, "
                f"scale err {abs(scale - 1):.1e}")


def test_criterion_08_precision_recall_sanity(capsys):
    rng = np.random.default_rng(81)
    real = SampleSet(rng.uniform(0, 1, size=(2000, 2)))
    p_same, r_same = precision_recall(real, SampleSet(real.points.copy()))
    far = SampleSet(real.points + 100.0)
    p_far, r_far = precision_recall(real, far)
    nested = SampleSet(rng.uniform(0, 0.5, size=(2000, 2)))
    p_nest, r_nest = precision_recall(real, nested, k_nn=3)
    ok = (p_same, r_same) == (1.0, 1.0) and (p_far, r_far) == (0.0, 0.0) \
        and p_nest >= 0.95 and abs(r_nest - 0.25) <= 0.1
    _report(capsys, "08 precision/recall sanity (identical, disjoint, nested)",
            ok, f"nested precision {p_nest:.3f}, recall {r_nest:.3f}")


def _pareto_config(tmp_path, seed):
    model = tmp_path / f"bimodal_{seed}.json"
    save_model(zoo.bimodal_generator(), model)
    return ExperimentConfig(
        model_path=str(model),
        domain=zoo.bimodal_domain().to_dict(),
        seed=seed,
        rho_grid=[-2.0, 2.0],
        n=20_000, k=1, s=2000,
        reference=zoo.bimodal_reference(2000, seed).to_dict(),
    )


def test_criterion_09_pareto_ordering(capsys, tmp_path):
    precs = {-2.0: [], 2.0: []}
    recs = {-2.0: [], 2.0: []}
    for seed in range(5):
        _, rows = run_pareto(_pareto_config(tmp_path, seed))
        for rho, _, prec, rec, _, _ in rows:
            precs[rho].append(prec)
            recs[rho].append(rec)
    prec_margin = np.mean(precs[-2.0]) - np.mean(precs[2.0])
    rec_margin = np.mean(recs[2.0]) - np.mean(recs[-2.0])
    ok = prec_margin >= 0.05 and rec_margin >= 0.05
    _report(capsys, "09 pareto ordering margins >= 0.05 over 5 seeds",
            ok, f"precision margin {prec_margin:.3f}, "
                f"recall margin {rec_margin:.3f}")


def test_criterion_10_path_length_near_modes(capsys):
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 50_000, 1, seed=101)
    low = path_length(net, PolaritySampler(pool, -20.0), 1e-4, 10_000,
                      seed=102).mean()
    high = path_length(net, PolaritySampler(pool, 20.0), 1e-4, 10_000,
                       seed=102).mean()
    ratio = high / low
    _report(capsys, "10 mean path length >= 10x smaller at rho=-20 vs +20",
            ratio >= 10.0, f"ratio {ratio:.1f}")


def test_criterion_11_shift_adaptation(capsys, tmp_path):
    model = tmp_path / "shift.json"
    save_model(zoo.shift_generator(), model)
    rho_grid = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
    uniform_fd = np.zeros(len(rho_grid))
    for seed in range(5):
        biased, uniform = zoo.shift_references(2000, seed)
        config = ExperimentConfig(
            model_path=str(model),
            domain=zoo.shift_domain().to_dict(),
            seed=seed,
            rho_grid=rho_grid,
            n=20_000, k=1, s=2000,
            reference_biased=biased.to_dict(),
            reference_uniform=uniform.to_dict(),
        )
        _, rows = run_shift(config)
        uniform_fd += [row[2] for row in rows]
    uniform_fd /= 5
    best = int(np.argmin(uniform_fd))
    at_zero = uniform_fd[rho_grid.index(0.0)]
    reduction = (at_zero - uniform_fd[best]) / at_zero
    ok = rho_grid[best] != 0.0 and reduction >= 0.2
    _report(capsys, "11 best rho != 0 cuts Frechet-to-uniform by >= 20%",
            ok, f"best rho {rho_grid[best]}, reduction {reduction:.0%}")


def test_criterion_12_cli_byte_identical_reruns(capsys, tmp_path):
    model = tmp_path / "bimodal.json"
    save_model(zoo.bimodal_generator(), model)
    config = ExperimentConfig(
        model_path=str(model),
        domain=zoo.bimodal_domain().to_dict(),
        seed=7,
        rho_grid=[-1.0, 1.0],
        n=2000, k=1, s=400,
        reference=zoo.bimodal_reference(400, 5).to_dict(),
    )
    cfg = tmp_path / "cfg.json"
    config.to_json(cfg)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["pareto", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    pool = tmp_path / "pool.json"
    main(["pool", "build", "--config", str(cfg), "--out", str(pool)])
    for name in ("c.csv", "d.csv"):
        out = tmp_path / name
        assert main(["sample", "--pool", str(pool), "--model", str(model),
                     "--rho", "1.0", "--s", "200", "--seed", "9",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and outs[2] == outs[3]
    _report(capsys, "12 CLI reruns are byte-identical", ok,
            f"pareto {len(outs[0])} bytes, sample {len(outs[2])} bytes")
