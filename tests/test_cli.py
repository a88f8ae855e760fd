import base64
import hashlib
import json

import numpy as np
import pytest

from polarity_sampling import ExperimentConfig, SamplePool, save_model, write_csv, zoo
from polarity_sampling.cli import main
from polarity_sampling.errors import SamplingTimeout, ValidationError
from polarity_sampling.synth import SyntheticDataset


@pytest.fixture
def workdir(tmp_path):
    model = tmp_path / "bimodal.json"
    save_model(zoo.bimodal_generator(), model)
    config = ExperimentConfig(
        model_path=str(model),
        domain=zoo.bimodal_domain().to_dict(),
        seed=7,
        rho_grid=[-1.0, 0.0, 1.0],
        n=2000, k=1, s=400,
        reference=zoo.bimodal_reference(400, 5).to_dict(),
    )
    cfg = tmp_path / "cfg.json"
    config.to_json(cfg)
    return tmp_path


def test_pool_build_and_sample(workdir, capsys):
    pool = workdir / "pool.json"
    rc = main(["pool", "build", "--config", str(workdir / "cfg.json"),
               "--out", str(pool)])
    assert rc == 0
    assert "distinct regions" in capsys.readouterr().out

    out = workdir / "draws.csv"
    rc = main(["sample", "--pool", str(pool),
               "--model", str(workdir / "bimodal.json"),
               "--rho", "-2.0", "--s", "200", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    zs = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert zs.shape == (200, 1)


def test_sample_rerun_is_byte_identical(workdir):
    pool = workdir / "pool.json"
    main(["pool", "build", "--config", str(workdir / "cfg.json"),
          "--out", str(pool)])
    out1, out2 = workdir / "a.csv", workdir / "b.csv"
    args = ["sample", "--pool", str(pool),
            "--model", str(workdir / "bimodal.json"),
            "--rho", "1.5", "--s", "300", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# Pinned outputs: a refactor that moves the prior, pool or draw RNG streams,
# or the region count, changes these bytes.  (draws at rho=-2, draws at rho=1.5)
GOLDEN = {
    "bimodal": (
        zoo.bimodal_generator, zoo.bimodal_domain, 7, 2000, 1,
        "pool: 2000 records, 2 distinct regions -> {pool}\n",
        ("999ee832d328cb587204e49210dc742859f0723b604a6d594ff48c091d3c2d22",
         "2e3dfdcc007fd8fdd26d4ae51b27aaa027189d69b6bf5a5b9aacf6b9cd625241"),
    ),
    # n > 8192 spans two pool-build chunks
    "ramp_2d": (
        zoo.ramp_2d_net, zoo.ramp_2d_domain, 3, 10000, 2,
        "pool: 10000 records, 2 distinct regions -> {pool}\n",
        ("69e7614fa66d04caf466fb9b5db0b0e6616baf58f74a9689fb276980085dfc9f",
         "df427b4977b4c0c23e55aff82545464c9cc4f60b831129f595ddf078e94a4190"),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pool_and_sample_golden_outputs(name, tmp_path, capsys):
    make_net, make_domain, seed, n, k, pool_line, digests = GOLDEN[name]
    model, cfg, pool = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "p.json"
    save_model(make_net(), model)
    ExperimentConfig(model_path=str(model), domain=make_domain().to_dict(),
                     seed=seed, rho_grid=[0.0], n=n, k=k).to_json(cfg)
    assert main(["pool", "build", "--config", str(cfg), "--out", str(pool)]) == 0
    assert capsys.readouterr().out == pool_line.format(pool=pool)
    for rho, digest in zip(("-2.0", "1.5"), digests):
        out = tmp_path / f"draws{rho}.csv"
        assert main(["sample", "--pool", str(pool), "--model", str(model),
                     "--rho", rho, "--s", "300", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_refuses_mismatched_model(workdir, tmp_path, capsys):
    pool = workdir / "pool.json"
    main(["pool", "build", "--config", str(workdir / "cfg.json"),
          "--out", str(pool)])
    other = tmp_path / "other.json"
    save_model(zoo.two_piece_net(), other)
    rc = main(["sample", "--pool", str(pool), "--model", str(other),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_density_eval(workdir, tmp_path):
    model = tmp_path / "tp.json"
    save_model(zoo.two_piece_net(), model)
    config = ExperimentConfig(
        model_path=str(model),
        domain=zoo.two_piece_domain().to_dict(),
        seed=1, rho_grid=[0.0], resolution=64,
    )
    cfg = tmp_path / "tp_cfg.json"
    config.to_json(cfg)
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, np.array([[-1.0], [0.25]]), delimiter=",")
    out = tmp_path / "dens.csv"
    rc = main(["density", "eval", "--config", str(cfg), "--rho", "0.0",
               "--points", str(pts), "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    # U[-1,1] pushed through slopes 2 (z<0) and 0.5 (z>=0): densities 1/4, 1
    np.testing.assert_allclose(rows[:, 1], [0.25, 1.0], rtol=1e-9)


def test_pareto_writes_csv_and_reruns_identically(workdir):
    out1, out2 = workdir / "p1.csv", workdir / "p2.csv"
    base = ["pareto", "--config", str(workdir / "cfg.json")]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "rho,psi,precision,recall,frechet,seed"


def test_shift_and_ppl_subcommands(tmp_path):
    model = tmp_path / "shift.json"
    save_model(zoo.shift_generator(), model)
    biased, uniform = zoo.shift_references(400, 3)
    config = ExperimentConfig(
        model_path=str(model),
        domain=zoo.shift_domain().to_dict(),
        seed=2, rho_grid=[0.0, 1.0], n=2000, k=1, s=400, n_pairs=200,
        reference_biased=biased.to_dict(),
        reference_uniform=uniform.to_dict(),
    )
    cfg = tmp_path / "cfg.json"
    config.to_json(cfg)
    shift_out = tmp_path / "shift.csv"
    assert main(["shift", "--config", str(cfg), "--out", str(shift_out)]) == 0
    assert len(shift_out.read_text().splitlines()) == 3
    ppl_out = tmp_path / "ppl.csv"
    assert main(["ppl", "--config", str(cfg), "--out", str(ppl_out)]) == 0
    assert ppl_out.read_text().startswith("rho,mean_ppl,q10,q50,q90,seed")


def test_modes_subcommand(workdir):
    out = workdir / "modes.json"
    rc = main(["modes", "--config", str(workdir / "cfg.json"),
               "--rho", "-20.0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["latents"]) <= 16
    assert report["rho"] == -20.0


def test_metrics_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["x0"], [(float(v),) for v in rng.standard_normal(200)])
    write_csv(b, ["x0"], [(float(v),) for v in rng.standard_normal(200)])
    rc = main(["metrics", "--generated", str(a), "--reference", str(b)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"frechet", "precision", "recall"}


def test_missing_config_exits_2(capsys):
    assert main(["pareto", "--out", "x.csv"]) == 2
    assert "needs --config" in capsys.readouterr().err


def test_malformed_model_exits_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "input_dim": 1, "layers": "nope"}\n')
    cfg_data = json.loads((workdir / "cfg.json").read_text())
    cfg_data["model_path"] = str(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    rc = main(["pool", "build", "--config", str(cfg),
               "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(workdir, capsys):
    rc = main(["sample", "--pool", str(workdir / "nope.json"),
               "--model", str(workdir / "bimodal.json"),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    assert rc == 2
    capsys.readouterr()


def _b64(array):
    return base64.b64encode(np.asarray(array).tobytes()).decode("ascii")


def _set(key, value):
    """Pool document with one field replaced; ``value`` may be a function of it."""
    return lambda doc: {**doc, key: value(doc) if callable(value) else value}


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


V1_POOL = {"version": 1, "net_fingerprint": "x", "n": 1, "k": 1, "eps": 1e-12,
           "space": "output", "seed": 7,
           "domain": {"kind": "gaussian", "mean": [0.0], "std": [1.0]},
           "records": [{"z": [0.1], "code_hash": "ab", "log_volume": 0.3}]}

MALFORMED_POOLS = {
    "not_an_object": lambda doc: [doc],
    "v1_file": lambda doc: V1_POOL,
    "missing_k": _drop("k"),
    "missing_column": _drop("codes"),
    "n_is_string": _set("n", "2000"),
    "k_is_float": _set("k", 1.5),
    "seed_is_bool": _set("seed", True),
    "column_is_list": _set("z", [0.5]),
    "domain_unknown_kind": _set("domain", {"kind": "ring"}),
    "domain_missing_std": _set("domain", {"kind": "gaussian", "mean": [0.0]}),
    "bad_base64": _set("z", "not base64!"),
    "non_ascii_base64": _set("log_volumes", "\u00e9\u00e9\u00e9\u00e9"),
    "n_disagrees": _set("n", lambda doc: doc["n"] + 1),
    "negative_n": _set("n", -1),
    "latent_dim_disagrees": _set(
        "domain", {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1.0, 1.0]}),
    "code_width_disagrees": _set("code_bytes", lambda doc: doc["code_bytes"] + 1),
    "truncated_column": _set("log_volumes", lambda doc: doc["log_volumes"][:-8]),
    "nan_log_volume": _set("log_volumes", lambda doc: _b64(
        [np.nan] + [0.0] * (doc["n"] - 1))),
    "inf_log_volume": _set("log_volumes", lambda doc: _b64(
        [0.0] * (doc["n"] - 1) + [-np.inf])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POOLS))
def test_malformed_pool_exits_2(case, workdir, capsys):
    pool = workdir / "pool.json"
    main(["pool", "build", "--config", str(workdir / "cfg.json"), "--out", str(pool)])
    pool.write_text(json.dumps(MALFORMED_POOLS[case](json.loads(pool.read_text()))))
    with pytest.raises(ValidationError):
        SamplePool.load(pool)
    capsys.readouterr()
    rc = main(["sample", "--pool", str(pool),
               "--model", str(workdir / "bimodal.json"),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case == "v1_file":
        assert "rebuild it with `polsamp pool build`" in err


def test_sampling_timeout_exits_3(workdir, monkeypatch, capsys):
    import polarity_sampling.harness as harness

    def boom(config):
        raise SamplingTimeout(10_000_000, 0.0)

    monkeypatch.setattr(harness, "run_pareto", boom)
    rc = main(["pareto", "--config", str(workdir / "cfg.json"),
               "--out", str(workdir / "x.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err
