import base64
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarity_sampling
from polarity_sampling import (
    CpaNetwork, ExperimentConfig, LatentDomain, Layer, SamplePool, compose, draw_latents,
    fingerprint, region_log_volumes, save_model, write_csv, zoo,
)
from polarity_sampling.cli import _write_points, main
from polarity_sampling.errors import ValidationError
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
    # the truncated prior: these digests were drawn with scipy.special's ndtr
    # and ndtri, so they pin the package's ports to scipy's bits
    "bimodal_psi0.7": (
        zoo.bimodal_generator, lambda: zoo.bimodal_domain().truncate(0.7), 7, 2000, 1,
        "pool: 2000 records, 2 distinct regions -> {pool}\n",
        ("be8daf1dd8a7e4cb72984d69aed3a8d6997cf85e929ed94d30689f3b4de755b1",
         "c5de1e5dcd1e9ec909cf0bc27518b5916fbf27ec6b15e66ab8606e5afeb6b60e"),
    ),
    # a larger pool: its bytes pin 10,000 prior draws taken in one call
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


# Pinned `density eval` outputs on 2-region atlases (density at rho=-2,
# density at rho=0.5).  A two-term region sum commutes, so neither the
# region order nor batching may move these bytes.
DENSITY_GOLDEN = {
    "two_piece": (
        zoo.two_piece_net, zoo.two_piece_domain, [np.linspace(-2.5, 1.0, 36)],
        ("8df218d8b79b819337ed1014fe8552a935dbeb10376ac48e36f3e96138470624",
         "d5c8c888859060580773e8cf4611c9d99a1fa872617a2c52e5af16cbebfc2ae6"),
    ),
    "abs": (
        zoo.abs_net, zoo.two_piece_domain, [np.linspace(-0.25, 1.25, 31)],
        ("3e67f29b1cb7f8f21cd697af98a017829df09e0427d6d366f2a03eb28c636d16",
         "3e67f29b1cb7f8f21cd697af98a017829df09e0427d6d366f2a03eb28c636d16"),
    ),
    "ramp_2d": (
        zoo.ramp_2d_net, zoo.ramp_2d_domain,
        [np.linspace(-0.75, 2.25, 13), np.linspace(-0.25, 2.25, 11)],
        ("2e61b27be6f660b20887b03346c84efc8571065e98ebae16fa972e1e937952d7",
         "acee2bbeb585e17c68125378ebf0a94e44cd57759a49cb3333437ee85cbcc2a4"),
    ),
}


@pytest.mark.parametrize("name", sorted(DENSITY_GOLDEN))
def test_density_eval_golden_outputs(name, tmp_path):
    make_net, make_domain, axes, digests = DENSITY_GOLDEN[name]
    model, cfg, pts = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "pts.csv"
    save_model(make_net(), model)
    ExperimentConfig(model_path=str(model), domain=make_domain().to_dict(),
                     seed=4, rho_grid=[0.0], resolution=64).to_json(cfg)
    mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    write_csv(pts, [f"x{d}" for d in range(len(axes))],
              [tuple(float(v) for v in row) for row in mesh])
    for rho, digest in zip(("-2.0", "0.5"), digests):
        out = tmp_path / f"density{rho}.csv"
        assert main(["density", "eval", "--config", str(cfg), "--rho", rho,
                     "--points", str(pts), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Pinned report outputs at psi = 1 on the fixture configs: a change to a
# report's JSON layout, to a reader, or to a pool or draw RNG stream moves
# these bytes.
REPORT_GOLDEN = {
    "ablate": "a87166cc516ad4dda220c00dd0d23070bec061aae0b1fdebd5efaed25e6df262",
    "metrics_out": "b80d5a6136139ff65ff2d88341ea9769303d80a94ff92b52f5fbd72844650184",
    "metrics_stdout": "b80d5a6136139ff65ff2d88341ea9769303d80a94ff92b52f5fbd72844650184",
    "metrics_ties": "f7fc1f204440c5a25fc81c535ae31814565cc8e0c6eb783860e11c85bef3bb34",
    "modes": "0da9bd74ded5f3883813751cadfc8a06758d2c2ad5f0e105dfbe2f2ba2b627e8",
    "pareto": "941143bc1359538e6203059e45c45f694f47452aec4a42f3a2343ee1b2e86e55",
    "ppl": "6008aa11cd3cae3d5862f5899747b9158815dec7434275ebf50290771b02ce84",
    "shift": "e15d53325287c3d3b2a8a6a0cdeaf7e8766d0427efc77745206fcf9dbf4f3480",
}


def _report_bytes(name, workdir, capsys):
    """Run the report command ``name`` on the fixture configs; its output bytes."""
    cfg, out = workdir / "report_cfg.json", workdir / "report.out"
    if name in ("shift", "ppl"):
        save_model(zoo.shift_generator(), workdir / "shift.json")
        biased, uniform = zoo.shift_references(400, 3)
        ExperimentConfig(
            model_path=str(workdir / "shift.json"),
            domain=zoo.shift_domain().to_dict(), seed=2, rho_grid=[0.0, 1.0],
            n=2000, k=1, s=400, n_pairs=200, reference_biased=biased.to_dict(),
            reference_uniform=uniform.to_dict(),
        ).to_json(cfg)
    else:
        doc = json.loads((workdir / "cfg.json").read_text())
        if name == "ablate":
            doc.update(n_grid=[500, 2000], k_grid=[1])
        cfg.write_text(json.dumps(doc))
    if name.startswith("metrics"):
        rng = np.random.default_rng(0)
        gen, ref = workdir / "gen.csv", workdir / "ref.csv"
        if name == "metrics_ties":
            # integer grids: repeated rows and exact distance ties
            gen_pts, ref_pts = rng.integers(0, 4, (150, 2)), rng.integers(2, 6, (120, 2))
        else:
            gen_pts, ref_pts = rng.standard_normal((150, 2)), 1.5 + rng.standard_normal((120, 2))
        write_csv(gen, ["x0", "x1"], [tuple(map(float, r)) for r in gen_pts])
        write_csv(ref, ["x0", "x1"], [tuple(map(float, r)) for r in ref_pts])
        argv = ["metrics", "--generated", str(gen), "--reference", str(ref)]
        if name == "metrics_ties":
            argv += ["--k-nn", "3", "--j", "4"]
        if name != "metrics_stdout":
            argv += ["--out", str(out)]
    else:
        argv = [name, "--config", str(cfg), "--out", str(out)]
        if name == "modes":
            argv += ["--rho", "-2.0"]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    return stdout.encode() if name == "metrics_stdout" else out.read_bytes()


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_golden_outputs(name, workdir, capsys):
    digest = hashlib.sha256(_report_bytes(name, workdir, capsys)).hexdigest()
    assert digest == REPORT_GOLDEN[name]


# `pareto` over psi in {1, 0.7} on the fixture config: pins the truncated
# prior's draws as they reach a report.
PARETO_PSI_GOLDEN = "031f0fe8bb95b6be007e30d02b9d57b3ceeb31944e765f0c71dba2d5c64f6004"


def test_pareto_truncated_golden_output(workdir, capsys):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc.update(psi_grid=[1.0, 0.7])
    (workdir / "cfg.json").write_text(json.dumps(doc))
    digest = hashlib.sha256(_report_bytes("pareto", workdir, capsys)).hexdigest()
    assert digest == PARETO_PSI_GOLDEN


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


def _shift_config(tmp_path, **fields):
    model, cfg = tmp_path / "shift.json", tmp_path / "cfg.json"
    save_model(zoo.shift_generator(), model)
    biased, uniform = zoo.shift_references(400, 3)
    ExperimentConfig(**{
        "model_path": str(model), "domain": zoo.shift_domain().to_dict(), "seed": 2,
        "rho_grid": [0.0, 1.0], "n": 2000, "k": 1, "s": 400, "n_pairs": 200,
        "reference_biased": biased.to_dict(), "reference_uniform": uniform.to_dict(),
        **fields}).to_json(cfg)
    return cfg


def test_shift_and_ppl_subcommands(tmp_path):
    cfg = _shift_config(tmp_path)
    shift_out = tmp_path / "shift.csv"
    assert main(["shift", "--config", str(cfg), "--out", str(shift_out)]) == 0
    assert len(shift_out.read_text().splitlines()) == 3
    ppl_out = tmp_path / "ppl.csv"
    assert main(["ppl", "--config", str(cfg), "--out", str(ppl_out)]) == 0
    assert ppl_out.read_text().startswith("rho,mean_ppl,q10,q50,q90,seed")


# 1e200 squares past the float range, 1e-200 squares to zero
@pytest.mark.parametrize("epsilon", [1e200, 1e-200])
def test_ppl_at_extreme_epsilon_exits_3(epsilon, tmp_path, capsys):
    cfg, out = _shift_config(tmp_path, epsilon=epsilon), tmp_path / "ppl.csv"
    rc = main(["ppl", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("numerical error: ") and "epsilon" in err
    assert not out.exists()


def test_shift_with_one_draw_exits_2(tmp_path, capsys):
    cfg = _shift_config(tmp_path, s=1)
    rc = main(["shift", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "at least 2 points" in err


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


@pytest.mark.parametrize("generated, reference", [
    ("1e200,0\n-1e200,0\n3e200,1\n", "0,0\n1,1\n2,2\n5e200,0\n"),  # overflows
    ("1e20,0\n1e20,0\n1e20,0\n", "0,0\n1,1\n2,2\n"),   # no 20 bins fit at 1e20
], ids=["overflow", "histogram_range"])
def test_metrics_on_extreme_points_exits_3(generated, reference, tmp_path, capsys):
    gen, ref = tmp_path / "gen.csv", tmp_path / "ref.csv"
    gen.write_text(generated)
    ref.write_text(reference)
    rc = main(["metrics", "--generated", str(gen), "--reference", str(ref),
               "--k-nn", "1", "--j", "1"])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("numerical error: ") and "Traceback" not in err


def test_missing_config_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pareto", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


# argv each command accepts; with one more flag that the command does not read,
# argparse exits before any file is read
VALID_ARGV = {
    "pool build": "pool build --config c.json --out p.json",
    "sample": "sample --pool p.json --model m.json --rho 0 --s 1 --out x.csv",
    "density eval": "density eval --config c.json --rho 0 --points x.csv --out d.csv",
    **{name: f"{name} --config c.json --out o" for name in
       ("pareto", "ablate", "modes", "shift", "ppl")},
    "metrics": "metrics --generated g.csv --reference r.csv",
}
REJECTED_FLAGS = [
    *((name, "--pool") for name in
      ("pool build", "pareto", "ablate", "shift", "ppl", "modes")),
    ("sample", "--config"), ("sample", "--feature-model"),
    ("density eval", "--pool"), ("density eval", "--feature-model"),
    *(("metrics", flag) for flag in
      ("--seed", "--model", "--config", "--pool", "--feature-model")),
]


@pytest.mark.parametrize("command,flag", REJECTED_FLAGS)
def test_flag_the_command_does_not_read_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(VALID_ARGV[command].split() + [flag, "3"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_model_flag_replaces_missing_config_model(workdir):
    doc = json.loads((workdir / "cfg.json").read_text())
    gone_cfg = workdir / "gone_cfg.json"
    gone_cfg.write_text(json.dumps({**doc, "model_path": str(workdir / "gone.json")}))
    direct, replaced = workdir / "direct.json", workdir / "replaced.json"
    assert main(["pool", "build", "--config", str(workdir / "cfg.json"),
                 "--out", str(direct)]) == 0
    assert main(["pool", "build", "--config", str(gone_cfg),
                 "--model", doc["model_path"], "--out", str(replaced)]) == 0
    assert direct.read_bytes() == replaced.read_bytes()


def test_seed_flag_replaces_config_seed(workdir):
    doc = json.loads((workdir / "cfg.json").read_text())
    seeded = workdir / "seed5.json"
    seeded.write_text(json.dumps({**doc, "seed": 5}))
    direct, replaced, own = (workdir / f"{name}.csv" for name in ("d", "r", "o"))
    assert main(["pareto", "--config", str(seeded), "--out", str(direct)]) == 0
    assert main(["pareto", "--config", str(workdir / "cfg.json"), "--seed", "5",
                 "--out", str(replaced)]) == 0
    assert main(["pareto", "--config", str(workdir / "cfg.json"),
                 "--out", str(own)]) == 0
    assert direct.read_bytes() == replaced.read_bytes() != own.read_bytes()


def test_feature_model_flag_scores_the_composed_net(workdir):
    feat = CpaNetwork("feat", (Layer(np.array([[1.0], [-3.0]]), np.zeros(2), "relu"),))
    save_model(feat, workdir / "feat.json")
    pool = workdir / "pool.json"
    assert main(["pool", "build", "--config", str(workdir / "cfg.json"),
                 "--feature-model", str(workdir / "feat.json"), "--out", str(pool)]) == 0
    loaded = SamplePool.load(pool)
    expected, _ = region_log_volumes(compose(zoo.bimodal_generator(), feat), loaded.z,
                                     loaded.k)
    assert np.array_equal(loaded.log_volumes, expected)


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


def _column(lvs):
    return np.asarray(lvs, "<f8").tobytes()


def _file(doc, lvs):
    """A format-5 pool file: one JSON header line, then the raw log-volumes."""
    return json.dumps(doc).encode() + b"\n" + _column(lvs)


def _set(key, value):
    """Pool file with one header field replaced; ``value`` may be a function of
    the header."""
    return lambda doc, z, lvs: _file(
        {**doc, key: value(doc) if callable(value) else value}, lvs)


def _drop(key):
    return lambda doc, z, lvs: _file({k: v for k, v in doc.items() if k != key}, lvs)


def _payload(edit):
    """Pool file whose column bytes are ``edit(bytes)``."""
    return lambda doc, z, lvs: _file(doc, []) + edit(_column(lvs))


V1_POOL = {"version": 1, "net_fingerprint": "x", "n": 1, "k": 1, "eps": 1e-12,
           "space": "output", "seed": 7,
           "domain": {"kind": "gaussian", "mean": [0.0], "std": [1.0]},
           "records": [{"z": [0.1], "code_hash": "ab", "log_volume": 0.3}]}

# each case maps the built pool's (header, z, log_volumes) to the file's bytes
MALFORMED_POOLS = {
    "not_an_object": lambda doc, z, lvs: _file([doc], lvs),
    "v1_file": lambda doc, z, lvs: json.dumps(V1_POOL).encode() + b"\n",
    # a version 2 file: codes and eps in place of regions
    "v2_file": lambda doc, z, lvs: json.dumps({
        **{k: v for k, v in doc.items() if k not in ("regions", "latents_sha256")},
        "version": 2,
        "eps": 1e-12, "z": _b64(z), "log_volumes": _b64(lvs), "code_bytes": 1,
        "codes": _b64(np.zeros(doc["n"], np.uint8))}).encode() + b"\n",
    # a version 3 file: one JSON document with base64 columns
    "v3_file": lambda doc, z, lvs: json.dumps({
        **{k: v for k, v in doc.items() if k != "latents_sha256"}, "version": 3,
        "z": _b64(z), "log_volumes": _b64(lvs)}).encode() + b"\n",
    # a version 4 file: a header without the digest, then the raw z and log-volumes
    "v4_file": lambda doc, z, lvs: _file(
        {**{k: v for k, v in doc.items() if k != "latents_sha256"}, "version": 4},
        []) + np.asarray(z, "<f8").tobytes() + _column(lvs),
    "missing_k": _drop("k"),
    "no_latents_digest": _drop("latents_sha256"),
    "missing_column": lambda doc, z, lvs: _file(doc, []),
    "n_is_string": _set("n", "2000"),
    "k_is_float": _set("k", 1.5),
    "seed_is_bool": _set("seed", True),
    "domain_unknown_kind": _set("domain", {"kind": "ring"}),
    "domain_missing_std": _set("domain", {"kind": "gaussian", "mean": [0.0]}),
    "n_disagrees": _set("n", lambda doc: doc["n"] + 1),
    "negative_n": _set("n", -1),
    "domain_has_no_dimension": _set("domain", {"kind": "uniform_box", "lo": [], "hi": []}),
    "latent_dim_disagrees": _set(
        "domain", {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1.0, 1.0]}),
    "truncated_column": _payload(lambda raw: raw[:-8]),
    "column_cut_inside_a_value": _payload(lambda raw: raw[:-3]),
    "extra_column_bytes": _payload(lambda raw: raw + bytes(8)),
    "header_not_json": lambda doc, z, lvs: b"{not json\n" + _column(lvs),
    "header_not_utf8": lambda doc, z, lvs: b"\xff" + _file(doc, lvs),
    "no_newline": lambda doc, z, lvs: _file(doc, lvs).replace(b"\n", b"", 1),
    "empty_file": lambda doc, z, lvs: b"",
    "nan_log_volume": lambda doc, z, lvs: _file(doc, [np.nan] + [0.0] * (doc["n"] - 1)),
    "inf_log_volume": lambda doc, z, lvs: _file(doc, [0.0] * (doc["n"] - 1) + [-np.inf]),
    "empty_pool": lambda doc, z, lvs: _file({**doc, "n": 0}, []),
    "negative_seed": _set("seed", -5),
    # the latents the header's domain, n and seed draw are not the pool's
    "latents_digest_mismatch": _set("latents_sha256", "0" * 64),
    "seed_edited": _set("seed", lambda doc: doc["seed"] + 1),
    # a box far off every latent the pool scored, the digest kept
    "domain_edited": _set("domain", {"kind": "uniform_box", "lo": [1e6], "hi": [2e6]}),
    "domain_draw_overflows": _set(
        "domain", {"kind": "gaussian", "mean": [0.0], "std": [1e308]}),
    "k_zero": _set("k", 0),
    "regions_zero": _set("regions", 0),
    "regions_above_n": _set("regions", lambda doc: doc["n"] + 1),
}


# text the error names, for the cases that must fail for one reason
MALFORMED_POOL_TEXT = {
    **dict.fromkeys(("v1_file", "v2_file", "v3_file", "v4_file"),
                    "rebuild it with `polsamp pool build`"),
    **dict.fromkeys(("latents_digest_mismatch", "seed_edited", "domain_edited",
                     "latent_dim_disagrees"),
                    "do not match its latents_sha256; rebuild it with `polsamp pool build`"),
    **dict.fromkeys(("missing_column", "truncated_column", "column_cut_inside_a_value",
                     "extra_column_bytes", "n_disagrees"), "pool columns hold"),
    "no_latents_digest": "no field 'latents_sha256'",
    "header_not_json": "invalid JSON",
    "header_not_utf8": "utf-8",
    "empty_file": "invalid JSON",
    "empty_pool": "pool is empty",
    "domain_has_no_dimension": "needs at least one dimension",
    "domain_draw_overflows": "std=[1e+308] leaves the float range",
    "nan_log_volume": "pool log-volumes must be finite",
    "inf_log_volume": "pool log-volumes must be finite",
}


def _pool_parts(path):
    """A pool file's header, latents and log-volumes, read without
    ``SamplePool``; the latents are the header's draw."""
    header, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    z = draw_latents(LatentDomain.from_dict(doc["domain"]), doc["n"], doc["seed"])
    return doc, z, np.frombuffer(payload, "<f8")


@pytest.mark.parametrize("case", sorted(MALFORMED_POOLS))
def test_malformed_pool_exits_2(case, workdir, capsys):
    pool = workdir / "pool.json"
    main(["pool", "build", "--config", str(workdir / "cfg.json"), "--out", str(pool)])
    pool.write_bytes(MALFORMED_POOLS[case](*_pool_parts(pool)))
    with pytest.raises(ValidationError):
        SamplePool.load(pool)
    capsys.readouterr()
    rc = main(["sample", "--pool", str(pool),
               "--model", str(workdir / "bimodal.json"),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(pool) in err
    assert MALFORMED_POOL_TEXT.get(case, "") in err


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    """A 50-latent bimodal pool file's bytes, in a directory with its model."""
    d = tmp_path_factory.mktemp("small_pool")
    model, cfg, pool = d / "bimodal.json", d / "cfg.json", d / "pool.json"
    save_model(zoo.bimodal_generator(), model)
    ExperimentConfig(model_path=str(model), domain=zoo.bimodal_domain().to_dict(),
                     seed=7, rho_grid=[0.0], n=50, k=1).to_json(cfg)
    assert main(["pool", "build", "--config", str(cfg), "--out", str(pool)]) == 0
    return d, pool.read_bytes()


def _quiet_main(argv):
    """``main(argv)`` with every warning an error: (exit code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue()


# a truncated or one-byte-damaged pool file: sample either draws finite rows
# or exits 2 with an error line, never a traceback or a warning
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_pool_file_exits_0_or_2(small_pool, data):
    d, good = small_pool
    header_end = good.index(b"\n")
    # a byte of the header, any byte, or the sign and exponent byte of a value
    top_bytes = st.integers(0, (len(good) - header_end - 1) // 8 - 1).map(
        lambda v: header_end + 8 + 8 * v)
    at = data.draw(st.integers(0, header_end) | st.integers(0, len(good) - 1) | top_bytes,
                   label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = good[:at]
    else:
        # 0x40 on a top byte turns a value of magnitude 1 to 2 into inf or nan,
        # 0x80 flips its sign
        damaged = bytearray(good)
        damaged[at] ^= data.draw(st.sampled_from([0x40, 0x80]) | st.integers(1, 255),
                                 label="mask")
    pool, out = d / "damaged.json", d / "draws.csv"
    pool.write_bytes(bytes(damaged))
    out.unlink(missing_ok=True)
    rc, err = _quiet_main(["sample", "--pool", str(pool), "--model", str(d / "bimodal.json"),
                           "--rho", "0.0", "--s", "200", "--out", str(out)])
    if rc == 0:
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))
    else:
        assert rc == 2 and err.startswith("error: "), err


def _assert_written_like_write_csv(pts, d):
    header = [f"x{i}" for i in range(pts.shape[1])]
    _write_points(d / "points.csv", pts)
    write_csv(d / "reference.csv", header, pts.tolist())
    assert (d / "points.csv").read_bytes() == (d / "reference.csv").read_bytes()


def test_write_points_keeps_signed_zeros_apart(tmp_path):
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [5e-324, -1e300], [0.0, 1.0], [-0.0, 1.0]])
    _assert_written_like_write_csv(pts, tmp_path)
    lines = (tmp_path / "points.csv").read_bytes().split(b"\r\n")
    assert lines[1:3] == [b"0.0,1.0", b"-0.0,1.0"]


EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                           1e300, -1e300, 1.0]) | st.floats(allow_nan=False,
                                                            allow_infinity=False)


# repeated rows, both zeros in one column, subnormals and +-1e300, one row,
# dims 1-8
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_write_points_equals_write_csv(tmp_path_factory, dim, data):
    distinct = data.draw(st.lists(st.lists(EXTREME, min_size=dim, max_size=dim),
                                  min_size=1, max_size=6), label="distinct")
    # each row's twin with its zeros' signs flipped: a distinct row wherever it holds a zero
    distinct += [[-v if v == 0.0 else v for v in row] for row in distinct]
    order = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                               max_size=40), label="order")
    _assert_written_like_write_csv(np.array(distinct, dtype=np.float64)[order],
                                   tmp_path_factory.getbasetemp())


def test_box_whose_volume_overflows(tmp_path):
    # each width 2e200 is finite, their product is not: density eval needs the
    # box volume and names the box; pool build does not need it
    model, cfg, pts = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "pts.csv"
    save_model(zoo.ramp_2d_net(), model)
    ExperimentConfig(model_path=str(model), seed=1, rho_grid=[0.0], n=200, k=2,
                     domain={"kind": "uniform_box", "lo": [-1e200, -1e200],
                             "hi": [1e200, 1e200]}).to_json(cfg)
    pts.write_text("x0,x1\n0.5,0.5\n")
    rc, err = _quiet_main(["density", "eval", "--config", str(cfg), "--rho", "0",
                           "--points", str(pts), "--out", str(tmp_path / "d.csv")])
    assert rc == 2 and err.startswith("error: ") and "uniform_box" in err, err
    assert "lo=[-1e+200, -1e+200], hi=[1e+200, 1e+200]" in err and "rho" not in err
    assert _quiet_main(["pool", "build", "--config", str(cfg),
                        "--out", str(tmp_path / "p.json")]) == (0, "")



# (net, the region the refusal names): halfspace's off side has slope 0; a
# leaky unit over K=2 has rank 1 on both sides, as any net with D < K does
RANK_DEFICIENT = {
    "halfspace": (zoo.halfspace_net, "region 0 (code [0]) has rank 0 < K=2"),
    "leaky_d_below_k": (
        lambda: CpaNetwork("leaky", (Layer(np.array([[1.0, -0.5]]), np.zeros(1),
                                           "leaky_relu", alpha=0.2),)),
        "region 0 (code [0]) has rank 1 < K=2"),
}


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_density_eval_refuses_a_region_below_full_rank(name, tmp_path):
    make_net, names = RANK_DEFICIENT[name]
    model, cfg, pts = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "pts.csv"
    save_model(make_net(), model)
    ExperimentConfig(model_path=str(model), seed=1, rho_grid=[0.0], resolution=64,
                     domain={"kind": "uniform_box", "lo": [-1.0, -1.0],
                             "hi": [1.0, 1.0]}).to_json(cfg)
    pts.write_text("x0\n0.5\n")
    # the rank refusal comes first, so no rho, finite or not, gets a warning out
    for rho in ("-inf", "-1", "0", "0.5", "1", "2", "inf", "nan"):
        rc, err = _quiet_main(["density", "eval", "--config", str(cfg), f"--rho={rho}",
                               "--points", str(pts), "--out", str(tmp_path / "d.csv")])
        assert rc == 2 and err.startswith("error: ") and names in err, err
        assert err.count("\n") == 1, err
    assert not (tmp_path / "d.csv").exists()


def _config_edit(**fields):
    return "config", lambda doc: {**doc, **fields}


def _pool_config_edit(**fields):
    # density eval refuses any gaussian domain before it draws: pool build draws
    return "pool config", lambda doc: {**doc, **fields}


def _model_edit(layer=None, **fields):
    def edit(doc):
        doc = {**doc, **fields}
        if layer is not None:
            doc["layers"] = [{**doc["layers"][0], **layer}] + doc["layers"][1:]
        return doc
    return "model", edit


# case -> (which input is malformed, its edit or text, text the error names)
MALFORMED_INPUTS = {
    "domain_not_object": (*_config_edit(domain=[-1.0, 1.0]), "domain"),
    "domain_missing_lo": (*_config_edit(domain={"kind": "uniform_box", "hi": [1.0]}),
                          "'lo'"),
    "domain_missing_hi": (*_config_edit(domain={"kind": "uniform_box", "lo": [-1.0]}),
                          "'hi'"),
    "domain_missing_mean": (*_config_edit(domain={"kind": "gaussian", "std": [1.0]}),
                            "'mean'"),
    "domain_missing_std": (*_config_edit(domain={"kind": "gaussian", "mean": [0.0]}),
                           "'std'"),
    "domain_non_numeric": (*_config_edit(
        domain={"kind": "uniform_box", "lo": ["a"], "hi": [1.0]}), "'lo'"),
    "domain_null_entry": (*_config_edit(
        domain={"kind": "gaussian", "mean": [None], "std": [1.0]}), "'mean'"),
    "domain_psi_string": (*_config_edit(
        domain={"kind": "gaussian", "mean": [0.0], "std": [1.0], "psi": "0.5"}), "'psi'"),
    "domain_lo_above_hi": (*_config_edit(
        domain={"kind": "uniform_box", "lo": [1.0], "hi": [0.0]}), "lo < hi"),
    "domain_width_overflows": (*_config_edit(
        domain={"kind": "uniform_box", "lo": [-1e308], "hi": [1e308]}), "finite hi - lo"),
    # each std is finite, so are the draws of a standard normal, but not their
    # product, or its sum with the mean
    "domain_draw_overflows": (*_pool_config_edit(
        domain={"kind": "gaussian", "mean": [0.0], "std": [1e308]}),
        "gaussian domain mean=[0.0], std=[1e+308] leaves the float range"),
    "domain_draw_plus_mean_overflows": (*_pool_config_edit(
        domain={"kind": "gaussian", "mean": [1.7e308], "std": [1e307]}),
        "gaussian domain mean=[1.7e+308], std=[1e+307] leaves the float range"),
    "domain_bool_among_numbers": (*_config_edit(
        domain={"kind": "gaussian", "mean": [0.0, True], "std": [1.0, 1.0]}), "'mean'"),
    "domain_std_zero": (*_config_edit(
        domain={"kind": "gaussian", "mean": [0.0], "std": [0.0]}), "std > 0"),
    "domain_psi_above_one": (*_config_edit(
        domain={"kind": "gaussian", "mean": [0.0], "std": [1.0], "psi": 1.5}),
        "psi must lie in (0, 1]"),
    "n_string": (*_config_edit(n="abc"), "'n'"),
    "k_float": (*_config_edit(k=1.5), "'k'"),
    "s_bool": (*_config_edit(s=True), "'s'"),
    "seed_null": (*_config_edit(seed=None), "'seed'"),
    "seed_negative": (*_config_edit(seed=-1), "'seed'"),
    "k_nn_string": (*_config_edit(k_nn="3"), "'k_nn'"),
    "j_float": (*_config_edit(j=3.0), "'j'"),
    "n_pairs_list": (*_config_edit(n_pairs=[10]), "'n_pairs'"),
    "m_top_bool": (*_config_edit(m_top=False), "'m_top'"),
    "resolution_string": (*_config_edit(resolution="64"), "'resolution'"),
    "resolution_grid_beyond_any_array": (*_config_edit(resolution=10**30), "resolution="),
    # the pool's eps is fixed; a config that still sets it, to any value, is refused
    "eps_string": (*_config_edit(eps="x"), "'eps'"),
    "eps_negative": (*_config_edit(eps=-1), "'eps'"),
    "eps_zero": (*_config_edit(eps=0), "'eps'"),
    "epsilon_nan": (*_config_edit(epsilon=float("nan")), "'epsilon'"),
    "epsilon_null": (*_config_edit(epsilon=None), "'epsilon'"),
    "epsilon_int_beyond_float": (*_config_edit(epsilon=10**400), "'epsilon'"),
    "rho_grid_not_list": (*_config_edit(rho_grid=5), "'rho_grid'"),
    "rho_grid_string_entry": (*_config_edit(rho_grid=["a"]), "'rho_grid'"),
    "rho_grid_int_beyond_float": (*_config_edit(rho_grid=[10**400]), "'rho_grid'"),
    "psi_grid_bool_entry": (*_config_edit(psi_grid=[True]), "'psi_grid'"),
    "n_grid_float_entry": (*_config_edit(n_grid=[100.5]), "'n_grid'"),
    "k_grid_string": (*_config_edit(k_grid="1"), "'k_grid'"),
    "psi_grid_empty": (*_config_edit(psi_grid=[]), "psi grid must be nonempty"),
    "n_zero": (*_config_edit(n=0), "'n'"),
    "k_zero": (*_config_edit(k=0), "'k'"),
    "s_zero": (*_config_edit(s=0), "'s'"),
    "k_nn_zero": (*_config_edit(k_nn=0), "'k_nn'"),
    "j_negative": (*_config_edit(j=-1), "'j'"),
    "n_pairs_zero": (*_config_edit(n_pairs=0), "'n_pairs'"),
    "m_top_negative": (*_config_edit(m_top=-1), "'m_top'"),
    "model_path_list": (*_config_edit(model_path=["m.json"]), "'model_path'"),
    "model_path_int": (*_config_edit(model_path=0), "'model_path'"),
    "feature_model_path_object": (*_config_edit(feature_model_path={"path": "m.json"}),
                                  "'feature_model_path'"),
    "model_missing": ("config", lambda doc: {
        **doc, "model_path": doc["model_path"] + ".missing"}, "cannot read"),
    "input_dim_string": (*_model_edit(input_dim="abc"), "input_dim"),
    "input_dim_disagrees": (*_model_edit(input_dim=2), "declares input_dim 2"),
    "bias_non_numeric": (*_model_edit(layer={"bias": ["x", 0.0]}), "bias"),
    "alpha_non_numeric": (*_model_edit(layer={"activation": "leaky_relu",
                                              "alpha": "abc"}), "alpha"),
    "weight_nan": (*_model_edit(layer={"weight": [[float("nan")], [-1.0]]}), "weight"),
    "bias_infinity": (*_model_edit(layer={"bias": [float("inf"), 0.0]}), "bias"),
    "weight_bool_among_numbers": (*_model_edit(layer={"weight": [[True], [0.5]]}),
                                  "weight"),
    "weight_scalar": (*_model_edit(layer={"weight": 1.0}), "weight"),
    "weight_vector": (*_model_edit(layer={"weight": [1.0, -1.0]}), "weight"),
    "points_short_second_row": ("points", "1.0,2.0\n3.0\n", None),
    "points_non_numeric_row": ("points", "x0\n1.0\nabc\n", None),
    "points_header_only": ("points", "x0\n", "no points"),
    "points_empty": ("points", "", "no points"),
    "points_nan": ("points", "x0\nnan\n-1.0\n", "finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(case, tmp_path, capsys, recwarn):
    which, edit, names = MALFORMED_INPUTS[case]
    model, cfg, pts = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "pts.csv"
    save_model(zoo.two_piece_net(), model)
    ExperimentConfig(model_path=str(model), domain=zoo.two_piece_domain().to_dict(),
                     seed=1, rho_grid=[0.0], n=200, k=1).to_json(cfg)
    pts.write_text("x0\n-1.0\n0.25\n")
    if which == "points":
        pts.write_text(edit)
    else:
        path = model if which == "model" else cfg
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    argv = ["density", "eval", "--config", str(cfg), "--rho", "0.0",
            "--points", str(pts), "--out", str(tmp_path / "d.csv")]
    if which == "pool config":
        argv = ["pool", "build", "--config", str(cfg), "--out", str(tmp_path / "p.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1, err
    if names:
        assert names in err
    assert not recwarn.list, [str(w.message) for w in recwarn]


def test_forward_past_the_float_range_exits_3(tmp_path, capsys, recwarn):
    # finite psi-truncated draws up to 1.4e308, which bimodal's slope-4
    # output layer takes past the float range
    model, cfg, out = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "p.json"
    save_model(zoo.bimodal_generator(), model)
    ExperimentConfig(model_path=str(model), seed=1, rho_grid=[0.0], n=100, k=1,
                     domain={"kind": "gaussian", "mean": [0.0], "std": [1e308], "psi": 0.7},
                     ).to_json(cfg)
    rc = main(["pool", "build", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("numerical error: ") and "Traceback" not in err
    assert err.count("\n") == 1, err
    assert "model 'bimodal'" in err
    assert not out.exists()
    assert not recwarn.list, [str(w.message) for w in recwarn]


# case -> (edit of the config's reference spec, text the error names)
MALFORMED_REFERENCES = {
    "spec_is_list": (lambda ref: [ref], "object"),
    "params_is_list": (lambda ref: {**ref, "params": [1.0]}, "'params'"),
    "params_missing_means": (lambda ref: {**ref, "params": {
        k: v for k, v in ref["params"].items() if k != "means"}}, "'means'"),
    "size_string": (lambda ref: {**ref, "size": "x"}, "'size'"),
    "size_beyond_any_array": (lambda ref: {**ref, "size": 10**30}, "'size'"),
    "size_missing": (lambda ref: {k: v for k, v in ref.items() if k != "size"},
                     "'size'"),
    "seed_negative": (lambda ref: {**ref, "seed": -1}, "'seed'"),
    "weights_outnumber_means": (lambda ref: {**ref, "params": {
        **ref["params"], "means": [[-3.0]]}}, "'means'"),
    "covs_short": (lambda ref: {**ref, "params": {
        **ref["params"], "covs": [0.1]}}, "'covs'"),
    "cov_wrong_shape": (lambda ref: {**ref, "params": {
        **ref["params"], "covs": [0.1, [0.1, 0.2]]}}, "'covs'"),
    "cov_negative": (lambda ref: {**ref, "params": {
        **ref["params"], "covs": [-1.0, 0.01]}}, "'covs' entry 0"),
    "cov_asymmetric": (lambda ref: {**ref, "params": {
        **ref["params"], "means": [[-3.0, 0.0], [1.0, 0.0]],
        "covs": [0.01, [[1.0, 0.5], [0.0, 1.0]]]}}, "'covs' entry 1"),
    "cov_not_psd": (lambda ref: {**ref, "params": {
        **ref["params"], "means": [[-3.0, 0.0], [1.0, 0.0]],
        "covs": [[[1.0, 2.0], [2.0, 1.0]], 0.01]}}, "'covs' entry 0"),
    "weights_sum_below_one": (lambda ref: {**ref, "params": {
        **ref["params"], "weights": [0.3, 0.3]}}, "sum to 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REFERENCES))
def test_malformed_reference_exits_2(case, workdir, capsys, recwarn):
    edit, names = MALFORMED_REFERENCES[case]
    cfg = workdir / "cfg.json"
    doc = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**doc, "reference": edit(doc["reference"])}))
    rc = main(["pareto", "--config", str(cfg), "--out", str(workdir / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and names in err
    assert not recwarn.list, [str(w.message) for w in recwarn]


def test_pareto_refuses_a_truncated_domain(workdir, capsys):
    # pareto truncates through psi_grid: with a domain psi, its psi = 1.0 row
    # would be truncated and every other row replace that psi
    cfg = workdir / "cfg.json"
    doc = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**doc, "domain": {**doc["domain"], "psi": 0.3},
                               "psi_grid": [1.0]}))
    rc = main(["pareto", "--config", str(cfg), "--out", str(workdir / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "psi_grid" in err
    assert main(["pool", "build", "--config", str(cfg),
                 "--out", str(workdir / "pool.json")]) == 0
    assert main(["modes", "--config", str(cfg), "--out", str(workdir / "m.json")]) == 0


def test_integer_too_long_to_parse_exits_2(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(cfg.read_text().replace('"seed": ', '"seed": ' + "9" * 5000))
    rc = main(["pool", "build", "--config", str(cfg), "--out", str(workdir / "p.json")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"error: cannot read {cfg}") and "Traceback" not in err


# case -> (argv over the fixture's files, text the error names)
BAD_ARGUMENTS = {
    "config_is_dir": ("pool build --config {dir} --out {dir}/p.json", "directory"),
    "config_not_utf8": ("pool build --config {binary} --out {dir}/p.json", "utf-8"),
    "pool_is_dir": ("sample --pool {dir} --model {model} --rho 0 --s 10 "
                    "--out {dir}/x.csv", "directory"),
    "model_is_dir": ("sample --pool {pool} --model {dir} --rho 0 --s 10 "
                     "--out {dir}/x.csv", "directory"),
    "out_is_dir": ("sample --pool {pool} --model {model} --rho 0 --s 10 "
                   "--out {dir}", "directory"),
    "generated_is_dir": ("metrics --generated {dir} --reference {points}", "directory"),
    "points_is_dir": ("density eval --config {box_cfg} --rho 0 --points {dir} "
                      "--out {dir}/d.csv", "directory"),
    "density_rho_nan": ("density eval --config {box_cfg} --rho nan --points {points} "
                        "--out {dir}/d.csv", "rho must be finite"),
    "density_rho_inf": ("density eval --config {box_cfg} --rho inf --points {points} "
                        "--out {dir}/d.csv", "rho must be finite"),
    # two_piece's region weights 2**(1 - rho) and 2**(rho - 1) overflow
    "density_rho_overflows": ("density eval --config {box_cfg} --rho 2000 "
                              "--points {points} --out {dir}/d.csv", "rho=2000.0: a density weight"),
    "density_rho_overflows_negative": ("density eval --config {box_cfg} --rho=-2000 "
                                       "--points {points} --out {dir}/d.csv",
                                       "rho=-2000.0: a density weight"),
    "density_rho_1e300": ("density eval --config {box_cfg} --rho 1e300 "
                          "--points {points} --out {dir}/d.csv", "rho=1e+300: a density weight"),
    "sample_rho_nan": ("sample --pool {pool} --model {model} --rho nan --s 10 "
                       "--out {dir}/x.csv", "rho must be finite"),
    "sample_rho_inf": ("sample --pool {pool} --model {model} --rho inf --s 10 "
                       "--out {dir}/x.csv", "rho must be finite"),
    "pool_build_seed_negative": ("pool build --config {cfg} --seed -3 "
                                 "--out {dir}/p.json", "--seed"),
    "sample_seed_negative": ("sample --pool {pool} --model {model} --rho 0 --s 10 "
                             "--seed -1 --out {dir}/x.csv", "--seed"),
    "metrics_k_nn_zero": ("metrics --generated {points} --reference {points} "
                          "--k-nn 0", "k_nn"),
    "metrics_j_zero": ("metrics --generated {points} --reference {points} "
                       "--k-nn 1 --j 0", "j must be"),
    "metrics_j_negative": ("metrics --generated {points} --reference {points} "
                           "--k-nn 1 --j -1", "j must be"),
    "metrics_dims_differ": ("metrics --generated {points} --reference {plane}",
                            "dimension mismatch"),
    "metrics_j_above_reference_rows": ("metrics --generated {plane} --reference "
                                       "{plane} --k-nn 1 --j 5",
                                       "exceeds training set size"),
    "shift_references_differ": ("shift --config {shift_cfg} --out {dir}/s.csv",
                                "different spaces"),
    # every log-volume of the slope-10 line is log 10
    "sample_rho_overflows": ("sample --pool {scale_pool} --model {scale} --rho 1e308 "
                             "--s 10 --out {dir}/x.csv", "overflows"),
    "modes_rho_overflows": ("modes --config {scale_cfg} --out {dir}/m.json", "overflows"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_exits_2(case, workdir, capsys):
    argv, names = BAD_ARGUMENTS[case]
    paths = {"dir": workdir, "cfg": workdir / "cfg.json",
             "model": workdir / "bimodal.json", "pool": workdir / "pool.json",
             "points": workdir / "pts.csv", "box_cfg": workdir / "box_cfg.json",
             "binary": workdir / "binary.json", "scale": workdir / "scale.json",
             "scale_cfg": workdir / "scale_cfg.json",
             "scale_pool": workdir / "scale_pool.json", "plane": workdir / "plane.csv",
             "shift_cfg": workdir / "shift_cfg.json"}
    main(["pool", "build", "--config", str(paths["cfg"]), "--out", str(paths["pool"])])
    save_model(CpaNetwork("scale", (Layer(np.array([[10.0]]), np.zeros(1)),)),
               paths["scale"])
    ExperimentConfig(model_path=str(paths["scale"]), seed=1, rho_grid=[1e308], n=50,
                     k=1, domain=zoo.two_piece_domain().to_dict()).to_json(paths["scale_cfg"])
    main(["pool", "build", "--config", str(paths["scale_cfg"]),
          "--out", str(paths["scale_pool"])])
    save_model(zoo.two_piece_net(), workdir / "tp.json")
    ExperimentConfig(model_path=str(workdir / "tp.json"), seed=1, rho_grid=[0.0],
                     domain=zoo.two_piece_domain().to_dict()).to_json(paths["box_cfg"])
    # a 1-D biased and a 2-D uniform reference
    line, plane = ({"weights": [1.0], "means": [[0.0] * dim], "covs": [0.1]}
                   for dim in (1, 2))
    ExperimentConfig(
        model_path=str(workdir / "tp.json"), seed=1, rho_grid=[0.0],
        domain=zoo.two_piece_domain().to_dict(),
        reference_biased=SyntheticDataset("gaussian_mixture", line, 50, 1).to_dict(),
        reference_uniform=SyntheticDataset("gaussian_mixture", plane, 50, 2).to_dict(),
    ).to_json(paths["shift_cfg"])
    paths["points"].write_text("x0\n-1.0\n0.25\n")
    paths["plane"].write_text("x0,x1\n0.0,1.0\n2.0,0.5\n-1.0,3.0\n")
    paths["binary"].write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    rc = main(argv.format(**paths).split())
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert names in err.lower()


# 2**62 rows of 16 bytes or more exceed the largest array numpy can index;
# each count is refused before anything is allocated
HUGE = 2**62


@pytest.mark.parametrize("command, field", [("sample", "s"), ("pool build", "n"),
                                            ("pareto", "n"), ("pareto", "s")])
def test_oversized_count_exits_2(command, field, workdir, capsys):
    cfg, pool = workdir / "cfg.json", workdir / "pool.json"
    main(["pool", "build", "--config", str(cfg), "--out", str(pool)])
    if command == "sample":
        argv = ["sample", "--pool", str(pool), "--model", str(workdir / "bimodal.json"),
                "--rho", "0.0", "--s", str(HUGE)]
    else:
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: HUGE}))
        argv = [*command.split(), "--config", str(cfg)]
    capsys.readouterr()
    rc = main(argv + ["--out", str(workdir / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and f"{field}={HUGE}" in err


def test_memory_error_exits_2(workdir, monkeypatch, capsys):
    import polarity_sampling.cli as cli

    def boom(sampler, s, seed):
        raise MemoryError("Unable to allocate 32.0 GiB")

    pool = workdir / "pool.json"
    main(["pool", "build", "--config", str(workdir / "cfg.json"), "--out", str(pool)])
    monkeypatch.setattr(cli, "sample_batch", boom)
    capsys.readouterr()
    rc = main(["sample", "--pool", str(pool), "--model", str(workdir / "bimodal.json"),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Unable to allocate" in err


def test_sample_refuses_pool_of_another_latent_dim(workdir, capsys):
    # a hand-made pool file: the 1-D bimodal model's fingerprint, 2-D latents
    pool = workdir / "pool.json"
    domain = LatentDomain("uniform_box", lo=[-1.0, -1.0], hi=[1.0, 1.0])
    SamplePool(z=draw_latents(domain, 3, 0), log_volumes=np.zeros(3), k=1, seed=0,
               regions=1, domain=domain,
               net_fingerprint=fingerprint(zoo.bimodal_generator())).save(pool)
    rc = main(["sample", "--pool", str(pool), "--model", str(workdir / "bimodal.json"),
               "--rho", "0.0", "--s", "10", "--out", str(workdir / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "dim 2" in err and "input_dim is 1" in err
    assert not (workdir / "x.csv").exists()


def _scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(polarity_sampling.__file__))
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


# scipy costs every CLI process start-up time and memory, and no run needs
# it: the psi < 1 prior draws by the package's ports of ndtr and ndtri
@pytest.mark.parametrize("module", ["polarity_sampling", "polarity_sampling.cli"])
def test_importing_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == []


def test_untruncated_pool_build_and_sample_load_no_scipy(workdir):
    cfg, model, pool = (str(workdir / f) for f in ("cfg.json", "bimodal.json", "pool.json"))
    draws = str(workdir / "draws.csv")
    code = (
        "from polarity_sampling import cli\n"
        f"assert cli.main(['pool', 'build', '--config', {cfg!r}, '--out', {pool!r}]) == 0\n"
        f"assert cli.main(['sample', '--pool', {pool!r}, '--model', {model!r}, "
        f"'--rho', '-1.0', '--s', '50', '--out', {draws!r}]) == 0"
    )
    assert _scipy_modules_after(code) == []


def test_first_truncated_draw_loads_no_scipy(workdir):
    # nor do a psi < 1 draw, a truncated pool build plus sample, or a truncated pareto
    doc = json.loads((workdir / "cfg.json").read_text())
    cfg, pareto = workdir / "psi.json", workdir / "pareto.json"
    cfg.write_text(json.dumps({**doc, "domain": {**doc["domain"], "psi": 0.7}}))
    pareto.write_text(json.dumps({**doc, "psi_grid": [1.0, 0.7]}))
    model, pool, draws, out = (str(workdir / f)
                               for f in ("bimodal.json", "psi.pool", "psi.csv", "p.csv"))
    code = (
        "import numpy as np\nfrom polarity_sampling import cli, zoo\n"
        "zoo.bimodal_domain().truncate(0.7).sample(10, np.random.default_rng(0))\n"
        f"assert cli.main(['pool', 'build', '--config', {str(cfg)!r}, '--out', {pool!r}]) == 0\n"
        f"assert cli.main(['sample', '--pool', {pool!r}, '--model', {model!r}, "
        f"'--rho', '-1.0', '--s', '50', '--out', {draws!r}]) == 0\n"
        f"assert cli.main(['pareto', '--config', {str(pareto)!r}, '--out', {out!r}]) == 0"
    )
    assert _scipy_modules_after(code) == []


# map_blocks starts its helper threads inside each call with blocks to share
# and joins them before it returns: no CLI run, whether it scores blocks or
# not, ends with a thread beside the main one or loads an executor module
@pytest.mark.parametrize("code", [
    "import polarity_sampling.cli",
    "from polarity_sampling import cli\ntry:\n    cli.main(['--help'])\n"
    "except SystemExit:\n    pass",
    "from polarity_sampling import cli\n"
    "assert cli.main(['pool', 'build', '--config', {cfg!r}, '--out', {pool!r}]) == 0",
], ids=["import", "help", "pool build"])
def test_cli_start_loads_no_executor_and_starts_no_thread(code, tmp_path):
    # a net wide enough that the pool build scores several blocks
    model, cfg = tmp_path / "wide.json", tmp_path / "cfg.json"
    rng = np.random.default_rng(0)
    save_model(CpaNetwork("wide", (
        Layer(rng.standard_normal((64, 8)), rng.standard_normal(64), "relu"),
        Layer(rng.standard_normal((4, 64)), np.zeros(4)),
    )), model)
    ExperimentConfig(model_path=str(model), seed=1, rho_grid=[0.0], n=2000, k=2,
                     domain={"kind": "uniform_box", "lo": [-1.0] * 8,
                             "hi": [1.0] * 8}).to_json(cfg)
    code = code.format(cfg=str(cfg), pool=str(tmp_path / "pool.json"))
    src = os.path.dirname(os.path.dirname(polarity_sampling.__file__))
    probe = (f"{code}\nimport json, sys, threading\n"
             f"print(json.dumps(['concurrent.futures' in sys.modules, "
             f"threading.active_count()]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout.splitlines()[-1]) == [False, 1]
