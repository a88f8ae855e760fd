"""Every bench workload writes its inputs in the package's schema, and reads
back the pool fields it checks, so a schema edit under ``src/`` shows up
here, not first as a failed ``bench/run.py`` run."""

import os

import pytest

from polarity_sampling import ExperimentConfig, SamplePool, build_pool, cpa

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    return workloads


def test_workload_inputs_load(workloads, tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload(3, str(workdir)).write_inputs()
        config = ExperimentConfig.from_json(str(workdir / "config.json"))
        net = cpa.load_model(str(workdir / "model.json"))
        assert cpa.fingerprint(net) == cpa.fingerprint(workload.net)
        # the pool fields the workloads' checks read, after a save and load
        build_pool(net, config.load_domain(), 16, config.k, config.seed).save(
            workdir / "pool.json")
        pool = SamplePool.load(workdir / "pool.json")
        # scores are exact; the bench's FD check passes pool.eps to fd_log_volumes
        assert (pool.n, pool.k) == (16, config.k) and pool.eps == 0.0
        assert pool.latents.shape == (16, net.input_dim)
        assert pool.log_volumes.shape == (16,)
        assert config.resolution >= 32
