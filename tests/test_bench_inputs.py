"""Every bench workload writes its inputs in the package's schema, and reads
back the pool fields it checks, so a schema edit under ``src/`` shows up
here, not first as a failed ``bench/run.py`` run."""

import os

import pytest

from polarity_sampling import ExperimentConfig, SamplePool, build_pool, cpa

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


# the fixed nets' model documents, byte for byte
FINGERPRINTS = {
    "pool_cycle": "9f7ec0449ba613c9ef68f4a126ba2ef73109d95cfc046595751f45886b8880e8",
    "pareto_tall": "5f1a40c92fd37b4e5953768231c5c130f7fd33fe67f37bcdc29affab09c18926",
    "density_law": "f699ed38bd93ab8f6b15a98cc0dee172e0a67ea395bee6456dbcf30518dd08c7",
}


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
        assert cpa.fingerprint(net) == cpa.fingerprint(workload.net) == FINGERPRINTS[name]
        # the pool fields the workloads' checks read, after a save and load
        build_pool(net, config.load_domain(), 16, config.k, config.seed).save(
            workdir / "pool.json")
        pool = SamplePool.load(workdir / "pool.json")
        # scores are exact; the bench's FD check passes pool.eps to fd_log_volumes
        assert (pool.n, pool.k) == (16, config.k) and pool.eps == 0.0
        assert pool.latents.shape == (16, net.input_dim)
        assert pool.log_volumes.shape == (16,)
        assert config.resolution >= 32
