import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.register_profile("thorough", max_examples=300,
                                     deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def synth_snapshot(tmp_path_factory):
    """A small five-market synth.generate dataset, ingested: returns the
    loaded snapshot and its workspace."""
    from cmrec import pipeline
    from cmrec.config import PipelineConfig
    from cmrec.synth import MarketSpec, SynthConfig, generate

    root = tmp_path_factory.mktemp("synth_snapshot")
    generate(SynthConfig(
        out_dir=str(root / "data"), seed=3, n_items=120, dim=4,
        markets={"s1": MarketSpec(60, 10, 0.9), "s2": MarketSpec(40, 8, 0.8),
                 "s3": MarketSpec(30, 8, 0.7), "t1": MarketSpec(25, 5, 0.8),
                 "t2": MarketSpec(25, 5, 0.8)},
        eval_users=10, n_candidates=20))
    config = PipelineConfig(data_dir=str(root / "data"),
                            workspace=str(root / "work"),
                            markets=("s1", "s2", "s3", "t1", "t2"),
                            targets=("t1", "t2"))
    pipeline.run_ingest(config)
    ws = pipeline.workspace_for(config)
    return pipeline.load_snapshot(ws), ws
