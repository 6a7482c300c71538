import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.register_profile("thorough", max_examples=300,
                                     deadline=None)
hypothesis.settings.load_profile("default")


def _numerics_environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} "
            f"{blas.get('version')}")


@pytest.fixture
def assert_digests():
    """Check digests (a list, or a dict by name) against pinned values; a
    mismatch lists the changed ones and names the numpy and BLAS builds,
    since a pin holds for the numerics of one build."""
    def by_name(digests):
        return digests if isinstance(digests, dict) else dict(enumerate(digests))

    def check(got, want):
        got, want = by_name(got), by_name(want)
        changed = {k: f"{got.get(k)} (pinned {v})" for k, v in want.items()
                   if got.get(k) != v}
        assert got.keys() == want.keys() and not changed, (
            f"digests changed under {_numerics_environment()}: {changed}")
    return check


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


@pytest.fixture(scope="session")
def workspace_table():
    """read(ws, target, which, columns=None): a workspace's feature table
    as select and train get it, the arrays stored under the sha256 that
    prerank's record gives the table's TSV."""
    from cmrec import features, pipeline
    from cmrec.util import read_artifact

    def read(ws, target, which, columns=None):
        tsv = ws.features_path(target, which)
        record = read_artifact(pipeline.PrerankRecord, ws.target_dir(target)
                               / pipeline.PRERANK_RECORD)
        table = features.read_table(tsv, record.outputs[tsv.name],
                                    ws.cache_dir(target), columns)
        assert table is not None, f"no stored copy of {tsv}"
        return table
    return read
