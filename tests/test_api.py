"""Tests for the unified public facade (repro.api)."""

import json
import shutil
import warnings
from pathlib import Path

import pytest

import repro
from repro import api
from repro.errors import ConfigurationError, ServiceError
from repro.obs import spans_from_jsonl
from repro.service import ServiceClient, build_server, serve
from repro.service.specs import sweep_plan
from repro.simulation import (
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
    run_sweep,
)
from repro.simulation.experiment import extract_metrics, replicate
from repro.store import RunCache, RunIndex

from test_service import quick_factory

SEEDS = [0, 1]

#: A store written by the earlier, replay-on-open index: a compacted
#: snapshot, then hit and store lines (hackathon/traditional, seeds 0-2).
STORE_V1 = Path(__file__).resolve().parent / "data" / "store_v1"


@pytest.fixture
def service(tmp_path):
    """A served scheduler over the fast fake runner; yields its URL."""
    cache = RunCache(tmp_path / "store", runner_factory=quick_factory)
    server = build_server(port=0, cache=cache, queue_depth=8,
                          retry_backoff_s=0.01)
    serve(server)
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# exposure


class TestExposure:
    def test_facade_is_importable_off_the_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__

    def test_public_names(self):
        assert set(api.__all__) == {
            "CATALOG", "replicate", "compare", "sweep", "scenarios",
            "submit_job",
        }


# ---------------------------------------------------------------------------
# equivalence: the facade returns bit-identical results


class TestEquivalence:
    def test_compare_matches_low_level(self):
        via_api = api.compare("hackathon", "traditional", seeds=SEEDS)
        direct = compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=SEEDS
        )
        assert via_api.metrics_a == direct.metrics_a
        assert via_api.metrics_b == direct.metrics_b
        assert via_api.name_a == direct.name_a
        assert via_api.seeds == direct.seeds

    def test_compare_cached_matches_live(self, tmp_path):
        live = api.compare("hackathon", "traditional", seeds=SEEDS)
        cold = api.compare("hackathon", "traditional", seeds=SEEDS,
                           cache=True, cache_dir=tmp_path / "store")
        warm = api.compare("hackathon", "traditional", seeds=SEEDS,
                           cache=True, cache_dir=tmp_path / "store")
        assert cold.metrics_a == live.metrics_a
        assert warm.metrics_a == live.metrics_a
        stats = RunCache(tmp_path / "store").stats()
        assert stats.misses_recorded == 4   # 2 scenarios x 2 seeds, once
        assert stats.hits_recorded == 4     # the warm pass
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_replicate_matches_low_level(self):
        via_api = api.replicate("hackathon", seeds=SEEDS)
        histories = replicate(megamart_timeline(), SEEDS)
        assert via_api == [extract_metrics(h) for h in histories]

    def test_replicate_seed_count_expands_to_range(self):
        assert api.replicate("hackathon", seeds=2) == api.replicate(
            "hackathon", seeds=[0, 1]
        )

    def test_sweep_matches_low_level(self):
        values, factory, label_fn = sweep_plan("cadence", [2.0, 6.0])
        via_api = api.sweep("cadence", values=[2.0, 6.0], seeds=[0])
        direct = run_sweep("cadence", values, factory, seeds=[0],
                           label_fn=label_fn)
        assert via_api.parameter_name == direct.parameter_name
        assert via_api.labels() == direct.labels()
        assert [p.metrics for p in via_api.points] == [
            p.metrics for p in direct.points
        ]

    def test_inline_scenario_spec(self):
        spec = {
            "name": "mini",
            "horizon_months": 4.0,
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
            ],
        }
        metrics = api.replicate(spec, seeds=[0])
        assert len(metrics) == 1 and metrics[0]

    def test_bad_specs_raise(self):
        with pytest.raises(ConfigurationError):
            api.compare("no-such-timeline", "traditional", seeds=1)
        with pytest.raises(ConfigurationError):
            api.replicate("hackathon", seeds=0)
        with pytest.raises(ConfigurationError):
            api.sweep("no-such-parameter", seeds=1)


# ---------------------------------------------------------------------------
# the facade's run store


class TestFacadeStore:
    """``cache=True`` keeps one open store per directory per process."""

    def test_store_written_by_earlier_index_is_all_hits(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(STORE_V1, store)
        before = RunCache(store).stats()
        served = api.compare("hackathon", "traditional", seeds=3,
                             cache=True, cache_dir=store)
        after = RunCache(store).stats()
        assert after.misses_recorded == before.misses_recorded == 6
        assert after.hits_recorded - before.hits_recorded == 6
        fresh = api.compare("hackathon", "traditional", seeds=3)
        assert served.metrics_a == fresh.metrics_a
        assert served.metrics_b == fresh.metrics_b

    def test_one_cache_per_directory(self, tmp_path, monkeypatch):
        opened = []

        class Spy(RunCache):
            def __init__(self, root, *args, **kwargs):
                opened.append(root)
                super().__init__(root, *args, **kwargs)

        monkeypatch.setattr(api, "RunCache", Spy)
        store = tmp_path / "store"
        shutil.copytree(STORE_V1, store)
        for _ in range(3):
            api.compare("hackathon", "traditional", seeds=2, cache=True,
                        cache_dir=store)
        api.replicate("hackathon", seeds=[2], cache=True,
                      cache_dir=str(store) + "/.")
        assert opened == [str(store)]

    def test_nth_warm_call_applies_only_its_own_records(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        api.compare("hackathon", "traditional", seeds=5, cache=True,
                    cache_dir=store)
        applied = []
        original = RunIndex._apply

        def spy(self, record):
            applied.append(record["event"])
            return original(self, record)

        monkeypatch.setattr(RunIndex, "_apply", spy)
        for _ in range(6):
            applied.clear()
            api.compare("hackathon", "traditional", seeds=5, cache=True,
                        cache_dir=store)
            assert applied == ["hit"] * 10

    def test_removed_store_directory_is_recreated(self, tmp_path):
        store = tmp_path / "store"
        first = api.compare("hackathon", "traditional", seeds=1,
                            cache=True, cache_dir=store)
        shutil.rmtree(store)
        again = api.compare("hackathon", "traditional", seeds=1,
                            cache=True, cache_dir=store)
        assert again.metrics_a == first.metrics_a
        stats = RunCache(store).stats()
        assert (stats.runs, stats.misses_recorded, stats.hits_recorded) \
            == (2, 2, 0)
        api.compare("hackathon", "traditional", seeds=1, cache=True,
                    cache_dir=store)
        assert RunCache(store).stats().hits_recorded == 2


# ---------------------------------------------------------------------------
# tracing through the facade


class TestFacadeTracing:
    def test_trace_writes_wellformed_jsonl(self, tmp_path):
        path = tmp_path / "compare.jsonl"
        api.compare("hackathon", "traditional", seeds=SEEDS, trace=path)
        lines = path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"id", "parent", "depth", "name", "start_ms",
                "duration_ms", "attrs"} <= set(records[0])
        roots = spans_from_jsonl(lines)
        assert [r.name for r in roots] == ["api.compare"]
        assert roots[0].attrs["seeds"] == len(SEEDS)

    def test_trace_off_leaves_tracer_disabled(self, tmp_path):
        from repro.obs import get_tracer

        api.replicate("hackathon", seeds=[0],
                      trace=tmp_path / "r.jsonl")
        assert not get_tracer().enabled
        api.replicate("hackathon", seeds=[0])
        assert not get_tracer().enabled

    def test_cached_sweep_trace_nests_store_fetch(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        api.sweep("cadence", values=[2.0], seeds=[0], cache=True,
                  cache_dir=tmp_path / "store", trace=path)
        roots = spans_from_jsonl(path.read_text().splitlines())
        assert [r.name for r in roots] == ["api.sweep"]
        names = [s.name for s, _ in roots[0].walk()]
        assert "store.fetch" in names


# ---------------------------------------------------------------------------
# deprecated keyword spellings


class TestDeprecatedKwargs:
    def test_compare_scenarios_legacy_names_warn(self):
        with pytest.warns(DeprecationWarning, match="scenario_a"):
            result = compare_scenarios(
                scenario_a=megamart_timeline(),
                scenario_b=baseline_timeline(),
                seeds=[0],
            )
        assert result.name_a == megamart_timeline().name

    def test_both_spellings_is_an_error(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError, match="both"):
                compare_scenarios(
                    megamart_timeline(),
                    scenario_a=megamart_timeline(),
                    seeds=[0],
                )

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="scenario_c"):
            compare_scenarios(
                megamart_timeline(), baseline_timeline(), seeds=[0],
                scenario_c=baseline_timeline(),
            )

    def test_run_sweep_legacy_names_warn(self):
        values, factory, label_fn = sweep_plan("cadence", [2.0])
        with pytest.warns(DeprecationWarning, match="parameter_name"):
            result = run_sweep(
                parameter_name="cadence",
                parameter_values=values,
                scenario_factory=factory,
                seeds=[0],
            )
        assert result.parameter_name == "cadence"

    def test_runcache_methods_accept_legacy_names(self, tmp_path):
        cache = RunCache(tmp_path / "store")
        with pytest.warns(DeprecationWarning):
            result = cache.compare_scenarios(
                scenario_a=megamart_timeline(),
                scenario_b=baseline_timeline(),
                seeds=[0],
            )
        assert result.name_a == megamart_timeline().name
        values, factory, label_fn = sweep_plan("cadence", [2.0])
        with pytest.warns(DeprecationWarning):
            sweep_result = cache.run_sweep(
                parameter_name="cadence",
                parameter_values=values,
                scenario_factory=factory,
                seeds=[0],
            )
        assert sweep_result.parameter_name == "cadence"

    def test_new_spellings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compare_scenarios(
                a=megamart_timeline(), b=baseline_timeline(), seeds=[0]
            )


# ---------------------------------------------------------------------------
# submit_job against a live service


class TestSubmitJob:
    def test_submit_and_wait_returns_result_payload(self, service):
        payload = api.submit_job(
            "replicate", {"seeds": [3, 4]}, url=service
        )
        assert payload["kind"] == "replicate"
        assert payload["seeds"] == [3, 4]
        assert [m["kpi"] for m in payload["metrics"]] == [3.0, 4.0]

    def test_submit_without_wait_returns_job_snapshot(self, service):
        job = api.submit_job(
            "replicate", {"seeds": [7]}, url=service, wait=False
        )
        assert job["state"] in ("queued", "running", "done")
        client = ServiceClient(service)
        client.wait(job["id"], timeout=15)
        assert client.result(job["id"])["metrics"] == [{"kpi": 7.0}]

    def test_bad_kind_raises(self, service):
        with pytest.raises(ConfigurationError):
            api.submit_job("", url=service)
        with pytest.raises(ServiceError):
            api.submit_job("explode", url=service)
