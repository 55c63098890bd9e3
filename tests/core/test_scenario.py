"""The declarative scenario layer: registry, planning, execution, resume.

Everything here runs on a cheap toy scenario so the tier-1 suite stays
fast; the migrated physics workloads are exercised end-to-end by the
tier-2 invariance suite (``tests/verify/test_scenario_invariance.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import (
    Scenario,
    ScenarioRegistry,
    available_scenarios,
    get_scenario,
    run_scenario,
)
from repro.testing.faults import inject_faults
from repro.testing.seeding import derive_seed, spawn_rngs

pytestmark = pytest.mark.tier1

#: What one toy job returns: a draw from the job's private stream plus
#: enough provenance to check ordering and payload routing.
def _toy_kernel(payload, rng):
    return {"payload": payload, "draw": float(rng.random())}


class ToyScenario(Scenario):
    name = "test.toy"
    description = "n independent draws (test double)"
    kernel = staticmethod(_toy_kernel)

    def plan(self, config):
        return list(range(config))

    def reduce(self, config, results):
        return [r.value for r in results]

    def fingerprint(self, config):
        return {"n": config}


class TestRegistry:
    def test_register_class_and_get(self):
        registry = ScenarioRegistry()
        registry.register(ToyScenario)
        assert "test.toy" in registry
        assert isinstance(registry.get("test.toy"), ToyScenario)
        assert registry.names() == ("test.toy",)

    def test_register_instance(self):
        registry = ScenarioRegistry()
        instance = ToyScenario()
        registry.register(instance)
        assert registry.get("test.toy") is instance

    def test_register_is_a_decorator(self):
        registry = ScenarioRegistry()

        @registry.register
        class Decorated(ToyScenario):
            name = "test.decorated"

        assert Decorated is not None  # decorator returns its argument
        assert "test.decorated" in registry

    def test_later_registration_overrides(self):
        registry = ScenarioRegistry()
        registry.register(ToyScenario)

        class Shadow(ToyScenario):
            description = "instrumented double"

        registry.register(Shadow)
        assert registry.get("test.toy").description == \
            "instrumented double"

    def test_rejects_non_scenarios(self):
        registry = ScenarioRegistry()
        with pytest.raises(TypeError, match="Scenario subclass"):
            registry.register(object())

    def test_rejects_unnamed_scenarios(self):
        registry = ScenarioRegistry()

        class Nameless(Scenario):
            pass

        with pytest.raises(ValueError, match="registry name"):
            registry.register(Nameless)

    def test_unknown_name_lists_available(self):
        registry = ScenarioRegistry()
        registry.register(ToyScenario)
        with pytest.raises(ValueError, match="test.toy"):
            registry.get("no.such")

    def test_builtin_scenarios_are_discoverable(self):
        names = available_scenarios()
        for expected in ("sram.array", "sram.verify", "dram.retention",
                         "reliability.nbti", "oscillators.ring",
                         "oscillators.pll"):
            assert expected in names

    def test_get_scenario_accepts_name_class_and_instance(self):
        instance = ToyScenario()
        assert get_scenario(instance) is instance
        assert isinstance(get_scenario(ToyScenario), ToyScenario)
        assert get_scenario("oscillators.pll").name == "oscillators.pll"


class TestRunScenario:
    def test_results_in_job_order_with_payloads(self):
        run = run_scenario(ToyScenario, 5, seed=3)
        assert run.n_jobs == 5
        assert [r.key for r in run.results] == list(range(5))
        assert [v["payload"] for v in run.value] == list(range(5))
        assert run.backend == "serial"
        assert run.complete
        assert run.counts["ok"] == 5

    def test_per_job_rng_matches_spawned_streams(self):
        """Job *k* draws from ``spawn_rngs(...)[k]`` — the contract that
        makes every scenario backend-invariant by construction."""
        run = run_scenario(ToyScenario, 4, seed=11)
        root = derive_seed(11, "scenario", "test.toy")
        expected = [rng.random() for rng in spawn_rngs(root, 4)]
        assert [v["draw"] for v in run.value] == expected

    def test_seeds_are_scenario_scoped(self):
        class Renamed(ToyScenario):
            name = "test.toy2"

        draws = run_scenario(ToyScenario, 3, seed=0).value
        other = run_scenario(Renamed, 3, seed=0).value
        assert [v["draw"] for v in draws] != [v["draw"] for v in other]

    def test_requires_a_kernel(self):
        class NoKernel(ToyScenario):
            kernel = None

        with pytest.raises(ValueError, match="no kernel"):
            run_scenario(NoKernel, 2)

    def test_keys_must_match_plan(self):
        class BadKeys(ToyScenario):
            def keys(self, config, plan):
                return [0]

        with pytest.raises(ValueError, match="one-to-one"):
            run_scenario(BadKeys, 3)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_scenario(ToyScenario, 2, resume=True)

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_scenario(ToyScenario, 2, checkpoint_every=0)

    def test_on_result_sees_every_terminal_result(self):
        seen = []
        run_scenario(ToyScenario, 4, on_result=lambda r: seen.append(r.key))
        assert sorted(seen) == list(range(4))

    def test_fault_site_fails_jobs_not_the_run(self):
        with inject_faults(scenario_rate=1.0, seed=0):
            run = run_scenario(ToyScenario, 3, seed=1)
        assert not run.complete
        assert run.counts["failed"] == 3
        assert all(r.error_type == "SimulationError" for r in run.results)
        assert all("injected scenario job failure" in r.error
                   for r in run.results)
        # The reducer still runs and sees the failures.
        assert run.value == [None, None, None]

    def test_fault_site_is_keyed_by_scenario_name(self):
        """A partial rate hits a deterministic job subset, and renaming
        the scenario reshuffles it — decisions hash the site key."""
        with inject_faults(scenario_rate=0.5, seed=4):
            first = run_scenario(ToyScenario, 8, seed=1)
            again = run_scenario(ToyScenario, 8, seed=1)
        statuses = [r.status for r in first.results]
        assert statuses == [r.status for r in again.results]
        assert 0 < first.counts["failed"] < 8

    def test_telemetry_document(self):
        with inject_faults(scenario_rate=1.0, seed=0):
            run = run_scenario(ToyScenario, 2, seed=5)
        doc = run.telemetry
        assert doc.scenario == "test.toy"
        assert doc.n_cells == 2
        assert doc.backend == "serial"
        assert not doc.complete
        assert len(doc.errors) == 2
        assert doc.counts["failed"] == 2
        assert set(run.timings) == {"plan", "execute", "reduce", "total"}
        # Round-trips through the telemetry schema.
        from repro.obs.telemetry import RunTelemetry

        assert RunTelemetry.from_dict(doc.to_dict()).scenario == "test.toy"


class TestCheckpointResume:
    def test_full_run_then_resume_skips_everything(self, tmp_path):
        calls = []
        first = run_scenario(ToyScenario, 5, seed=7,
                             checkpoint_dir=tmp_path, checkpoint_every=2,
                             on_result=lambda r: calls.append(r.key))
        assert len(calls) == 5

        calls.clear()
        second = run_scenario(ToyScenario, 5, seed=7,
                              checkpoint_dir=tmp_path, resume=True)
        assert calls == []  # nothing re-executed
        assert sorted(second.resumed) == list(range(5))
        assert second.value == first.value

    def test_interrupted_run_resumes_only_pending_jobs(self, tmp_path):
        class Boom(RuntimeError):
            pass

        def bomb(result):
            if result.key == 1:
                raise Boom

        with pytest.raises(Boom):
            run_scenario(ToyScenario, 4, seed=9, checkpoint_dir=tmp_path,
                         checkpoint_every=1, on_result=bomb)

        executed = []
        resumed = run_scenario(ToyScenario, 4, seed=9,
                               checkpoint_dir=tmp_path, resume=True,
                               on_result=lambda r: executed.append(r.key))
        assert sorted(resumed.resumed) == [0, 1]
        assert executed == [2, 3]
        # The stitched run is identical to an uninterrupted one.
        clean = run_scenario(ToyScenario, 4, seed=9)
        assert resumed.value == clean.value

    def test_fingerprint_mismatch_rejects_the_checkpoint(self, tmp_path):
        run_scenario(ToyScenario, 3, seed=1, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="different run"):
            run_scenario(ToyScenario, 3, seed=2, checkpoint_dir=tmp_path,
                         resume=True)

    def test_values_round_trip_through_encode_decode(self, tmp_path):
        class Coded(ToyScenario):
            name = "test.coded"

            def encode_value(self, value):
                return [value["payload"], value["draw"]]

            def decode_value(self, encoded):
                return {"payload": encoded[0], "draw": encoded[1]}

        first = run_scenario(Coded, 3, seed=2, checkpoint_dir=tmp_path)
        second = run_scenario(Coded, 3, seed=2, checkpoint_dir=tmp_path,
                              resume=True)
        assert second.value == first.value

    def test_failed_records_restore_as_terminal(self, tmp_path):
        """Failures are terminal outcomes, not pending work: a resume
        restores them verbatim (the ensemble-runner convention) —
        retries happen *within* a run, via RetryPolicy."""
        with inject_faults(scenario_rate=1.0, seed=0):
            broken = run_scenario(ToyScenario, 3, seed=4,
                                  checkpoint_dir=tmp_path,
                                  checkpoint_every=1)
        assert broken.counts["failed"] == 3
        executed = []
        resumed = run_scenario(ToyScenario, 3, seed=4,
                               checkpoint_dir=tmp_path, resume=True,
                               on_result=lambda r: executed.append(r.key))
        assert executed == []
        assert sorted(resumed.resumed) == [0, 1, 2]
        assert resumed.counts["failed"] == 3
        assert all(r.error_type == "SimulationError"
                   for r in resumed.results)


class TestObservability:
    def test_metrics_and_span_when_obs_enabled(self, tmp_path):
        import json

        from repro import obs

        trace_path = tmp_path / "trace.json"
        with obs.enable_tracing(trace_path=trace_path):
            run = run_scenario(ToyScenario, 3, seed=1)
        assert run.metrics_snapshot["counters"]["scenario.jobs"] == 3.0
        document = json.loads(trace_path.read_text())
        assert any(event.get("name") == "scenario.run"
                   for event in document["traceEvents"])


def _np_kernel(payload, rng):
    return float(np.asarray(payload).sum() + rng.random())


class TestBackendRouting:
    def test_workers_defaults_to_shared_backend(self):
        class NpToy(ToyScenario):
            name = "test.nptoy"
            kernel = staticmethod(_np_kernel)

        serial = run_scenario(NpToy, 3, seed=6, backend="serial")
        auto = run_scenario(NpToy, 3, seed=6, workers=2)
        assert auto.backend == "shared"
        assert auto.value == serial.value
