"""Fault injector unit semantics: windowing, matching, determinism."""

import json

import pytest

from repro.errors import EngineError
from repro.resilience import (EXAMPLE_PLANS, KINDS, SITES, FaultInjector,
                              FaultPlan, FaultSpec, InjectedCorruption,
                              InjectedFault)


class TestFaultSpec:
    def test_rejects_unknown_site_and_kind(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="nope")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="store.load", kind="nope")

    @pytest.mark.parametrize("kw", [dict(probability=1.5),
                                    dict(probability=-0.1),
                                    dict(times=-1), dict(after=-1),
                                    dict(delay=-0.5)])
    def test_rejects_bad_windows(self, kw):
        with pytest.raises(ValueError):
            FaultSpec(site="store.load", **kw)

    def test_match_filters_on_context(self):
        spec = FaultSpec(site="shard.query", match=(("shard", 0),))
        assert spec.matches({"shard": 0, "kind": "window"})
        assert not spec.matches({"shard": 1})
        assert not spec.matches({})

    def test_match_names_only_keys_the_site_passes(self):
        # a wave mixes probe kinds, so shard.query passes no ``kind``: a
        # plan matching on one would never fire, and is refused at load
        with pytest.raises(ValueError, match="no context key"):
            FaultPlan.from_dicts([{"site": "shard.query",
                                   "match": {"shard": 0, "kind": "window"}}])
        for site, keys in SITES.items():
            FaultSpec(site=site, match=tuple((k, 0) for k in keys))


class TestFaultInjector:
    def test_inactive_without_specs(self):
        inj = FaultInjector(FaultPlan())
        assert not inj.active
        inj.fire("registry.get")  # no specs: a no-op
        assert inj.snapshot()["fired_total"] == 0

    def test_error_spec_raises_typed_fault(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error"),)))
        with pytest.raises(InjectedFault) as ei:
            inj.fire("registry.get")
        assert isinstance(ei.value, EngineError)
        assert ei.value.reason == "injected_fault"

    def test_corrupt_spec_raises_corruption_subtype(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="store.load", kind="corrupt"),)))
        with pytest.raises(InjectedCorruption) as ei:
            inj.fire("store.load")
        assert ei.value.reason == "injected_corruption"
        assert isinstance(ei.value, InjectedFault)

    def test_after_and_times_window_the_firings(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", after=2, times=2),)))
        fired = 0
        for _ in range(8):
            try:
                inj.fire("registry.get")
            except InjectedFault:
                fired += 1
        assert fired == 2
        snap = inj.snapshot()["specs"][0]
        assert snap["arrivals"] == 8
        assert snap["fired"] == 2

    def test_match_scopes_to_one_shard(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="shard.query", kind="error",
                      match=(("shard", 1),)),)))
        inj.fire("shard.query", shard=0)      # no match, silent
        with pytest.raises(InjectedFault):
            inj.fire("shard.query", shard=1)

    def test_probability_is_deterministic_per_seed(self):
        def run():
            inj = FaultInjector(FaultPlan(specs=(
                FaultSpec(site="executor.job", kind="error",
                          probability=0.5),), seed=3))
            hits = []
            for _ in range(32):
                try:
                    inj.fire("executor.job")
                    hits.append(0)
                except InjectedFault:
                    hits.append(1)
            return hits

        first, second = run(), run()
        assert first == second          # same seed, same firing pattern
        assert 0 < sum(first) < 32      # and the gate actually gates

    def test_observer_sees_every_firing(self):
        seen = []
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="executor.job", kind="latency", delay=0.0),
            FaultSpec(site="executor.job", kind="error", times=1),)),
            observer=lambda site, kind: seen.append((site, kind)))
        with pytest.raises(InjectedFault):
            inj.fire("executor.job")
        inj.fire("executor.job")        # error budget spent; latency stays
        assert seen == [("executor.job", "latency"),
                        ("executor.job", "error"),
                        ("executor.job", "latency")]

    def test_reset_rewinds_counters_and_rng(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="registry.get", kind="error", times=1),)))
        with pytest.raises(InjectedFault):
            inj.fire("registry.get")
        inj.fire("registry.get")        # budget spent
        inj.reset()
        with pytest.raises(InjectedFault):
            inj.fire("registry.get")    # budget restored


class TestFaultPlan:
    def test_from_dicts_and_json_round_trip(self):
        payload = {"seed": 9, "specs": [
            {"site": "shard.query", "kind": "stall", "delay": 0.1,
             "match": {"shard": 2}},
            {"site": "store.load", "kind": "corrupt", "times": 1},
        ]}
        plan = FaultPlan.from_json(json.dumps(payload))
        assert plan.seed == 9
        assert plan.specs[0].match == (("shard", 2),)
        assert plan.specs[1].kind == "corrupt"
        bare = FaultPlan.from_json(json.dumps(payload["specs"]))
        assert bare.seed == 0
        assert len(bare.specs) == 2

    def test_example_plans_are_well_formed(self):
        assert set(EXAMPLE_PLANS) >= {"examples", "stall", "buildfail",
                                      "corrupt", "none"}
        for plan in EXAMPLE_PLANS.values():
            for spec in plan.specs:
                assert spec.site in SITES
                assert spec.kind in KINDS
        assert not EXAMPLE_PLANS["none"].specs
