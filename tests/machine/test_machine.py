"""Cost-model and accounting tests (paper Section 3's model comparison)."""

import pytest

from repro.machine import (
    COST_MODELS,
    CostModel,
    Machine,
    get_machine,
    reset_machine,
    use_machine,
)


class TestCostModels:
    def test_scan_model_unit_costs(self):
        m = Machine(cost_model="scan_model", processors=32)
        m.record("scan", 1_000_000)
        m.record("elementwise", 1_000_000)
        m.record("permute", 1_000_000)
        assert m.steps == 3.0

    def test_scan_model_sort_is_log_n(self):
        m = Machine(cost_model="scan_model")
        m.record("sort", 1024)
        assert m.steps == 10.0

    def test_hypercube_scan_costs_log_p(self):
        m = Machine(cost_model="hypercube", processors=32)
        m.record("scan", 10)
        assert m.steps == 5.0  # log2(32)

    def test_hypercube_elementwise_costs_n_over_p(self):
        m = Machine(cost_model="hypercube", processors=32)
        m.record("elementwise", 320)
        assert m.steps == 10.0

    def test_pram_emulation_pays_log_penalty(self):
        m = Machine(cost_model="pram_emulation", processors=64)
        m.record("elementwise", 100)
        assert m.steps == 6.0

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="unknown cost model"):
            Machine(cost_model="quantum")

    def test_custom_model(self):
        cm = CostModel("flat", *([lambda n, p: 2.0] * 4))
        m = Machine(cost_model=cm)
        m.record("scan", 5)
        assert m.steps == 2.0

    def test_constant_costs_need_no_call(self):
        cm = CostModel("mixed", scan=3.0, elementwise=0.5, permute=2,
                       sort=lambda n, p: float(n))
        assert cm.cost("scan", 10**9, 1) == 3.0
        m = Machine(cost_model=cm)
        for primitive in ("scan", "elementwise", "permute", "sort"):
            m.record(primitive, 8)
        assert m.steps == 13.5

    def test_unknown_primitive_rejected(self):
        with pytest.raises(KeyError, match="no primitive"):
            Machine().record("teleport", 4)

    def test_all_registered_models_instantiate(self):
        for name in COST_MODELS:
            Machine(cost_model=name).record("scan", 8)

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            Machine(processors=0)


class TestAccounting:
    def test_counts_accumulate(self):
        m = Machine()
        m.record("scan", 4)
        m.record("scan", 8)
        m.record("permute", 8)
        assert m.counts == {"scan": 2, "permute": 1}
        assert m.total_primitives == 3
        assert m.max_vector_length == 8

    def test_phases_attribute_steps(self):
        m = Machine()
        with m.phase("build"):
            m.record("scan", 1)
            m.record("scan", 1)
        m.record("scan", 1)
        assert m.phase_steps == {"build": 2.0}
        assert m.steps == 3.0

    def test_nested_phases_restore(self):
        m = Machine()
        with m.phase("outer"):
            with m.phase("inner"):
                m.record("scan", 1)
            m.record("scan", 1)
        assert m.phase_steps == {"inner": 1.0, "outer": 1.0}

    def test_a_record_can_name_its_own_phase(self):
        m = Machine(trace=True)
        with m.phase("outer"):
            m.record("scan", 3, phase="visit")
            m.record("scan", 1)
        assert m.phase_steps == {"visit": 1.0, "outer": 1.0}
        assert m.events == [("visit", "scan", 3), ("outer", "scan", 1)]

    def test_snapshot_is_flat(self):
        m = Machine()
        m.record("scan", 2)
        snap = m.snapshot()
        assert snap["steps"] == 1.0
        assert snap["scan"] == 1.0
        assert snap["primitives"] == 1.0

    def test_reset(self):
        m = Machine()
        m.record("scan", 2)
        m.reset()
        assert m.steps == 0.0
        assert m.counts == {}


class TestDefaultMachine:
    def test_two_threads_account_in_isolation(self):
        """Concurrent use_machine scopes must not corrupt each other."""
        import threading

        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def worker(name, primitive, reps):
            try:
                with use_machine(Machine()) as m:
                    barrier.wait(timeout=10)
                    for _ in range(reps):
                        assert get_machine() is m
                        get_machine().record(primitive, 8)
                    results[name] = (m.counts.copy(), m.steps)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        t1 = threading.Thread(target=worker, args=("a", "scan", 500))
        t2 = threading.Thread(target=worker, args=("b", "permute", 300))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert not errors
        assert results["a"] == ({"scan": 500}, 500.0)
        assert results["b"] == ({"permute": 300}, 300.0)

    def test_thread_without_override_sees_fallback(self):
        import threading

        seen = {}
        inner = Machine()
        with use_machine(inner):
            t = threading.Thread(
                target=lambda: seen.setdefault("m", get_machine()))
            t.start()
            t.join()
        # a fresh thread never installed a machine: it reports to the
        # process-wide fallback, not this thread's override
        assert seen["m"] is not inner

    def test_use_machine_swaps_and_restores(self):
        outer = get_machine()
        inner = Machine()
        with use_machine(inner) as m:
            assert get_machine() is inner
            assert m is inner
        assert get_machine() is outer

    def test_reset_machine_clears_default(self):
        get_machine().record("scan", 1)
        reset_machine()
        assert get_machine().steps == 0.0
