"""Load-generator report shape, knee detection, and a short live run."""

import json

import numpy as np
import pytest

from repro.engine import SpatialQueryEngine
from repro.geometry import random_segments
from repro.net import ServerThread, run_loadgen
from repro.net.loadgen import DEFAULT_MIX, _find_knee, _make_request

DOMAIN = 512


def stage(offered, achieved, throttle=0.0, shed=0.0):
    return {"offered_qps": offered, "achieved_qps": achieved,
            "throttle_rate": throttle, "shed_rate": shed,
            "p50_ms": 1.0, "p99_ms": 5.0, "error_rate": 0.0}


class TestKneeDetection:
    def test_last_sustained_graceful_stage_wins(self):
        stages = [stage(100, 99.0), stage(200, 198.0),
                  stage(400, 250.0, throttle=0.3)]
        assert _find_knee(stages)["offered_qps"] == 200

    def test_throttled_stage_is_not_a_knee_even_if_fast(self):
        stages = [stage(100, 100.0, throttle=0.05)]
        assert _find_knee(stages) is None

    def test_no_stages_no_knee(self):
        assert _find_knee([]) is None


class TestRequestSynthesis:
    def test_mix_and_fields(self):
        rng = np.random.default_rng(0)
        kinds = list(DEFAULT_MIX)
        probs = list(DEFAULT_MIX.values())
        seen = set()
        for i in range(200):
            req = _make_request(rng, i, "fp", DOMAIN, kinds, probs,
                                deadline_ms=40)
            seen.add(req["kind"])
            assert req["id"] == i
            assert req["deadline_ms"] == 40
            if req["kind"] == "window":
                x0, y0, x1, y1 = req["rect"]
                assert 0 <= x0 <= x1 <= DOMAIN
                assert 0 <= y0 <= y1 <= DOMAIN
            else:
                px, py = req["point"]
                assert 0 <= px <= DOMAIN and 0 <= py <= DOMAIN
        assert seen == set(kinds)   # every kind of the mix gets exercised

    def test_deterministic_for_a_seed(self):
        kinds, probs = list(DEFAULT_MIX), list(DEFAULT_MIX.values())
        a = [_make_request(np.random.default_rng(7), i, "fp", DOMAIN,
                           kinds, probs, None) for i in range(20)]
        b = [_make_request(np.random.default_rng(7), i, "fp", DOMAIN,
                           kinds, probs, None) for i in range(20)]
        assert a == b


@pytest.mark.slow
class TestLiveRun:
    def test_short_ramp_produces_report_and_file(self, tmp_path):
        lines = np.unique(random_segments(300, DOMAIN, 48, seed=2), axis=0)
        out = tmp_path / "report.json"
        with SpatialQueryEngine(workers=2, max_batch=32,
                                max_wait=0.002) as eng:
            eng.register(lines, domain=DOMAIN)
            with ServerThread(eng) as st:
                report = run_loadgen(st.host, st.port, qps_stages=[40.0],
                                     duration=0.5, procs=1, conns=2,
                                     grace=1.5, seed=3, out_path=str(out))
        assert report["benchmark"] == "network_serving_overload_curve"
        assert report["config"]["open_loop"] is True
        (s,) = report["stages"]
        assert s["sent"] >= 10
        assert s["ok"] + s["partial"] >= 1
        assert s["p50_ms"] >= 0.0
        # a 40 qps trickle on localhost must be comfortably sustained
        assert report["knee"] is not None
        assert "knee at 40.0 qps" in report["notes"]
        assert json.loads(out.read_text()) == report

    def test_loadgen_refuses_empty_server(self):
        with SpatialQueryEngine(workers=2) as eng:
            with ServerThread(eng) as st:
                with pytest.raises(RuntimeError, match="no registered"):
                    run_loadgen(st.host, st.port, qps_stages=[10.0],
                                duration=0.2, procs=1, conns=1, grace=0.5)
