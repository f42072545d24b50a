"""CLI tests (``python -m repro``)."""

import argparse
import dataclasses
import re

import pytest

from repro import cli
from repro.cli import _SERVE_ENGINE_FIELDS, _parser, _serve_engine, main
from repro.engine import EngineConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBuild:
    def test_default_pmr_build(self, capsys):
        code, out = run(capsys, "build", "--n", "200", "--domain", "256")
        assert code == 0
        assert "pmr build" in out
        assert "q-edges" in out
        assert "scan" in out

    def test_pm1_build(self, capsys):
        code, out = run(capsys, "build", "--structure", "pm1", "--n", "60",
                        "--domain", "64")
        assert code == 0
        assert "pm1 build" in out

    def test_rtree_build_on_paper_map(self, capsys):
        code, out = run(capsys, "build", "--structure", "rtree", "--map", "paper",
                        "--capacity", "3", "--min-fill", "1")
        assert code == 0
        assert "coverage" in out

    def test_kdtree_build(self, capsys):
        code, out = run(capsys, "build", "--structure", "kdtree", "--n", "200",
                        "--domain", "256", "--capacity", "4")
        assert code == 0
        assert "height" in out

    def test_render_flag(self, capsys):
        code, out = run(capsys, "build", "--map", "paper", "--capacity", "2",
                        "--render")
        assert code == 0
        assert "Quadtree domain=8" in out

    def test_cost_model_selection(self, capsys):
        code, out = run(capsys, "build", "--n", "100", "--domain", "128",
                        "--cost-model", "hypercube", "--processors", "64")
        assert code == 0
        assert "hypercube" in out

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "build", "--n", "150", "--domain", "256", "--seed", "3")
        _, b = run(capsys, "build", "--n", "150", "--domain", "256", "--seed", "3")
        assert a == b

    def test_seed_changes_output(self, capsys):
        _, a = run(capsys, "build", "--n", "150", "--domain", "256", "--seed", "3")
        _, b = run(capsys, "build", "--n", "150", "--domain", "256", "--seed", "4")
        assert a != b


class TestFigures:
    def test_figures_replay(self, capsys):
        code, out = run(capsys, "figures")
        assert code == 0
        assert "Figure 8" in out
        assert "Figures 30-33" in out
        assert "Figures 39-44" in out
        # the Figure 8 worked row must appear
        assert "3   4   6" in out.replace("  ", "   ") or "3  4  6" in out


class TestJoin:
    def test_verified_join(self, capsys):
        code, out = run(capsys, "join", "--map", "uniform", "--n", "150",
                        "--domain", "256", "--verify")
        assert code == 0
        assert "verified" in out and "yes" in out

    def test_rtree_join(self, capsys):
        code, out = run(capsys, "join", "--structure", "rtree", "--n", "100",
                        "--domain", "256", "--verify")
        assert code == 0
        assert "rtree" in out


class TestServe:
    def test_serve_reports_stats(self, capsys):
        code, out = run(capsys, "serve", "--demo", "--n", "200", "--domain", "256",
                        "--probes", "120", "--clients", "2", "--workers", "2")
        assert code == 0
        assert "repro.engine serving stats" in out
        assert "throughput (q/s)" in out
        assert "errors" in out
        # every probe must be answered
        lines = [ln for ln in out.splitlines() if "errors" in ln]
        assert lines and lines[0].strip().endswith("0")

    def test_serve_rtree(self, capsys):
        code, out = run(capsys, "serve", "--demo", "--structure", "rtree", "--n", "150",
                        "--domain", "256", "--probes", "60", "--clients", "1")
        assert code == 0
        assert "rtree" in out


class TestServeEngineFlags:
    """serve's engine-bound flags take their defaults from EngineConfig
    and reach the engine as the field of their name."""

    def test_bare_serve_is_engine_defaults_but_for_max_batch(self):
        args = _parser().parse_args(["serve", "--listen", ":0"])
        with _serve_engine(args) as eng:
            assert eng.config == EngineConfig(max_batch=256)

    def test_every_engine_flag_reaches_its_field(self, tmp_path):
        want = {"structure": "rtree", "capacity": 5, "workers": 2,
                "max_batch": 17, "max_wait": 0.01,
                "queue_depth": 9, "shards": 3, "ordering": "hilbert",
                "cache_dir": str(tmp_path / "c"), "disk_budget_bytes": 12345,
                "versions_retained": 3,
                "journal_dir": str(tmp_path / "j"), "journal_fsync": "none",
                "checkpoint_every": 4}
        assert set(want) == set(_SERVE_ENGINE_FIELDS)
        flag = {"journal_fsync": "--fsync-policy"}
        argv = ["serve", "--listen", ":0"]
        for name, value in want.items():
            argv += [flag.get(name, "--" + name.replace("_", "-")), str(value)]
        with _serve_engine(_parser().parse_args(argv)) as eng:
            got = dataclasses.asdict(eng.config)
        defaults = dataclasses.asdict(EngineConfig())
        # every flag moved its field off the default, and nothing else moved
        assert {f: v for f, v in got.items() if v != defaults[f]} == want


class TestStore:
    def prefetch(self, capsys, cache_dir, structure="pmr", **extra):
        argv = ["store", "prefetch", "--cache-dir", str(cache_dir),
                "--map", "uniform", "--n", "150", "--domain", "256",
                "--structure", structure]
        for k, v in extra.items():
            argv += [f"--{k}", str(v)]
        return run(capsys, *argv)

    def test_prefetch_then_ls(self, capsys, tmp_path):
        code, out = self.prefetch(capsys, tmp_path)
        assert code == 0
        assert "store prefetch" in out and "fingerprint" in out
        code, out = run(capsys, "store", "ls", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "1 entries" in out
        assert "pmr" in out and "0 quarantined" in out

    def test_prefetch_seeds_engine_warm_start(self, capsys, tmp_path):
        self.prefetch(capsys, tmp_path)
        code, out = run(capsys, "serve", "--demo", "--n", "150", "--domain", "256",
                        "--probes", "60", "--clients", "1",
                        "--cache-dir", str(tmp_path))
        assert code == 0
        lines = [ln for ln in out.splitlines() if "disk hits" in ln]
        assert lines and lines[0].strip().endswith("1")

    def test_gc_to_tiny_budget_empties_the_store(self, capsys, tmp_path):
        self.prefetch(capsys, tmp_path)
        self.prefetch(capsys, tmp_path, structure="rtree")
        code, out = run(capsys, "store", "gc", "--cache-dir", str(tmp_path),
                        "--budget-bytes", "1")
        assert code == 0
        assert "removed entries" in out
        _, out = run(capsys, "store", "ls", "--cache-dir", str(tmp_path))
        assert "0 entries" in out

    def test_clear(self, capsys, tmp_path):
        self.prefetch(capsys, tmp_path)
        code, out = run(capsys, "store", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "cleared 1 entries" in out

    def test_sharded_prefetch(self, capsys, tmp_path):
        code, out = self.prefetch(capsys, tmp_path, shards=2,
                                  ordering="hilbert")
        assert code == 0
        _, out = run(capsys, "store", "ls", "--cache-dir", str(tmp_path))
        assert "1 entries" in out

    def test_prefetch_writes_the_key_a_same_config_engine_probes(
            self, capsys, tmp_path):
        """One ``index_params`` behind both: the seeded entry is the
        one the engine disk-hits, and serving adds no second entry."""
        from repro.store import IndexStore

        code, _ = self.prefetch(capsys, tmp_path, structure="rtree", shards=4)
        assert code == 0
        (seeded,) = IndexStore(tmp_path).entries()
        code, out = run(capsys, "serve", "--demo", "--structure", "rtree",
                        "--shards", "4", "--n", "150", "--domain", "256",
                        "--probes", "60", "--clients", "1",
                        "--cache-dir", str(tmp_path))
        assert code == 0
        lines = [ln for ln in out.splitlines() if "disk hits" in ln]
        assert lines and lines[0].strip().endswith("1")
        assert [e.key_id for e in IndexStore(tmp_path).entries()] \
            == [seeded.key_id]

    def test_store_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["store"])


class TestArgErrors:
    def test_unknown_structure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["build", "--structure", "btree"])

    def test_missing_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestDocstring:
    def test_docstring_lists_every_subcommand(self):
        sub = next(a for a in _parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        listed = re.findall(r"^``(\w+)``$", cli.__doc__, re.MULTILINE)
        assert set(listed) == set(sub.choices)
