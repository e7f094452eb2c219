"""Tests for the experiment harness (config, runner, figures, CLI)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.cli import build_parser, main
from repro.experiments.config import (
    FULL_PROFILE,
    PAPER_PARAMETER_GRID,
    QUICK_PROFILE,
    ExperimentProfile,
    get_profile,
)
from repro.experiments.runner import (
    prepare_instance,
    run_cell,
    run_methods,
    sample_seconds,
)
from repro.runtime import Runtime

#: A deliberately tiny profile so harness tests stay fast.
TINY_PROFILE = ExperimentProfile(
    name="tiny",
    datasets=("lastfm",),
    dataset_scale={"lastfm": 0.08},
    theta=400,
    k_grid=(2, 3),
    default_k=3,
    l_grid=(1, 2),
    default_l=2,
    epsilon_grid=(0.3, 0.7),
    max_nodes=20,
    eval_theta=800,
)


class TestConfig:
    def test_paper_grid_matches_table4(self):
        assert PAPER_PARAMETER_GRID["k"] == tuple(range(10, 101, 10))
        assert PAPER_PARAMETER_GRID["l"] == (1, 2, 3, 4, 5)
        assert PAPER_PARAMETER_GRID["beta_over_alpha"] == (0.3, 0.5, 0.7)
        assert len(PAPER_PARAMETER_GRID["epsilon"]) == 9

    def test_get_profile(self):
        assert get_profile("quick") is QUICK_PROFILE
        assert get_profile("full") is FULL_PROFILE
        with pytest.raises(ExperimentError):
            get_profile("huge")

    def test_with_overrides(self):
        p = QUICK_PROFILE.with_overrides(theta=123)
        assert p.theta == 123
        assert QUICK_PROFILE.theta != 123  # original untouched

    def test_theta_for_multiplier(self):
        opt, ev = QUICK_PROFILE.theta_for("tweet")
        assert opt > QUICK_PROFILE.theta
        assert ev > opt

    def test_theta_for_default(self):
        opt, ev = TINY_PROFILE.theta_for("lastfm")
        assert opt == 400 and ev == 800


class TestRunner:
    @pytest.fixture(scope="class")
    def session(self):
        return prepare_instance(
            "lastfm", TINY_PROFILE, k=3, num_pieces=2, beta_over_alpha=0.5
        )

    def test_prepare_instance_shapes(self, session):
        assert session.problem.k == 3
        assert session.mrr.theta == 400
        assert session.mrr_eval.theta == 800
        assert sample_seconds(session) > 0

    @pytest.mark.parametrize("method", ["IM", "TIM", "BAB", "BAB-P"])
    def test_run_cell_every_method(self, session, method):
        cell = run_cell(session, method, max_nodes=10)
        assert cell.method == method
        assert cell.utility >= 0.0
        assert cell.elapsed_seconds >= 0.0
        assert cell.k == 3

    def test_unknown_method_rejected(self, session):
        with pytest.raises(ExperimentError):
            run_cell(session, "MAGIC")

    def test_run_methods_shares_instance(self):
        cells = run_methods("lastfm", TINY_PROFILE)
        assert set(cells) == {"IM", "TIM", "BAB", "BAB-P"}
        ks = {c.k for c in cells.values()}
        assert ks == {TINY_PROFILE.default_k}

    def test_cell_result_row(self, session):
        cell = run_cell(session, "TIM")
        row = cell.as_row()
        assert row[0] == "lastfm"
        assert row[1] == "TIM"

    def test_determinism_of_prepared_instances(self):
        a = prepare_instance(
            "lastfm", TINY_PROFILE, k=2, num_pieces=2, beta_over_alpha=0.5
        )
        b = prepare_instance(
            "lastfm", TINY_PROFILE, k=2, num_pieces=2, beta_over_alpha=0.5
        )
        np.testing.assert_array_equal(a.problem.pool, b.problem.pool)
        np.testing.assert_array_equal(a.mrr.roots, b.mrr.roots)

    def test_run_methods_bytes_pinned(self):
        # TIM/BAB/BAB-P utilities and BAB diagnostics as the hand-wired
        # runner computed them before cells became Sessions; IM is not
        # pinned (its flat draw has its own stream).  The batch engine
        # is fixed because the python backend draws a different stream.
        profile = TINY_PROFILE.with_overrides(runtime=Runtime(backend="batch"))
        cells = run_methods("lastfm", profile)
        pinned = ("TIM", "BAB", "BAB-P")
        assert {m: cells[m].utility.hex() for m in pinned} == {
            "TIM": "0x1.5ad3ace67814dp+2",
            "BAB": "0x1.bb23215770f0cp+2",
            "BAB-P": "0x1.aa369d53a2c26p+2",
        }
        assert [
            (c.tau_evaluations, c.nodes_expanded, c.bounds_computed)
            for c in (cells["BAB"], cells["BAB-P"])
        ] == [(57, 0, 1), (26, 0, 1)]
        # The timings come from the cell session's stage trace.
        assert all(c.elapsed_seconds > 0 for c in cells.values())
        assert all(c.sample_seconds > 0 for c in cells.values())


class TestFigures:
    def test_table3(self):
        from repro.experiments.figures import table3_datasets

        result = table3_datasets(TINY_PROFILE)
        assert "lastfm" in result.text
        assert "paper |V|" in result.text

    def test_figure3_epsilon_sweep(self):
        from repro.experiments.figures import figure3_epsilon

        result = figure3_epsilon(TINY_PROFILE)
        panel = result.panels["lastfm"]
        assert panel["epsilon"] == [0.3, 0.7]
        assert len(panel["BAB-P"]) == 2

    def test_figure4_sweep_structure(self):
        from repro.experiments.figures import figure4_promoters

        result = figure4_promoters(TINY_PROFILE)
        panel = result.panels["lastfm"]
        assert panel["k"] == [2, 3]
        assert set(panel["utility"]) == {"IM", "TIM", "BAB", "BAB-P"}
        # Utility grows (weakly, modulo noise) with k for the solver.
        bab = panel["utility"]["BAB"]
        assert bab[-1] >= bab[0] - 0.5

    def test_headline_claims_structure(self):
        from repro.experiments.figures import headline_claims

        result = headline_claims(TINY_PROFILE)
        panel = result.panels["lastfm"]
        assert "speedup_time" in panel
        assert "BAB" in panel["utilities"]


class TestMixedModelAndStore:
    def test_models_for_cycles_and_scalars(self):
        profile = TINY_PROFILE.with_overrides(model=("ic", "lt"))
        assert profile.models_for(5) == ("ic", "lt", "ic", "lt", "ic")
        assert profile.models_for(1) == ("ic",)
        assert TINY_PROFILE.models_for(3) is None
        scalar = TINY_PROFILE.with_overrides(model="lt")
        assert scalar.models_for(2) == ("lt", "lt")
        with pytest.raises(ExperimentError):
            TINY_PROFILE.with_overrides(model=()).models_for(2)

    def test_prepare_instance_mixed_models(self):
        profile = TINY_PROFILE.with_overrides(model=("ic", "lt"))
        session = prepare_instance(
            "lastfm", profile, k=3, num_pieces=2, beta_over_alpha=0.5
        )
        cell = run_cell(session, "BAB-P", max_nodes=10)
        assert cell.utility >= 0.0
        # The LT piece really sampled under LT: a different model mix
        # with the same seed must change the collection.
        ic_only = prepare_instance(
            "lastfm", TINY_PROFILE, k=3, num_pieces=2, beta_over_alpha=0.5
        )
        assert not np.array_equal(
            session.mrr.rr_set_sizes(1), ic_only.mrr.rr_set_sizes(1)
        )

    def test_prepare_instance_disk_store(self, tmp_path):
        disk_profile = TINY_PROFILE.with_overrides(
            runtime=Runtime(store="disk", shard_dir=str(tmp_path), workers=1)
        )
        mem_profile = TINY_PROFILE.with_overrides(runtime=Runtime(workers=1))
        disk = prepare_instance(
            "lastfm", disk_profile, k=3, num_pieces=2, beta_over_alpha=0.5
        )
        mem = prepare_instance(
            "lastfm", mem_profile, k=3, num_pieces=2, beta_over_alpha=0.5
        )
        assert disk.mrr.store.kind == "disk"
        # Opt and eval collections shard into distinct subdirectories.
        assert disk.mrr.store.shard_dir != disk.mrr_eval.store.shard_dir
        np.testing.assert_array_equal(disk.mrr.roots, mem.mrr.roots)
        cell_disk = run_cell(disk, "BAB", max_nodes=10)
        cell_mem = run_cell(mem, "BAB", max_nodes=10)
        assert cell_disk.utility == cell_mem.utility

    def test_disk_sweep_cells_do_not_share_shards(self, tmp_path):
        # Regression: cells sharing l but not their seeds (a beta/alpha
        # sweep) once wrote one shard directory, and the second cell
        # raised StoreError.  Each disk cell must equal its memory run.
        disk_profile = TINY_PROFILE.with_overrides(
            runtime=Runtime(store="disk", shard_dir=str(tmp_path), workers=1)
        )
        mem_profile = TINY_PROFILE.with_overrides(runtime=Runtime(workers=1))
        for ratio in (0.3, 0.5):
            disk = run_methods("lastfm", disk_profile, beta_over_alpha=ratio)
            mem = run_methods("lastfm", mem_profile, beta_over_alpha=ratio)
            assert {m: c.utility for m, c in disk.items()} == {
                m: c.utility for m, c in mem.items()
            }


class TestCli:
    def test_parser_targets(self):
        parser = build_parser()
        args = parser.parse_args(["table3"])
        assert args.target == "table3"
        assert args.profile == "quick"

    def test_model_and_store_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table3", "--model", "ic", "lt", "--store", "disk",
             "--shard-dir", "/tmp/x", "--max-resident-mb", "64"]
        )
        assert args.model == ["ic", "lt"]
        assert args.store == "disk"
        assert args.shard_dir == "/tmp/x"
        assert args.max_resident_mb == 64
        with pytest.raises(SystemExit):
            parser.parse_args(["table3", "--model", "sir"])
        with pytest.raises(SystemExit):
            parser.parse_args(["table3", "--store", "s3"])
        with pytest.raises(SystemExit):
            parser.parse_args(["table3", "--executor", "process"])

    def test_shard_dir_rejects_explicit_memory_store(self):
        with pytest.raises(SystemExit):
            main(["table3", "--store", "memory", "--shard-dir", "/tmp/x"])

    def test_execution_flags_reach_profile_runtime(self, tmp_path, monkeypatch):
        import repro.experiments.cli as cli

        seen = []

        class Report:
            def render(self):
                return ""

        def capture(profile):
            seen.append(profile)
            return Report()

        monkeypatch.setitem(cli._DRIVERS, "table3", capture)
        shard_dir, artifact_dir = str(tmp_path / "s"), str(tmp_path / "a")
        assert main([
            "table3", "--workers", "1", "--executor", "spawned",
            "--store", "disk", "--shard-dir", shard_dir,
            "--max-resident-mb", "64", "--artifact-dir", artifact_dir,
        ]) == 0
        (profile,) = seen
        assert profile.runtime == Runtime(
            workers=1,
            executor="spawned",
            store="disk",
            shard_dir=shard_dir,
            max_resident_bytes=64 << 20,
            artifacts=artifact_dir,
        )

    def test_params_target_prints_table4(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "beta_over_alpha" in out

    def test_bad_target_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_out_file_written(self, tmp_path, capsys, monkeypatch):
        # Patch in the tiny profile so the CLI run stays fast.
        import repro.experiments.cli as cli

        monkeypatch.setitem(cli.__dict__, "get_profile", lambda name: TINY_PROFILE)
        out_file = tmp_path / "report.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "lastfm" in out_file.read_text()
