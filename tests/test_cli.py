"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads.models import get_transformer


def _run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.command == "predict"
        assert args.cluster == "v100-8"
        assert args.tensor_parallel == 1

    def test_recipe_flags_parsed(self):
        args = build_parser().parse_args([
            "predict", "-tp", "4", "-pp", "2", "-mb", "2",
            "--activation-recomputation", "--sequence-parallelism",
        ])
        assert args.tensor_parallel == 4
        assert args.pipeline_parallel == 2
        assert args.activation_recomputation
        assert args.sequence_parallelism


class TestCommands:
    def test_clusters_lists_presets(self, capsys):
        assert main(["clusters"]) == 0
        output = capsys.readouterr().out
        assert "h100-64" in output and "v100-8" in output

    def test_models_lists_presets(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "gpt3-2.7b" in output and "resnet152" in output

    def test_predict_text_output(self, capsys):
        code = main([
            "predict", "--cluster", "v100-8", "--model", "gpt-tiny",
            "--global-batch-size", "16", "-tp", "2", "-pp", "2", "-mb", "2",
            "--estimator", "analytical", "--with-testbed",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "iteration time" in output
        assert "testbed reference" in output

    def test_predict_json_output(self, capsys):
        code = main([
            "predict", "--cluster", "v100-8", "--model", "gpt-tiny",
            "--global-batch-size", "16", "-tp", "2",
            "--estimator", "analytical", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iteration_time_s"] > 0
        assert 0.0 <= payload["mfu"] <= 1.0

    def test_predict_invalid_recipe_exits_nonzero(self, capsys):
        code = main([
            "predict", "--cluster", "v100-8", "--model", "gpt-tiny",
            "-tp", "3", "--estimator", "analytical",
        ])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_predict_oom_reports_and_exits_one(self, capsys):
        code = main([
            "predict", "--cluster", "v100-8", "--model", "gpt3-6.7b",
            "--global-batch-size", "64", "--estimator", "analytical",
        ])
        assert code == 1
        assert "OUT OF MEMORY" in capsys.readouterr().out

    def test_compare_small_pool(self, capsys):
        code = main([
            "compare", "--cluster", "v100-8", "--model", "gpt-tiny",
            "--global-batch-size", "16", "--configs", "3",
            "--estimator", "analytical", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]
        assert "maya" in payload["selection_cost"]

    def test_search_small_budget(self, capsys):
        code = main([
            "search", "--cluster", "v100-8", "--model", "gpt-tiny",
            "--global-batch-size", "16", "--budget", "30",
            "--estimator", "analytical", "--algorithm", "random", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"] is not None
        assert payload["samples_used"] <= 30

    def test_backend_choices_match_registry(self):
        from repro.service import BACKEND_NAMES

        assert BACKEND_NAMES == ("serial", "persistent")
        for command in ("compare", "search", "serve"):
            assert build_parser().parse_args([command]).backend == "serial"
            for backend in BACKEND_NAMES:
                args = build_parser().parse_args([command, "--backend",
                                                  backend])
                assert args.backend == backend
        for removed in ("mpi", "process", "thread", "socket"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search", "--backend", removed])

    def test_socket_backend_is_refused_by_name(self, v100_cluster):
        # The multi-host backend is deleted: the name fails where it is
        # given, not later when a batch warms the pool.
        from repro.service import PredictionService, get_backend

        expected = r"\['persistent', 'serial'\]"
        with pytest.raises(ValueError, match=expected):
            PredictionService(cluster=v100_cluster,
                              estimator_mode="analytical", backend="socket")
        with pytest.raises(ValueError, match=expected):
            get_backend("socket")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--backend", "socket"])
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert set(subcommands) == {"clusters", "models", "predict",
                                    "compare", "search", "serve", "cache"}

    def test_removed_search_surface_is_rejected(self, v100_cluster):
        # One search command, backends chosen only by the evaluator's
        # service: none of these alternative surfaces may exist.
        from repro.search import MayaSearch, MayaTrialEvaluator
        from repro.service import get_backend

        with pytest.raises(SystemExit):
            build_parser().parse_args(["service"])
        for removed in (["--no-cache"], ["--max-workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search"] + removed)
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            get_backend("thread")
        evaluator = MayaTrialEvaluator(
            get_transformer("gpt-tiny"), v100_cluster, 16,
            estimator_mode="analytical")
        assert not hasattr(evaluator, "set_backend")
        with pytest.raises(TypeError):
            MayaSearch(evaluator, backend="serial")

    def test_placement_policy_is_not_selectable(self, v100_cluster):
        # round_robin is the only placement: the --scheduler flag, the
        # service argument and the locality policy are all rejected.
        from repro.service import PredictionService, get_scheduler

        for command in ("search", "compare", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--scheduler",
                                           "round_robin"])
        with pytest.raises(TypeError):
            PredictionService(cluster=v100_cluster,
                              estimator_mode="analytical",
                              scheduler="round_robin")
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            get_scheduler("locality")
        assert get_scheduler("round_robin").name == "round_robin"

    def test_backend_help_mentions_every_backend(self):
        from repro.service import BACKEND_NAMES

        for command in ("compare", "search"):
            parser = build_parser()
            subparser = parser._subparsers._group_actions[0].choices[command]
            help_text = subparser.format_help()
            for backend in BACKEND_NAMES:
                assert backend in help_text, \
                    f"`repro {command} --help` does not mention {backend}"

    def test_timeout_flags_parsed_and_validated(self):
        for command in ("compare", "search"):
            args = build_parser().parse_args([
                command, "--sync-timeout", "7.5", "--lease-timeout", "0"])
            assert args.sync_timeout == 7.5
            assert args.lease_timeout == 0.0  # 0 disables re-dispatch
            args = build_parser().parse_args([command])
            assert args.sync_timeout is None  # env / class default applies
            assert args.lease_timeout is None
        for bad in (["--sync-timeout", "0"], ["--sync-timeout", "-1"],
                    ["--sync-timeout", "nan"], ["--lease-timeout", "-0.5"],
                    ["--lease-timeout", "forever"],
                    ["--sync-timeout", "inf"], ["--lease-timeout", "inf"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search"] + bad)

    def test_timeout_environment_variables_validated(self, monkeypatch):
        from repro.service.backends import (SYNC_TIMEOUT_ENV,
                                            _resolve_timeout)

        for bad in ("inf", "nan", "-1"):
            monkeypatch.setenv(SYNC_TIMEOUT_ENV, bad)
            with pytest.raises(ValueError, match=SYNC_TIMEOUT_ENV):
                _resolve_timeout("sync_timeout", None, SYNC_TIMEOUT_ENV,
                                 60.0)
        monkeypatch.setenv(SYNC_TIMEOUT_ENV, "7")
        assert _resolve_timeout("sync_timeout", None, SYNC_TIMEOUT_ENV,
                                60.0) == 7.0

    def test_timeout_help_mentions_env_vars(self):
        parser = build_parser()
        subparser = parser._subparsers._group_actions[0].choices["search"]
        help_text = subparser.format_help()
        assert "--sync-timeout" in help_text
        assert "--lease-timeout" in help_text
        assert "REPRO_SYNC_TIMEOUT" in help_text
        assert "REPRO_LEASE_TIMEOUT" in help_text

    def test_search_persistent_backend(self, capsys):
        import multiprocessing

        before = multiprocessing.active_children()
        code = main([
            "search", "--cluster", "v100-8", "--model", "gpt-tiny",
            "--global-batch-size", "16", "--budget", "30",
            "--estimator", "analytical", "--algorithm", "random",
            "--backend", "persistent", "--jobs", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "persistent"
        assert payload["jobs"] == 2
        assert payload["best"] is not None
        assert payload["throughput"]["backend"] == "persistent"
        # The worker pool is closed before the command returns.
        assert set(multiprocessing.active_children()) <= set(before)


class TestStoreFlags:
    def test_store_dir_flag_on_every_evaluating_command(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        for command in ("compare", "search", "serve"):
            args = build_parser().parse_args([command, "--store-dir",
                                              "/tmp/artifacts"])
            assert args.store_dir == "/tmp/artifacts"
            args = build_parser().parse_args([command])
            assert args.store_dir is None

    def test_store_dir_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/shared/artifacts")
        args = build_parser().parse_args(["search"])
        assert args.store_dir == "/shared/artifacts"

    def test_store_help_mentions_env_var(self):
        parser = build_parser()
        subparser = parser._subparsers._group_actions[0].choices["search"]
        help_text = subparser.format_help()
        assert "--store-dir" in help_text
        assert "REPRO_STORE_DIR" in help_text


class TestCacheCommand:
    def test_cache_requires_store_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "--store-dir" in capsys.readouterr().err

    def test_cache_on_missing_store_errors(self, capsys, tmp_path):
        code = main(["cache", "stats", "--store-dir",
                     str(tmp_path / "absent")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_search_warm_starts_then_cache_maintains(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        argv = ["search", "--cluster", "v100-8", "--model", "gpt-tiny",
                "--global-batch-size", "16", "--budget", "8",
                "--estimator", "analytical", "--algorithm", "random",
                "--store-dir", store_dir, "--json"]
        code, cold = _run_json(capsys, argv)
        assert code == 0
        code, warm = _run_json(capsys, argv)
        assert code == 0
        # A second run against the populated store resolves identically.
        assert warm["best"] == cold["best"]

        # ... and surfaces the store-tier hits that resolved it.
        assert warm["cache_stats"]["store_hits"] > 0

        # stats -> verify -> gc roundtrip over the populated store.
        code, stats = _run_json(capsys, ["cache", "stats", "--store-dir",
                                         store_dir, "--json"])
        assert code == 0
        assert stats["entries"] > 0
        assert stats["total_bytes"] > 0
        code, verify = _run_json(capsys, ["cache", "verify", "--store-dir",
                                          store_dir, "--json"])
        assert code == 0
        assert verify["checked"] == stats["entries"]
        assert verify["corrupt"] == []
        code, swept = _run_json(capsys, ["cache", "gc", "--store-dir",
                                         store_dir, "--budget", "0",
                                         "--json"])
        assert code == 0
        assert swept["removed"] == stats["entries"]
        code, after = _run_json(capsys, ["cache", "stats", "--store-dir",
                                         store_dir, "--json"])
        assert code == 0
        assert after["entries"] == 0

    def test_verify_flags_and_quarantines_corruption(self, capsys, tmp_path):
        from repro.service import ArtifactStore

        store_dir = str(tmp_path / "store")
        store = ArtifactStore(store_dir)
        store.put(("good",), "payload")
        store.put(("bad",), "payload")
        bad_path = store._entry_path(("bad",))
        bad_path.write_bytes(b"garbage")

        code, report = _run_json(capsys, ["cache", "verify", "--store-dir",
                                          store_dir, "--json"])
        assert code == 1
        assert report["corrupt"] == [bad_path.name]
        assert report["quarantined"] == []

        code, report = _run_json(capsys, ["cache", "verify", "--store-dir",
                                          store_dir, "--quarantine",
                                          "--json"])
        assert code == 1
        assert report["quarantined"] == [bad_path.name]
        assert not bad_path.exists()

        code, report = _run_json(capsys, ["cache", "verify", "--store-dir",
                                          store_dir, "--json"])
        assert code == 0
        assert report == {"checked": 1, "corrupt": [], "quarantined": []}

    def test_cache_text_output(self, capsys, tmp_path):
        from repro.service import ArtifactStore

        store_dir = str(tmp_path / "store")
        ArtifactStore(store_dir).put(("k",), "v")
        assert main(["cache", "stats", "--store-dir", store_dir]) == 0
        output = capsys.readouterr().out
        assert "entries" in output
        assert store_dir in output

    def test_service_text_output_reports_tiers(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        code = main(["search", "--cluster", "v100-8", "--model", "gpt-tiny",
                     "--global-batch-size", "16", "--budget", "8",
                     "--estimator", "analytical", "--algorithm", "random",
                     "--store-dir", store_dir])
        assert code == 0
        output = capsys.readouterr().out
        assert "memory tier" in output
        assert "store tier" in output
