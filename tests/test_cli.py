"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["datasets"]).command == "datasets"
        assert parser.parse_args(["compatibility", "toy"]).command == "compatibility"
        assert parser.parse_args(["team", "toy", "python"]).command == "team"
        assert parser.parse_args(["reproduce", "--fast"]).fast is True
        assert parser.parse_args(["table2", "--fast"]).command == "table2"
        assert parser.parse_args(["figure2", "--panels", "ab"]).panels == "ab"

    def test_experiment_commands_take_no_execution_flags(self, capsys):
        """Every kernel runs in-process: no command takes a worker count, a
        snapshot directory or a chunk size."""
        parser = build_parser()
        for command in (["table2"], ["figure2"], ["reproduce"], ["streaming", "toy"]):
            for flag in (["--workers", "2"], ["--snapshot-store", "."], ["--chunk-size", "4"]):
                with pytest.raises(SystemExit) as excinfo:
                    parser.parse_args(command + flag)
                assert excinfo.value.code == 2
                assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestDatasetsCommand:
    def test_lists_datasets(self, capsys):
        exit_code = main(["datasets", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "toy" in captured.out
        assert "slashdot" in captured.out

    def test_never_generates_on_demand_datasets(self, capsys, monkeypatch):
        import repro.datasets.registry as registry

        def explode(**kwargs):
            raise AssertionError("the listing must not generate 'million'")

        monkeypatch.setitem(registry._FACTORIES, "million", explode)
        exit_code = main(["datasets", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "not generated: 'million'" in captured.out


class TestCompatibilityCommand:
    def test_reports_relations(self, capsys):
        exit_code = main(["compatibility", "toy", "--relations", "SPA,SPO,NNE"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("SPA", "SPO", "NNE"):
            assert name in captured.out

    def test_balanced_relations_get_the_experiment_expansion_cap(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.experiments import DatasetConfig

        built = []
        original = cli.make_relation

        def spy(name, graph, **kwargs):
            relation = original(name, graph, **kwargs)
            built.append((name, relation))
            return relation

        monkeypatch.setattr(cli, "make_relation", spy)
        exit_code = main(["compatibility", "toy", "--relations", "SBP,SBPH,SPA"])
        assert exit_code == 0
        assert "SBP" in capsys.readouterr().out
        caps = {name: relation._search._max_expansions for name, relation in built[:2]}
        assert caps == {
            "SBP": DatasetConfig.sbp_max_expansions,
            "SBPH": DatasetConfig.sbp_max_expansions,
        }
        assert DatasetConfig.sbp_max_expansions < 2_000_000

        built.clear()
        exit_code = main(["team", "toy", "python,databases", "--relation", "SBP"])
        assert exit_code == 0
        assert [name for name, _ in built] == ["SBP"]
        assert built[0][1]._search._max_expansions == DatasetConfig.sbp_max_expansions


class TestTeamCommand:
    def test_successful_team(self, capsys):
        exit_code = main(["team", "toy", "python,databases", "--relation", "SPO"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Team (" in captured.out

    def test_unsolvable_task_returns_one(self, capsys):
        exit_code = main(
            ["team", "toy", "python,databases,design,writing", "--relation", "DPE"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "No compatible team" in captured.out

    def test_unknown_skill_returns_two(self, capsys):
        exit_code = main(["team", "toy", "quantum"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err.lower()

    def test_empty_skill_list_returns_two(self):
        assert main(["team", "toy", " , "]) == 2


class TestSnapshotCommand:
    def test_save_load_info_roundtrip(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        path = str(tmp_path / "toy.store")
        assert main(["snapshot", "save", "toy", path]) == 0
        saved = capsys.readouterr().out
        assert "Saved toy" in saved and path in saved

        assert main(["snapshot", "load", path]) == 0
        loaded = capsys.readouterr().out
        assert "memory-mapped" in loaded
        assert main(["snapshot", "load", path, "--no-mmap"]) == 0
        assert "read into memory" in capsys.readouterr().out

        assert main(["snapshot", "info", path]) == 0
        info = capsys.readouterr().out
        assert "plane:indptr" in info and "version" in info

    def test_snapshot_info_json(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        import json

        path = str(tmp_path / "toy.store")
        assert main(["snapshot", "save", "toy", path]) == 0
        capsys.readouterr()

        assert main(["snapshot", "info", "--json", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == 2
        expected_dtypes = {
            "indptr": "<i8",
            "indices": "<i4",
            "signs": "|i1",
            "node_table": "|u1",
        }
        assert set(info["planes"]) == set(expected_dtypes)
        for name, dtype in expected_dtypes.items():
            plane = info["planes"][name]
            assert plane["dtype"] == dtype
            assert plane["offset"] % 8 == 0
        assert info["planes"]["indptr"]["count"] == info["num_nodes"] + 1
        assert info["planes"]["indices"]["count"] == info["num_entries"]
        assert info["planes"]["signs"]["count"] == info["num_entries"]
        assert info["planes"]["node_table"]["count"] == info["node_table_nbytes"]
        assert info["planes"]["indptr"]["offset"] == 56
        assert info["file_nbytes"] == info["expected_nbytes"]

    def test_snapshot_path_validators_exit_2(self, tmp_path, capsys):
        for argv, fragment in [
            (["snapshot", "info", str(tmp_path / "missing.store")], "does not exist"),
            (["snapshot", "load", str(tmp_path / "missing.store")], "does not exist"),
            (
                ["snapshot", "save", "toy", str(tmp_path / "nodir" / "x.store")],
                "output directory does not exist",
            ),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert fragment in capsys.readouterr().err
