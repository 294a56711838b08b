"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["datasets"]).command == "datasets"
        assert parser.parse_args(["estimate", "--dataset", "pokec"]).dataset == "pokec"
        assert parser.parse_args(["table", "4"]).number == 4
        assert parser.parse_args(["figure", "1"]).number == 1
        assert parser.parse_args(["bounds", "--epsilon", "0.2"]).epsilon == 0.2
        assert parser.parse_args(["mixing", "--dataset", "orkut"]).dataset == "orkut"
        assert parser.parse_args(["select", "--threshold", "0.1"]).threshold == 0.1
        assert parser.parse_args(["cost", "--budget", "0.03"]).budget == 0.03

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--dataset", "friendster"])

    def test_invalid_table_number_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "99"])


class TestCommands:
    def test_estimate_command(self, capsys):
        exit_code = main(
            [
                "estimate",
                "--dataset",
                "facebook",
                "--algorithm",
                "NeighborSample-HH",
                "--scale",
                "0.1",
                "--budget",
                "0.05",
                "--seed",
                "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "estimated F" in captured
        assert "relative error" in captured

    def test_estimate_command_on_csr_dataset(self, capsys):
        exit_code = main(
            ["estimate", "--representation", "csr", "--scale", "0.1", "--seed", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "representation     : csr" in captured
        assert "estimated F" in captured

    def test_backend_flag_is_gone(self):
        for command in (["estimate"], ["table", "4"], ["figure", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--backend", "csr"])

    def test_bounds_command(self, capsys):
        exit_code = main(["bounds", "--dataset", "facebook", "--scale", "0.1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "NeighborExploration-RW" in captured

    def test_mixing_command(self, capsys):
        exit_code = main(["mixing", "--dataset", "facebook", "--scale", "0.1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "measured burn-in" in captured

    def test_table_command(self, capsys):
        exit_code = main(
            [
                "table",
                "4",
                "--repetitions",
                "2",
                "--scale",
                "0.1",
                "--budgets",
                "0.02",
                "0.05",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Reproduction of paper Table 4" in captured
        assert "proposed beats baselines" in captured

    def test_figure_command(self, capsys):
        exit_code = main(
            ["figure", "1", "--repetitions", "2", "--scale", "0.05", "--seed", "5"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 1" in captured

    def test_datasets_command(self, capsys):
        exit_code = main(["datasets"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "facebook" in captured
        assert "livejournal" in captured

    def test_select_command(self, capsys):
        exit_code = main(
            ["select", "--dataset", "facebook", "--scale", "0.1", "--budget", "0.05"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "selected algorithm" in captured
        assert "NeighborSample-HH" in captured or "NeighborExploration-HH" in captured

    def test_cost_command(self, capsys):
        exit_code = main(
            ["cost", "--dataset", "facebook", "--scale", "0.1", "--repetitions", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "calls per sample" in captured

    def test_verbose_flag(self, capsys):
        exit_code = main(["--verbose", "bounds", "--dataset", "facebook", "--scale", "0.1"])
        assert exit_code == 0


class TestGraphStoreFlag:
    def test_graph_store_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table", "4", "--representation", "csr", "--execution", "fleet",
             "--graph-store", "shm"]
        )
        assert args.graph_store == "shm"
        assert parser.parse_args(["figure", "1"]).graph_store == "ram"

    def test_unknown_graph_store_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "4", "--graph-store", "tape"])

    def test_table_runs_with_shm_jobs(self, capsys):
        exit_code = main(
            [
                "table", "4",
                "--representation", "csr",
                "--execution", "fleet",
                "--graph-store", "shm",
                "--jobs", "2",
                "--repetitions", "2",
                "--scale", "0.1",
                "--budgets", "0.02", "0.05",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Reproduction of paper Table 4" in captured


class TestFsckCommand:
    def _spill(self, tmp_path, name="graph.npz"):
        import numpy as np

        from repro.durability import write_npz
        from repro.graph.csr import CSRGraph

        n = 64
        edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        graph = CSRGraph.from_edge_array(edges, num_nodes=n)
        target = tmp_path / name
        write_npz(target, {"indptr": graph.indptr, "indices": graph.indices})
        return target

    def test_fsck_passes_an_intact_artifact(self, tmp_path, capsys):
        target = self._spill(tmp_path)
        exit_code = main(["fsck", str(target)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.startswith("ok") and str(target) in out

    def test_fsck_scans_directories(self, tmp_path, capsys):
        self._spill(tmp_path, "a.npz")
        self._spill(tmp_path, "b.npz")
        exit_code = main(["fsck", str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("ok      ") == 2

    def test_fsck_flags_a_bit_flipped_artifact(self, tmp_path, capsys):
        target = self._spill(tmp_path)
        raw = bytearray(target.read_bytes())
        raw[200] ^= 0xFF
        target.write_bytes(bytes(raw))
        exit_code = main(["fsck", str(target)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert f"CORRUPT {target}" in out

    def test_fsck_flags_structurally_broken_csr(self, tmp_path, capsys):
        import numpy as np

        from repro.durability import write_npz

        # Checksums match the bytes, but the bytes are not a valid CSR:
        # an out-of-range neighbor index.  Structure checking catches it.
        indptr = np.array([0, 2, 4], dtype=np.int64)
        indices = np.array([1, 9999, 0, 0], dtype=np.int64)
        target = tmp_path / "broken.npz"
        write_npz(target, {"indptr": indptr, "indices": indices})
        assert main(["fsck", str(target)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        # --no-structure trusts the checksums alone and passes it.
        assert main(["fsck", "--no-structure", str(target)]) == 0
