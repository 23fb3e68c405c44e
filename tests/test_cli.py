"""Command-line behavior: flags, outputs, exit codes."""

import gzip
import json
import os
import re
import subprocess
import sys

import pytest

import netreplay
from netreplay.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_path_five_nodes(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        code, stdout, _ = run_cli(["gen", "path", "--nodes", "5", "--out", str(out)], capsys)
        assert code == 0
        assert "4 events" in stdout
        assert out.read_text() == "0 0 1\n1 1 2\n2 2 3\n3 3 4\n"

    def test_complete_four(self, tmp_path, capsys):
        out = tmp_path / "k4.txt"
        code, stdout, _ = run_cli(["gen", "complete", "--nodes", "4", "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 6

    def test_gzip_output(self, tmp_path, capsys):
        out = tmp_path / "s.txt.gz"
        code, _, _ = run_cli(
            ["gen", "random-gnp", "--nodes", "30", "--prob", "0.2", "--seed", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_bytes()[:2] == b"\x1f\x8b"

    def test_missing_model_param(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--prob"):
            main(["gen", "random-gnp", "--nodes", "10", "--out", str(tmp_path / "x")])

    def test_unknown_model_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "star", "--nodes", "5", "--out", str(tmp_path / "x")])

    def test_two_phase_requires_all_params(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--extra-per-node"):
            main([
                "gen", "two-phase", "--phase1-nodes", "50", "--links-per-node", "2",
                "--phase2-nodes", "20", "--out", str(tmp_path / "x"),
            ])

    def test_invalid_param_value_exits_nonzero(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["gen", "path", "--nodes", "1", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 1
        assert "netreplay: error:" in stderr


class TestAnalyze:
    def make_stream(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        code, _, _ = run_cli(
            ["gen", "preferential-attachment", "--nodes", "150", "--links-per-node",
             "2", "--seed", "1", "--out", str(trace)],
            capsys,
        )
        assert code == 0
        return trace

    def analyze_args(self, trace, out):
        return [
            "analyze", str(trace), "--checkpoints", "8", "--out", str(out),
            "--imin", "4", "--eps", "0.2", "--gap", "2", "--min-iters", "2",
            "--cap", "6",
        ]

    def test_end_to_end(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        out = tmp_path / "results"
        code, stdout, _ = run_cli(self.analyze_args(trace, out), capsys)
        assert code == 0
        assert "150 nodes" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_n"] == 150
        assert (out / "average_degree.csv").exists()
        assert (out / "diameter_lower.csv").exists()

    def test_stats_subset(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        out = tmp_path / "results"
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "5", "--stats", "conn,deg",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "component_count.csv").exists()
        assert not (out / "average_distance.csv").exists()

    def test_out_env_var(self, tmp_path, capsys, monkeypatch):
        trace = self.make_stream(tmp_path, capsys)
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("NETREPLAY_OUT", str(env_out))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "4", "--stats", "conn"],
            capsys,
        )
        assert code == 0
        assert env_out.is_dir()

    def test_explicit_out_beats_env(self, tmp_path, capsys, monkeypatch):
        trace = self.make_stream(tmp_path, capsys)
        monkeypatch.setenv("NETREPLAY_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "4", "--stats", "conn",
             "--out", str(chosen)],
            capsys,
        )
        assert code == 0
        assert chosen.is_dir()
        assert not (tmp_path / "ignored").exists()

    def test_no_cache_flag(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "4", "--stats", "conn",
             "--no-cache", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        assert not os.path.exists(str(trace) + ".arrivals")

    def test_cache_written_by_default(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "4", "--stats", "conn",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        assert os.path.exists(str(trace) + ".arrivals")

    def test_dump_distributions_flag(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        out = tmp_path / "o"
        code, _, _ = run_cli(
            ["analyze", str(trace), "--checkpoints", "4", "--stats", "deg",
             "--dump-distributions", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "distributions").is_dir()

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["analyze", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "netreplay: error:" in stderr

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 a b\nnot a line\n")
        code, _, stderr = run_cli(
            ["analyze", str(bad), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "line 2" in stderr

    def test_timestamp_beyond_u64_exits_one_without_traceback(self, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("1 a b\n18446744073709551616 b c\n")
        src = os.path.dirname(os.path.dirname(netreplay.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "netreplay.cli", "analyze", str(bad),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 2" in proc.stderr

    def test_truncated_gzip_exits_one_without_traceback(self, tmp_path):
        lines = "".join(f"{i} n{i % 97} n{i * 7 % 101}\n" for i in range(20000)).encode()
        gz = gzip.compress(lines)
        bad = tmp_path / "cut.txt.gz"
        bad.write_bytes(gz[: len(gz) // 2])
        src = os.path.dirname(os.path.dirname(netreplay.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "netreplay.cli", "analyze", str(bad),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.search(r"unreadable input after line [1-9]\d*:", proc.stderr)

    def test_non_utf8_byte_exits_one_naming_its_line(self, tmp_path):
        lines = [f"{i} n{i % 97} n{i * 7 % 101}\n".encode() for i in range(20000)]
        lines[7895] = b"7895 n\xff n1\n"
        bad = tmp_path / "latin.txt.gz"
        bad.write_bytes(gzip.compress(b"".join(lines)))
        src = os.path.dirname(os.path.dirname(netreplay.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "netreplay.cli", "analyze", str(bad),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 7896 is not valid utf-8" in proc.stderr

    def test_bad_stats_group_exits_one(self, tmp_path, capsys):
        trace = self.make_stream(tmp_path, capsys)
        code, _, stderr = run_cli(
            ["analyze", str(trace), "--stats", "conn,bogus", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "bogus" in stderr
