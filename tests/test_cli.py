"""Command-line behavior: flags, outputs, exit codes."""

import gzip
import json
import os
import re
import subprocess
import sys

import pytest

import netreplay
from netreplay import ingest
from netreplay.cli import _build_parser, _gen_params, main
from netreplay.generate import MODELS


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

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_model_parameter_has_a_typed_flag(self, model):
        """Each declared parameter parses from its flag, with its type, and
        reaches the generator under its own name."""
        params, seeded = MODELS[model].params, MODELS[model].seeded
        argv = ["gen", model, "--out", "x"] + (["--seed", "5"] if seeded else [])
        for p in params:
            argv += ["--" + p.name.replace("_", "-"), "3"]
        got = _gen_params(_build_parser().parse_args(argv))
        assert got == {**({"seed": 5} if seeded else {}), **{p.name: p.kind("3") for p in params}}
        assert all(type(got[p.name]) is p.kind for p in params)

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["path", "--nodes", "4", "--prob", "0.5"], "--prob"),
            (["path", "--nodes", "4", "--seed", "3", "--prob", "0.5"], "--prob, --seed"),
            (["complete", "--nodes", "4", "--seed", "0"], "--seed"),
            (["random-gnp", "--nodes", "4", "--prob", "0.5", "--links-per-node", "2"],
             "--links-per-node"),
            (["preferential-attachment", "--nodes", "9", "--links-per-node", "2",
              "--extra-per-node", "1"], "--extra-per-node"),
        ],
    )
    def test_flag_the_model_does_not_take_is_rejected(self, tmp_path, argv, flags):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv, "--out", str(out)])
        assert str(exc.value) == f"netreplay gen {argv[0]}: does not take {flags}"
        assert not out.exists()

    def test_flag_rejection_exits_one(self, tmp_path):
        src = os.path.dirname(os.path.dirname(netreplay.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "netreplay.cli", "gen", "path", "--nodes", "4",
             "--prob", "0.5", "--out", str(tmp_path / "x.txt")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "does not take --prob" in proc.stderr
        assert not (tmp_path / "x.txt").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code, _, stderr = run_cli(
            ["gen", "random-gnp", "--nodes", "4", "--prob", "0.5", "--seed", "-1",
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert stderr == "netreplay: error: seed must be non-negative, got -1\n"
        assert not out.exists()

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

    def test_too_many_links_exits_one(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.txt"
        trace.write_text("0 a b\n1 b c\n2 c a\n")
        monkeypatch.setattr(ingest, "_MAX_LINKS", 2)
        out = tmp_path / "o"
        code, _, stderr = run_cli(["analyze", str(trace), "--out", str(out)], capsys)
        assert code == 1
        assert stderr == "netreplay: error: too many links for 32-bit arrivals: 3\n"
        assert not out.exists()

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

    def test_dump_distributions_without_deg_exits_one(self, tmp_path):
        trace = tmp_path / "s.txt"
        trace.write_text("0 a b\n1 b c\n")
        src = os.path.dirname(os.path.dirname(netreplay.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "netreplay.cli", "analyze", str(trace), "--stats", "conn",
             "--dump-distributions", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "dump_distributions needs the deg statistic group" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("groups", ["conn,deg", "conn,deg,dist"])
    def test_negative_seed_exits_one_before_reading_input(self, tmp_path, capsys, groups):
        trace = tmp_path / "s.txt"
        trace.write_text("0 a b\n1 b c\n")
        code, _, stderr = run_cli(
            ["analyze", str(trace), "--stats", groups, "--seed", "-1",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "seed must be non-negative" in stderr
        assert not (tmp_path / "o").exists()
        assert not os.path.exists(str(trace) + ".arrivals")

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
