"""Pinned output digest: every CSV of three small fixed runs, hashed.

The runs cover a messy trace (leading loop-only nodes, loops, duplicates in
both directions, equal timestamps), a sparse trace with many components and
tied giants, and a gzipped trace through the command line. A change that
moves any series value, checkpoint or degree-distribution row changes the
digest; an intended change of values updates it and says why in CHANGES.md.
"""

import gzip
import hashlib
import os

from netreplay.cli import main
from netreplay.distances import BoundConfig, EstimatorConfig
from netreplay.pipeline import RunConfig, run_evolution

PINNED = "5dcfb55e902c7e768f1cefd60c0940e3f81c129d601c5d32c626447404a8c2ba"


def scrambled(i, k):
    """A fixed pseudo-random integer in [0, k) for index i."""
    return (i * 2654435761 + 12345) % 2**32 % k


def messy_lines():
    lines = [f"0 lead{j} lead{j}" for j in range(3)]  # nodes before any link
    for i in range(900):
        a, b = scrambled(2 * i, 160), scrambled(2 * i + 1, 40 + i // 6)
        if i % 11 == 0:
            b = a  # a loop
        elif i % 7 == 0 and i > 0:
            a, b = scrambled(2 * i - 14, 160), scrambled(2 * i - 13, 40 + (i - 7) // 6)
            a, b = b, a  # the link seven lines back, reversed
        lines.append(f"{i // 3} n{a} n{b}")
    return lines


def sparse_lines():
    lines = []
    for i in range(110):
        a, b = scrambled(3 * i, 150), scrambled(3 * i + 1, 150)
        lines.append(f"{i} v{a} v{b}")
    return lines


def csv_digest(roots):
    """sha256 over the CSV files under each root, relative names included."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, files in os.walk(root):
            dirnames.sort()
            for name in sorted(files):
                if not name.endswith(".csv"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def test_outputs_match_pinned_digest(tmp_path, capsys):
    messy = tmp_path / "messy.txt"
    messy.write_text("\n".join(messy_lines()) + "\n", encoding="utf-8")
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("\n".join(sparse_lines()) + "\n", encoding="utf-8")
    zipped = tmp_path / "messy.txt.gz"
    with gzip.open(zipped, "wt", encoding="utf-8") as f:
        f.write("\n".join(messy_lines()[::2]) + "\n")

    outs = [tmp_path / name for name in ("messy", "sparse", "cli")]
    run_evolution(RunConfig(
        input_path=str(messy), nominal_checkpoints=200, seed=3, out_dir=str(outs[0]),
        dump_distributions=True, use_cache=False,
    ))
    run_evolution(RunConfig(
        input_path=str(sparse), nominal_checkpoints=60, seed=5, out_dir=str(outs[1]),
        dump_distributions=True, use_cache=False,
        estimator=EstimatorConfig(i_min=4, epsilon=0.2),
        bounds=BoundConfig(min_iterations=2, gap_target=1, iteration_cap=8),
    ))
    assert main([
        "analyze", str(zipped), "--checkpoints", "25", "--seed", "7", "--stats", "conn,deg,dist",
        "--dump-distributions", "--no-cache", "--out", str(outs[2]),
    ]) == 0
    capsys.readouterr()
    assert csv_digest(outs) == PINNED
