import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logcount import cli
from logcount.errors import DataError
from logcount.process import simulate
from oracles import fmt

MODEL = {"a": 0.1, "b": 0.1, "c": 2, "innovation": {"family": "exponential"}}
BOOTSTRAP = {"l_n": 2, "N_n": 5, "B": 50, "alpha": 0.1}


def run(tmp_path, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def table(text):
    """Column names and rows of a CSV output below its '#' header."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_coverage_writes_family_column(tmp_path):
    code, text = run(tmp_path, "coverage", {
        "a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
        "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50,
        "theta_bar_loops": 16,
    })
    assert code == 0
    columns, rows = table(text)
    assert len(rows) == 1
    row = dict(zip(columns, rows[0]))
    assert row["family"] == "exponential"
    assert float(row["coverage"]) in (0.0, 1 / 3, 2 / 3, 1.0)


def test_tv_check_writes_family_column(tmp_path):
    code, text = run(tmp_path, "tv-check", {
        "innovation": {"family": "exponential"}, "sigmas": [1, 2],
    })
    assert code == 0
    columns, rows = table(text)
    assert rows and all(dict(zip(columns, r))["family"] == "exponential" for r in rows)


def test_tv_check_half_cauchy_at_large_scales(tmp_path):
    # the crossing of the two pmfs lies past the dense head of the summation
    code, text = run(tmp_path, "tv-check", {
        "innovation": {"family": "half_cauchy", "location": 0, "scale": 1}, "sigmas": [5e6, 6e6],
    })
    assert code == 0
    columns, rows = table(text)
    tv = [float(dict(zip(columns, r))["tv"]) for r in rows]
    assert tv[1] == pytest.approx(0.0579545396717123, abs=1e-15)


def test_mc_boxplot_summary_prints_plain_floats(tmp_path):
    code, text = run(tmp_path, "mc-boxplot", {
        "model": MODEL, "n": 30, "replicates": 100, "theta_bar_loops": 16,
    })
    assert code == 0
    summary = next(line for line in text.splitlines() if line.startswith("# summary_n30:"))
    assert "np.float64" not in text
    fields = dict(item.split("=") for item in summary.split(": ", 1)[1].split())
    assert set(fields) == {"theta_bar", "q1", "median", "q3", "whisker_low", "whisker_high"}
    assert float(fields["q1"]) <= float(fields["median"]) <= float(fields["q3"])


def explosion_messages(tmp_path, capsys, command, config):
    """stderr of ``command`` on ``config`` at --threads 1 and 2, each run exiting 4."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    messages = []
    for threads in ("1", "2"):
        code = cli.main([command, "--config", str(cfg), "--threads", threads])
        messages.append(capsys.readouterr().err)
        assert code == 4
    return messages


def test_explosion_in_a_pool_worker_exits_4_with_the_inline_message(tmp_path, capsys):
    # the worker's ExplosionError is pickled back to the parent; one that
    # failed to unpickle broke the pool and exited 1
    messages = explosion_messages(tmp_path, capsys, "mc-boxplot", {
        "model": {**MODEL, "c": 100}, "n": [300], "replicates": 1024, "theta_bar_loops": 1024})
    assert messages[0] == messages[1]
    assert "exploded at t=271" in messages[0]


def test_mixing_explosion_exits_4_with_one_message_at_any_worker_count(tmp_path, capsys):
    # the chains cross the limit in the coupled steps after k; at --threads 2
    # the pairs run as two spans in two workers
    messages = explosion_messages(tmp_path, capsys, "mixing", {
        "model": {**MODEL, "c": 100}, "k": 200, "n_max": 80, "R": 20, "replicates": 1024})
    assert messages[0] == messages[1]
    assert "exploded at t=271" in messages[0]


@pytest.mark.parametrize("command,config", [
    # 1100 replicates end a span part way through its second 512-row block at
    # --threads 2; each block is stepped and fitted on its own
    ("mc-boxplot", {"model": MODEL, "n": [60, 200], "replicates": 1100,
                    "theta_bar_loops": 1100}),
    # both chains of each pair, iid exogenous draws included, step as the two
    # halves of one block; 1100 pairs make two spans at --threads 2
    ("mixing", {"model": {**MODEL, "a": 0.3, "b": 0.3, "c": 0,
                          "exogenous": {"kind": "iid", "family": "normal", "mean": 0.5,
                                        "sd": 0.3}},
                "k": 5, "n_max": 5, "R": 5, "replicates": 1100}),
], ids=["mc-boxplot", "mixing-iid"])
def test_output_bytes_do_not_depend_on_the_worker_count(tmp_path, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    for threads in ("1", "2"):
        out = str(tmp_path / f"out{threads}.csv")
        assert cli.main([command, "--config", str(cfg), "--threads", threads, "--out", out]) == 0
    assert (tmp_path / "out1.csv").read_bytes() == (tmp_path / "out2.csv").read_bytes()


def test_ci_on_a_constant_series_writes_u_star_zero(tmp_path):
    # every draw ties at 0, so ci replays every block of normals forward
    (tmp_path / "constant.csv").write_text("5\n" * 60)
    config = {"data": str(tmp_path / "constant.csv"),
              "bootstrap": {"l_n": 2, "N_n": 5, "B": 200, "alpha": 0.1}}
    with pytest.warns(UserWarning, match="centering bias may dominate"):
        code, text = run(tmp_path, "ci", config)
    assert code == 0
    assert json.loads(text)["result"]["u_star"] == 0.0


def test_coverage_writes_one_row_per_family_cell_and_alpha(tmp_path):
    # the loops stop drawing once their verdicts are fixed, and every
    # (family, cell, alpha) still gets its row
    code, text = run(tmp_path, "coverage", {
        "a": 0.1, "b": 0.1, "c": 2,
        "innovations": [{"family": "exponential"},
                        {"family": "half_cauchy", "location": 0, "scale": 1}],
        "n": 120, "cells": [[8, 20], [3, 10]], "alphas": [0.1, 0.05], "mc_loops": 20, "B": 200,
        "theta_bar_loops": 256})
    assert code == 0
    columns, rows = table(text)
    keys = [tuple(dict(zip(columns, r))[c] for c in ("family", "l_n", "N_n", "alpha"))
            for r in rows]
    assert sorted(keys) == sorted((f, c[0], c[1], a) for f in ("exponential", "half_cauchy")
                                  for c in (("8", "20"), ("3", "10")) for a in ("0.1", "0.05"))


def test_column_formatter_follows_fmt():
    floats = [0.0, -0.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), float("inf"),
              float("-inf"), float("nan"), 5e-324, 1e16, 1e15 + 0.5, 0.1, -2.5, 1 / 3, 7.0]
    ints = [0, -5, 2**63 - 1, -(2**63)]
    # the tuple columns are those coverage and tv-check build from their rows
    for col in (np.array(floats), np.array(floats, dtype=np.float32), np.array(ints),
                np.array([2**64 - 1], dtype=np.uint64), tuple(floats), tuple(ints),
                ("exponential", "half_cauchy", "chi_square"), (0.5, np.float64(3.0), 1.25)):
        assert cli._fmt_column(col) == [fmt(v) for v in col]


def _row_by_row(header_lines, names, columns):
    """The CSV as one string, each cell formatted by ``fmt``."""
    lines = [*header_lines, ",".join(names)]
    lines.extend(",".join(fmt(v) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_rows", [7, cli.CSV_BLOCK_ROWS])
def test_csv_longer_than_a_block_matches_row_by_row(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    n = 2 * cli.CSV_BLOCK_ROWS + 5
    config = {"model": MODEL, "n": n, "seed": 4}
    assert run(tmp_path, "simulate", config)[0] == 0
    traj = simulate(cli._model_from_config(MODEL), n, 4)
    expected = _row_by_row(cli._header_lines("simulate", 4, config), ["t", "sigma", "x", "c_exo"],
                           [range(n + 1), traj.sigma, traj.x, traj.c_exo])
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("header", ["", "count\n"])
def test_byte_order_mark_does_not_drop_a_count(tmp_path, header):
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + header + "5\n7\n9\n").encode("utf-8"))
    assert cli._read_counts(str(path)).tolist() == [5, 7, 9]


@pytest.mark.parametrize("text,message", [
    ("1\n2\nx\n", "row 3: not a number: 'x'"),
    ("1\n-2\n", "row 2: negative count '-2'"),
    ("1\n2.5\n", "row 2: non-integer count '2.5'"),
    ("1\ninf\n", "row 2: non-integer count 'inf'"),
    ("1\nnan\n", "row 2: non-integer count 'nan'"),
    ("count\n# note\n7\n", "need at least 2 counts, found 1"),
    ("count\nx\n1\n2\n", "row 2: not a number: 'x'"),  # one header only
    # negative wins over non-integer within a row
    ("1\n-1.5\n", "row 2: negative count '-1.5'"),
    ("1\n-inf\n", "row 2: negative count '-inf'"),
    # the first offending row in file order, whatever its kind
    ("1\n2.5\nx\n-3\n", "row 2: non-integer count '2.5'"),
    ("1\nx\n2.5\n", "row 2: not a number: 'x'"),
    ("1\n-2\n2.5\n", "row 2: negative count '-2'"),
    # comments, blank lines, the header, CRLF and a form feed keep line numbers
    ("# c\n\ncount\n 1 \n# c\n2\n\n0.5\n", "row 8: non-integer count '0.5'"),
    ("count\r\n1\r\n\r\nx\r\n", "row 4: not a number: 'x'"),
    ("1\n\x0c\n2\n3\x0c4\n", "row 4: not a number: '3\\x0c4'"),
])
def test_read_counts_names_the_first_offending_row(tmp_path, text, message):
    path = tmp_path / "counts.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as err:
        cli._read_counts(str(path))
    assert str(err.value).startswith(message)


def test_read_counts_skips_comments_blank_lines_and_one_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"# c\n\nx\n 1 \n\x0c\n#2\n-0\r\n3e2\n")
    values = cli._read_counts(str(path))
    assert values.tolist() == [1.0, 0.0, 300.0] and values.dtype == np.float64


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a small count series and room for outputs."""
    root = tmp_path_factory.mktemp("cli")
    (root / "counts.csv").write_text("x\n" + "\n".join(str(v) for v in range(1, 31)) + "\n")
    (root / "inf.csv").write_text("1\n2\ninf\n")
    return root


@pytest.mark.parametrize("command,config,code", [
    ("simulate", {"model": {**MODEL, "exogenous": {"kind": "trend", "slope": 1}}, "n": 5}, 2),
    ("simulate", {"model": MODEL, "n": "abc"}, 2),
    ("simulate", {"model": MODEL, "n": [5]}, 2),
    ("simulate", {"model": MODEL, "n": None}, 2),
    ("simulate", {"model": {**MODEL, "a": "x"}, "n": 5}, 2),
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "alpha": "0.1x"}}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": "ab"}, 2),
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": ["x"]}, 2),
    ("mc-boxplot", {"model": MODEL, "n": 30, "replicates": "many"}, 2),
    ("fit", {"data": "{dir}"}, 3),
    ("fit", {"data": "{dir}/inf.csv"}, 3),
    ("ci", {"data": "{dir}", "bootstrap": BOOTSTRAP}, 3),
    # a string is not a list of its characters
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": "12"}, 2),
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": "12"}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": ["25"], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    # a bool or a number with a fraction is not an integer
    ("simulate", {"model": MODEL, "n": 5, "seed": True}, 2),
    ("simulate", {"model": MODEL, "n": 2.9}, 2),
    ("simulate", {"model": MODEL, "n": True}, 2),
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "N_n": 5.5}}, 2),
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "B": 50.5}}, 2),
    ("mc-boxplot", {"model": MODEL, "n": [30.5], "replicates": 100}, 2),
    ("mc-boxplot", {"model": MODEL, "n": 30, "replicates": 100.5}, 2),
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": [1.5]}, 2),
    ("mixing", {"model": MODEL, "k": True, "replicates": 20, "n_max": 3}, 2),
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_max": 3, "R": 2.5}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[2, 5.5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60.5, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    # the summary is keyed by n, so a repeated n would lose a line
    ("mc-boxplot", {"model": MODEL, "n": [30, 30], "replicates": 100}, 2),
    # the run writes one row per gap, so a repeated gap would lose a row
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": [3, 1, 1]}, 2),
    # an empty list would run nothing and write a header without rows
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [],
                  "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[2, 5]], "alphas": [], "mc_loops": 3, "B": 50}, 2),
    ("mc-boxplot", {"model": MODEL, "n": [], "replicates": 100}, 2),
    ("tv-check", {"innovations": [], "sigmas": [1, 2]}, 2),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": []}, 2),
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": []}, 2),
    # a worker count below 1 is refused, as a negative seed is
    ("simulate --threads 0", {"model": MODEL, "n": 5}, 2),
    ("mixing --threads -1", {"model": MODEL, "k": 3, "replicates": 20, "n_max": 3}, 2),
    # sizes no array can hold are refused before anything is allocated
    ("simulate", {"model": MODEL, "n": 10**19}, 2),
    ("mixing", {"model": MODEL, "k": 5, "replicates": 10, "n_max": 3, "R": 10**18}, 2),
    # a t statistic that is not finite is not valid JSON
    ("fit", {"data": "{dir}/counts.csv", "theta_bar": "nan"}, 2),
    ("fit", {"data": "{dir}/counts.csv", "theta_bar": "inf"}, 2),
    ("fit", {"data": "{dir}/counts.csv", "theta_bar": float("nan")}, 2),
    ("fit", {"data": "{dir}/counts.csv", "theta_bar": 1e308}, 2),  # the statistic overflows
    # a JSON boolean is not a number, though float(True) is 1.0
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "l_n": True}}, 2),
    ("simulate", {"model": {**MODEL, "a": False, "c": True}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "sigma0": True}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "exogenous": {"kind": "iid", "family": "normal",
                                                   "mean": 0, "sd": True}}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "innovation": {"family": "half_cauchy", "scale": True}},
                  "n": 5}, 2),
    ("fit", {"data": "{dir}/counts.csv", "theta_bar": True}, 2),
    ("coverage", {"a": 0.1, "b": False, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[True, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2,
                  "innovations": [{"family": "exponential", "rate": True}],
                  "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50}, 2),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [True, 2]}, 2),
    # a scale must be positive; a finite scale whose support overflows a float
    # is a numeric failure
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [0]}, 2),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [-1, 2]}, 2),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [1e308, 1]}, 4),
    # with both, the row that comes first decides, though pairs share heads
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [1, 1e308, -1]}, 4),
    ("tv-check", {"innovation": {"family": "exponential"}, "sigmas": [1, -1, 1e308]}, 2),
    # a value the run would ignore is refused, not dropped
    ("mixing", {"model": MODEL, "k": 3, "replicates": 20, "n_grid": [1, 2], "n_max": 3}, 2),
    ("tv-check", {"innovation": {"family": "exponential"},
                  "innovations": [{"family": "half_normal"}], "sigmas": [1, 2]}, 2),
    ("simulate", {"model": {**MODEL, "exogenous": {"kind": "trend", "family": "normal",
                                                   "sd": 3}}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "c": 0, "exogenous": {"kind": "iid", "family": "normal",
                                                           "half_width": 1}}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "c": 0, "exogenous": {"kind": "iid", "family": "uniform",
                                                           "sd": 1}}, "n": 5}, 2),
    # an iid exogenous term replaces the trend, so no step reads a c beside it
    ("simulate", {"model": {**MODEL, "exogenous": {"kind": "iid", "family": "normal",
                                                   "mean": 0.5, "sd": 0.3}}, "n": 5}, 2),
    # only the top level reads a seed and a schema
    ("simulate", {"model": {**MODEL, "seed": 9, "schema": "x"}, "n": 5}, 2),
    ("simulate", {"model": {**MODEL, "seed": 9}, "n": 5}, 2),
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "seed": 7}}, 2),
])
def test_malformed_config_values_keep_documented_exit_codes(files, command, config, code):
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    assert cli.main([*command.split(), "--config", str(files / "config.json")]) == code


@pytest.mark.parametrize("command, config", [
    ("ci", {"data": "{dir}/counts.csv", "bootstrap": {**BOOTSTRAP, "B": 10**30}}),
    ("coverage", {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                  "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 10**30,
                  "theta_bar_loops": 16}),
])
def test_b_no_array_can_hold_exits_2_at_once(files, command, config):
    # through the console script's sys.exit(main()), in a process that must end
    # within 60 s, so a run that draws block after block fails rather than hangs
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from logcount.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-c", code, command, "--config",
                          str(files / "config.json")],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "config error" in out.stderr


def test_ci_b_no_memory_can_hold_exits_2(files, capsys):
    # 2**59 draws fit an array index, so only the allocation can refuse them
    config = {"data": str(files / "counts.csv"), "bootstrap": {**BOOTSTRAP, "B": 2**59}}
    (files / "config.json").write_text(json.dumps(config))
    with pytest.warns(UserWarning, match="centering bias may dominate"):
        assert cli.main(["ci", "--config", str(files / "config.json")]) == 2
    assert "config error: the configured sizes need more memory" in capsys.readouterr().err


def test_coverage_b_no_memory_can_hold_exits_2(files, capsys):
    # one cell at 2**59 draws: refused by the allocation, before the target runs
    config = {**CONTRACT_CONFIGS["coverage"], "B": 2**59, "theta_bar_loops": 20_000}
    (files / "config.json").write_text(json.dumps(config))
    assert cli.main(["coverage", "--config", str(files / "config.json")]) == 2
    assert "config error: the configured sizes need more memory" in capsys.readouterr().err


CONTRACT_CONFIGS = {
    "simulate": {"model": MODEL, "n": 5},
    "fit": {"data": "{dir}/counts.csv"},
    "ci": {"data": "{dir}/counts.csv", "bootstrap": BOOTSTRAP},
    "mc-boxplot": {"model": MODEL, "n": 30, "replicates": 100, "theta_bar_loops": 16},
    "mixing": {"model": MODEL, "k": 3, "replicates": 20, "n_max": 3},
    "coverage": {"a": 0.1, "b": 0.1, "c": 2, "innovations": [{"family": "exponential"}],
                 "n": 60, "cells": [[2, 5]], "alphas": [0.1], "mc_loops": 3, "B": 50,
                 "theta_bar_loops": 16},
    "tv-check": {"innovation": {"family": "exponential"}, "sigmas": [1, 2]},
    "constants": {"innovation": {"family": "exponential"}},
}


def stamp(text):
    """Schema, command, seed and config hash of a JSON or CSV output."""
    if text.startswith("{"):
        payload = json.loads(text)
        return {k: payload[k] for k in ("schema", "command", "master_seed", "config_sha256")}
    header = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    return {"schema": header["logcount-output"], "command": header["command"],
            "master_seed": int(header["master_seed"]), "config_sha256": header["config_sha256"]}


# a 30-count series at these tunings draws the bootstrap's regime warnings
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", sorted(CONTRACT_CONFIGS))
def test_every_command_stamps_its_output(files, tmp_path, command):
    text = json.dumps({**CONTRACT_CONFIGS[command], "seed": 3})
    path = tmp_path / "config.json"
    path.write_text(text.replace("{dir}", json.dumps(str(files))[1:-1]))
    cfg = json.loads(path.read_text())
    for extra, seed in (([], 3), (["--seed", "5"], 5)):
        out = tmp_path / f"out{seed}"
        assert cli.main([command, "--config", str(path), "--out", str(out), *extra]) == 0
        assert stamp(out.read_text()) == {"schema": cli.SCHEMA, "command": command,
                                          "master_seed": seed,
                                          "config_sha256": cli._config_digest(cfg)[1]}
    assert cli.SCHEMA == "logcount/v1"


def test_config_path_that_is_a_directory_is_a_config_error(files):
    assert cli.main(["simulate", "--config", str(files)]) == 2


# small valid values mixed with values of the wrong type or out of range
def pool(*valid):
    return st.sampled_from([*valid, "abc", "0.1x", "", None, [5], [[5]], {}, {"a": 1}, True,
                            -1, float("nan"), float("inf"), "inf"])


INNOVATIONS = st.one_of(
    st.fixed_dictionaries({"family": pool("exponential", "half_normal", "chi_square")},
                          optional={"rate": pool(1, 2), "scale": pool(1, 0.5), "df": pool(2, 3)}),
    st.fixed_dictionaries({"family": st.just("half_cauchy")},
                          optional={"location": pool(0, 2), "scale": pool(1)}),
    pool(),
)
MODELS = st.one_of(
    st.fixed_dictionaries(
        {"a": pool(0.1, 0.3), "b": pool(0.1, 0.3), "c": pool(0, 2), "innovation": INNOVATIONS},
        optional={"sigma0": pool(1, 2), "extra": pool(1),
                  "exogenous": st.one_of(pool(), st.fixed_dictionaries(
                      {"kind": pool("trend", "iid")},
                      optional={"family": pool("normal", "uniform"), "mean": pool(0, 0.5),
                                "sd": pool(0.3), "half_width": pool(0.2), "slope": pool(1)}))}),
    pool(),
)


def one_key_mixed(valid, mixed, optional=None):
    """Configs of valid values (with any of the ``optional`` keys), and the same
    with one key drawn from its mixed pool."""
    base = st.fixed_dictionaries(valid, optional=optional or {})
    return st.one_of(base, st.sampled_from(sorted(mixed)).flatmap(
        lambda key: st.tuples(base, mixed[key]).map(lambda t: {**t[0], key: t[1]})))


VALID_INNOVATIONS = [{"family": "exponential"}, {"family": "chi_square", "df": 3},
                     {"family": "half_cauchy", "location": 0, "scale": 1}]
VALID_MODEL_KEYS = {"a": st.sampled_from([0.1, 0.3]), "b": st.sampled_from([0.1, 0.3]),
                    "innovation": st.sampled_from(VALID_INNOVATIONS)}
VALID_SIGMA0 = {"sigma0": st.sampled_from([1, 2])}
VALID_MODELS = st.one_of(
    st.fixed_dictionaries({**VALID_MODEL_KEYS, "c": st.sampled_from([0, 2])},
                          optional={**VALID_SIGMA0, "exogenous": st.just({"kind": "trend"})}),
    # an iid exogenous term replaces the trend, so c is 0 beside it
    st.fixed_dictionaries({**VALID_MODEL_KEYS, "c": st.just(0), "exogenous": st.sampled_from([
        {"kind": "iid", "family": "normal", "mean": 0.5, "sd": 0.3},
        {"kind": "iid", "family": "uniform", "mean": 0, "half_width": 0.2}])},
        optional=VALID_SIGMA0))
VALID_SEEDS = {"seed": st.sampled_from([0, 3])}
SEEDS = {"seed": pool(0, 3)}

# small valid values of coverage's keys; a run at these sizes takes tens of ms
COVERAGE_VALUES = {"a": (0.1, 0.3), "b": (0.1, 0.3), "c": (0, 2), "n": (2, 20, 60),
                   "mc_loops": (1, 3), "B": (50, 1), "theta_bar_loops": (1, 16), "seed": (0, 3),
                   "sigma0": (1, 2)}
COVERAGE = one_key_mixed({
    **{k: st.sampled_from(v) for k, v in COVERAGE_VALUES.items()},
    "innovations": st.lists(st.sampled_from(VALID_INNOVATIONS), min_size=1, max_size=2),
    "cells": st.lists(st.tuples(st.sampled_from([2, 1]), st.sampled_from([5, 1])).map(list),
                      min_size=1, max_size=2),
    "alphas": st.lists(st.sampled_from([0.1, 0.05]), min_size=1, max_size=2),
}, {
    **{k: pool(*v) for k, v in COVERAGE_VALUES.items()},
    "innovations": st.one_of(st.lists(INNOVATIONS, max_size=2), pool()),
    "cells": st.one_of(st.lists(st.tuples(pool(2, 1), pool(5, 1)).map(list), max_size=2), pool()),
    "alphas": st.one_of(st.lists(pool(0.1, 0.05), max_size=2), pool()),
})
# 600 replicates end a run's second 512-row block part way
MC_BOXPLOT_VALUES = {"n": (2, 20, 60, [20, 60]), "replicates": (100, 600),
                     "theta_bar_loops": (1, 600)}
MC_BOXPLOT = one_key_mixed(
    {"model": VALID_MODELS, "n": st.sampled_from(MC_BOXPLOT_VALUES["n"]),
     "replicates": st.sampled_from(MC_BOXPLOT_VALUES["replicates"])},
    {**{k: pool(*v) for k, v in MC_BOXPLOT_VALUES.items()}, **SEEDS, "model": MODELS},
    {"theta_bar_loops": st.sampled_from(MC_BOXPLOT_VALUES["theta_bar_loops"]), **VALID_SEEDS})
# small valid values of mixing's keys: at most 64 pairs over k + n_max + R <= 15 steps
MIXING_VALUES = {"k": (0, 5), "n_max": (1, 5), "R": (0, 5), "replicates": (1, 64)}
MIXING_MIXED = {**{k: pool(*v) for k, v in MIXING_VALUES.items()}, **SEEDS, "model": MODELS,
                "n_grid": st.one_of(st.lists(pool(1, 2, 5), max_size=3), pool())}
MIXING_OPTIONAL = {"R": st.sampled_from(MIXING_VALUES["R"]), **VALID_SEEDS}
MIXING_VALID = {"model": VALID_MODELS, "k": st.sampled_from(MIXING_VALUES["k"]),
                "replicates": st.sampled_from(MIXING_VALUES["replicates"])}
MIXING = st.one_of(
    one_key_mixed({**MIXING_VALID, "n_max": st.sampled_from(MIXING_VALUES["n_max"])},
                  MIXING_MIXED, MIXING_OPTIONAL),
    one_key_mixed({**MIXING_VALID, "n_grid": st.lists(st.sampled_from([5, 1, 2]), min_size=1,
                                                      max_size=3, unique=True)},
                  MIXING_MIXED, MIXING_OPTIONAL))
# at most 4 scales; a half-Cauchy pair with scale 200 sums the longest TV head
TV_SIGMAS = st.lists(st.sampled_from([0.5, 1, 2, 5, 200]), min_size=1, max_size=4)
TV_MIXED = {"innovation": INNOVATIONS, "innovations": st.one_of(st.lists(INNOVATIONS, max_size=2),
                                                               pool()),
            "sigmas": st.one_of(st.lists(pool(0.5, 1, 2, 5, 200), max_size=4), pool()), **SEEDS}
TV_CHECK = st.one_of(
    one_key_mixed({"innovation": st.sampled_from(VALID_INNOVATIONS), "sigmas": TV_SIGMAS},
                  TV_MIXED, VALID_SEEDS),
    one_key_mixed({"innovations": st.lists(st.sampled_from(VALID_INNOVATIONS), min_size=1,
                                           max_size=2), "sigmas": TV_SIGMAS},
                  TV_MIXED, VALID_SEEDS))
BOOTSTRAP_VALUES = {"l_n": (2, 1), "N_n": (5, 1), "B": (50, 1), "alpha": (0.1,)}
BOOTSTRAPS = one_key_mixed({k: st.sampled_from(v) for k, v in BOOTSTRAP_VALUES.items()},
                           {k: pool(*v) for k, v in BOOTSTRAP_VALUES.items()})
PATHS = pool("{dir}/counts.csv", "{dir}/inf.csv", "{dir}", "{dir}/missing.csv")
CURVE_PATHS = ["{dir}/curve.csv", "{dir}", None, 5, [5]]  # never a bare file name
CONFIGS = st.one_of(
    st.tuples(st.just("simulate"), one_key_mixed(
        {"model": VALID_MODELS, "n": st.sampled_from([0, 1, 5, 30])},
        {"model": MODELS, "n": pool(0, 1, 5, 30), **SEEDS}, VALID_SEEDS)),
    st.tuples(st.just("fit"), one_key_mixed(
        {"data": st.just("{dir}/counts.csv")},
        {"data": PATHS, "model": MODELS, "theta_bar": pool(0.5),
         "curve_out": st.sampled_from(CURVE_PATHS), **SEEDS},
        {"model": VALID_MODELS, "theta_bar": st.just(0.5),
         "curve_out": st.just(CURVE_PATHS[0]), **VALID_SEEDS})),
    st.tuples(st.just("ci"), one_key_mixed(
        {"data": st.just("{dir}/counts.csv"), "bootstrap": BOOTSTRAPS},
        {"data": PATHS, "bootstrap": st.one_of(BOOTSTRAPS, pool()), **SEEDS}, VALID_SEEDS)),
    st.tuples(st.just("constants"), one_key_mixed(
        {"innovation": st.sampled_from(VALID_INNOVATIONS)},
        {"innovation": INNOVATIONS, **SEEDS}, VALID_SEEDS)),
    st.tuples(st.just("coverage"), COVERAGE),
    st.tuples(st.just("mc-boxplot"), MC_BOXPLOT),
    st.tuples(st.just("mixing"), MIXING),
    st.tuples(st.just("tv-check"), TV_CHECK),
)


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
def test_fuzzed_configs_exit_with_a_documented_code(files, command_config):
    command, config = command_config
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    argv = [command, "--config", str(files / "config.json"), "--out", str(files / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    # a ci config with readable counts may draw the bootstrap's own warnings;
    # no other command warns
    allowed = CI_WARNINGS if command == "ci" else ()
    for w in caught:
        assert w.category is UserWarning and any(m in str(w.message) for m in allowed), w


# the UserWarnings of bootstrap.confidence_interval: a low B and its two
# regime checks (BootstrapConfig.regime_warnings)
CI_WARNINGS = ("bootstrap draws is low", "multiplier range should stay below",
               "centering bias may dominate")


def test_ci_outside_the_regime_warns_through_the_cli(tmp_path, files):
    # 30 counts at l_n=2, N_n=5: l_n*N_n*ln(30)^2/30 = 3.86
    config = {"data": str(files / "counts.csv"), "bootstrap": BOOTSTRAP, "seed": 3}
    with pytest.warns(UserWarning) as caught:
        code, _ = run(tmp_path, "ci", config)
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "B=50 bootstrap draws is low; quantiles will be coarse",
        "l_n*N_n*ln(n)^2/n = 3.86 >= 1: centering bias may dominate",
    ]


def test_cli_import_leaves_scipy_signal_unloaded():
    # every console-script run and worker start pays for what logcount.cli
    # imports, and scipy.signal alone cost about 0.3 s and 25 MB of it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, logcount.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "False"
