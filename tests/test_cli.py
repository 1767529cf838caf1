import json

from logcount import cli

MODEL = {"a": 0.1, "b": 0.1, "c": 2, "innovation": {"family": "exponential"}}


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
