import json

import pytest
from hypothesis import given, settings, strategies as st

from logcount import cli

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
])
def test_malformed_config_values_keep_documented_exit_codes(files, command, config, code):
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    assert cli.main([command, "--config", str(files / "config.json")]) == code


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
SEEDS = {"seed": pool(0, 3)}
PATHS = pool("{dir}/counts.csv", "{dir}/inf.csv", "{dir}", "{dir}/missing.csv")
CONFIGS = st.one_of(
    st.tuples(st.just("simulate"), st.fixed_dictionaries(
        {"model": MODELS, "n": pool(0, 1, 5, 30)}, optional=SEEDS)),
    st.tuples(st.just("fit"), st.fixed_dictionaries(
        {"data": PATHS}, optional={**SEEDS, "model": MODELS, "theta_bar": pool(0.5),
                                   "curve_out": st.sampled_from(  # never a bare file name
                                       ["{dir}/curve.csv", "{dir}", None, 5, [5]])})),
    st.tuples(st.just("ci"), st.fixed_dictionaries(
        {"data": PATHS, "bootstrap": st.one_of(pool(), st.fixed_dictionaries(
            {"l_n": pool(2, 1), "N_n": pool(5, 1), "B": pool(50, 1), "alpha": pool(0.1)}))},
        optional=SEEDS)),
    st.tuples(st.just("constants"), st.fixed_dictionaries(
        {"innovation": INNOVATIONS}, optional=SEEDS)),
)


@settings(max_examples=150, deadline=None)
@given(CONFIGS)
def test_fuzzed_configs_exit_with_a_documented_code(files, command_config):
    command, config = command_config
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    argv = [command, "--config", str(files / "config.json"), "--out", str(files / "out")]
    assert cli.main(argv) in (0, 2, 3, 4)
