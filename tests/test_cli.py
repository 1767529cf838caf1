import json
import warnings

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
])
def test_malformed_config_values_keep_documented_exit_codes(files, command, config, code):
    text = json.dumps(config).replace("{dir}", json.dumps(str(files))[1:-1])
    (files / "config.json").write_text(text)
    assert cli.main([*command.split(), "--config", str(files / "config.json")]) == code


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    # a ci config with readable counts may draw the bootstrap's own warnings
    for w in caught:
        assert w.category is UserWarning and any(m in str(w.message) for m in CI_WARNINGS), w


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
