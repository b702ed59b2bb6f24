"""Command line interface tests: parsing, batching, CSV output, exit codes."""

import csv
import dataclasses
import io
import json

import pytest

from linfly import cli
from linfly.cli import (
    COLUMNS,
    ExperimentSpec,
    main,
    parse_scenario,
    run_experiments,
    write_csv,
)
from linfly.engine import Scenario


# --- parsing ----------------------------------------------------------------


def test_parse_minimal_defaults():
    sc = parse_scenario(["--n", "16", "--supervisor", "honest", "--seed", "7"])
    assert sc == Scenario(n=16, topology="random_connected", supervisor="honest",
                          corruption="none", seed=7, max_rounds=None)


def test_parse_full_flags():
    sc = parse_scenario([
        "--n", "32", "--topology", "far_pair", "--supervisor", "wrong-vids",
        "--seed", "3", "--corruption", "stale_channel_messages",
        "--max-rounds", "99",
    ])
    assert sc.topology == "far_pair"
    assert sc.supervisor == "wrong-vids"
    assert sc.corruption == "stale_channel_messages"
    assert sc.max_rounds == 99


def test_parse_accepts_underscore_supervisor():
    a = parse_scenario(["--n", "8", "--supervisor", "wrong_vids"])
    b = parse_scenario(["--n", "8", "--supervisor", "wrong-vids"])
    assert a.supervisor == b.supervisor == "wrong-vids"


@pytest.mark.parametrize("argv", [
    ["--n", "0"],
    ["--n", "8", "--supervisor", "bogus"],
    ["--n", "8", "--topology", "bogus"],
    ["--n", "3", "--topology", "far_pair"],
    ["--n", "8", "--reps", "0"],
    [],
])
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        parse_scenario(argv) if "--reps" not in argv else main(argv)
    assert exc.value.code == 2


# --- batching ---------------------------------------------------------------


def test_run_experiments_consecutive_seeds():
    spec = ExperimentSpec(
        scenarios=[Scenario(n=8, topology="star", supervisor="honest", seed=5)],
        reps=3,
    )
    rows = run_experiments(spec)
    assert [row["seed"] for row in rows] == [5, 6, 7]
    assert all(row["n"] == 8 for row in rows)
    assert all(row["connectivity_violations"] == 0 for row in rows)


def test_run_experiments_orders_by_scenario_then_seed():
    spec = ExperimentSpec(
        scenarios=[
            Scenario(n=4, topology="star", supervisor="honest", seed=0),
            Scenario(n=5, topology="star", supervisor="honest", seed=0),
        ],
        reps=2,
    )
    rows = run_experiments(spec)
    assert [(row["n"], row["seed"]) for row in rows] == [(4, 0), (4, 1), (5, 0), (5, 1)]


def test_run_experiments_validates():
    with pytest.raises(ValueError):
        run_experiments(ExperimentSpec(scenarios=[Scenario(n=0)]))
    with pytest.raises(ValueError):
        run_experiments(ExperimentSpec(
            scenarios=[Scenario(n=4, max_rounds=0)]))


def test_run_experiments_trace_preludes(tmp_path):
    path = tmp_path / "trace.jsonl"
    spec = ExperimentSpec(
        scenarios=[Scenario(n=8, topology="star", supervisor="honest", seed=1)],
        reps=2,
        trace=str(path),
    )
    run_experiments(spec)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    preludes = [rec["run"] for rec in lines if "run" in rec]
    assert preludes == [{"seed": 1, "n": 8}, {"seed": 2, "n": 8}]
    assert any("round" in rec for rec in lines)


# --- CSV --------------------------------------------------------------------


def test_write_csv_header_and_blank_none():
    rows = [{c: None for c in COLUMNS} | {"seed": 4, "n": 2}]
    buf = io.StringIO()
    write_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    parsed = next(csv.DictReader(io.StringIO(buf.getvalue())))
    assert parsed["seed"] == "4"
    assert parsed["rounds_to_all_reject"] == ""


def test_main_writes_stdout(capsys):
    code = main(["--n", "8", "--topology", "star", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 2
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["topology"] == "star" and row["supervisor"] == "honest"


def test_main_output_is_byte_identical(tmp_path):
    argv = ["--n", "16", "--topology", "two_clusters", "--supervisor", "split",
            "--seed", "3", "--reps", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 5


def test_main_out_writes_the_file_not_stdout(tmp_path, capsys):
    # --out is main's business: the batch spec carries no output path
    assert [f.name for f in dataclasses.fields(ExperimentSpec)] == [
        "scenarios", "reps", "trace"]
    out = tmp_path / "one.csv"
    assert main(["--n", "8", "--topology", "star", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == ",".join(COLUMNS)


def test_main_ten_seed_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--n", "16", "--topology", "path", "--supervisor", "honest",
                 "--seed", "0", "--reps", "10", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    assert [row["seed"] for row in rows] == [str(s) for s in range(10)]
    for row in rows:
        assert row["rounds_to_legal"] != ""
        assert row["connectivity_violations"] == "0"
        assert row["sybil_violations"] == "0"


def test_main_exit_one_on_violations(monkeypatch, capsys):
    real_run = cli.run

    def tainted(scenario, trace_path=None):
        result = real_run(scenario, trace_path)
        result.metrics.connectivity_violations = 2
        return result

    monkeypatch.setattr(cli, "run", tainted)
    assert main(["--n", "4", "--topology", "star"]) == 1
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert row["connectivity_violations"] == "2"
