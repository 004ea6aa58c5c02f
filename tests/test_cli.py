import csv
import io

import pytest

from roenum import cli
from roenum.cli import main
from roenum.problems import (Knapsack, SimulatedOracles, format_instance,
                             parse_instance)


@pytest.fixture
def knap_file(tmp_path):
    path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "8", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def allbits_file(tmp_path):
    path = tmp_path / "allbits.txt"
    path.write_text("allbits 3\n")
    return path


def test_gen_roundtrips(knap_file):
    problem, x = parse_instance(knap_file.read_text())
    assert isinstance(problem, Knapsack)
    assert len(x.sizes) == 8
    assert format_instance(problem, x) == knap_file.read_text()


@pytest.mark.parametrize("algo", ["exact", "fptas", "fpras", "swor"])
def test_enumerate_emits_csv(knap_file, tmp_path, algo, capsys):
    out = tmp_path / "run.csv"
    rc = main(["enumerate", "--instance", str(knap_file), "--algo", algo,
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "index"
    words = {r[1] for r in rows[1:]}
    problem, x = parse_instance(knap_file.read_text())
    assert len(words) == problem.exact_count(x)


@pytest.mark.parametrize("algo", ["exact", "swor"])
def test_index_tiers_write_width_one_over_m(knap_file, tmp_path, algo):
    out = tmp_path / "run.csv"
    assert main(["enumerate", "--instance", str(knap_file), "--algo", algo,
                 "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    problem, x = parse_instance(knap_file.read_text())
    m = problem.exact_count(x)
    assert len(rows) == m
    assert {row["width"] for row in rows} == {f"1/{m}"}


def test_enumerate_noise_flag(knap_file, tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["enumerate", "--instance", str(knap_file), "--algo", "fpras",
               "--noise", "extreme", "--delta", "1/20", "--out", str(out)])
    assert rc == 0


def test_parallel_virtual(allbits_file, tmp_path, capsys):
    out = tmp_path / "par.csv"
    rc = main(["parallel", "--instance", str(allbits_file), "--slaves", "2",
               "--mode", "paced", "--seed", "2", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "Q=" in err and "makespan=" in err
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert {r[1] for r in rows[1:]} == {f"{i:03b}" for i in range(8)}


def test_parallel_pswor(allbits_file, tmp_path):
    rc = main(["parallel", "--instance", str(allbits_file), "--algo",
               "pswor", "--slaves", "2", "--out",
               str(tmp_path / "p.csv")])
    assert rc == 0


def test_uniformity_passes_on_uniform_algorithm(allbits_file, capsys):
    rc = main(["uniformity", "--instance", str(allbits_file), "--algo",
               "fptas", "--runs", "400", "--mode", "first"])
    assert rc == 0
    assert "passed=True" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["first", "full"])
def test_uniformity_passes_on_a_single_solution(tmp_path, capsys, mode):
    path = tmp_path / "one.txt"
    path.write_text("allbits 0\n")
    rc = main(["uniformity", "--instance", str(path), "--algo", "fptas",
               "--runs", "50", "--mode", mode])
    assert rc == 0
    assert "pvalue=1 runs=50 passed=True" in capsys.readouterr().out


def test_uniformity_insufficient_runs(allbits_file, capsys):
    rc = main(["uniformity", "--instance", str(allbits_file), "--algo",
               "fptas", "--runs", "10"])
    assert rc == 2


def test_profile(knap_file, tmp_path):
    out = tmp_path / "prof.csv"
    rc = main(["profile", "--instance", str(knap_file), "--algo", "swor",
               "--window", "10", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["window", "count", "mean_attempts", "mean_ticks"]


def test_verify(allbits_file, capsys):
    rc = main(["verify", "--instance", str(allbits_file)])
    assert rc == 0
    assert "self-reducible=True" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert main(["enumerate"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("text", ["knapsack 3 5\n", "allbits\n",
                                  "knapsack 2 1\n-1 3\n",
                                  "knapsack 2 -1\n1 3\n", "allbits -2\n",
                                  "knapsack 1 3\n2\n7 7 7\n",
                                  "allbits 2\nknapsack 1 3\n"])
def test_malformed_instance_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["enumerate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["parallel", "--instance", "INST", "--slaves", "0"],
    ["parallel", "--instance", "INST", "--alpha", "0"],
    ["parallel", "--instance", "INST", "--delta-star", "0"],
    ["profile", "--instance", "INST", "--window", "0"],
    ["enumerate", "--instance", "INST", "--algo", "fpras", "--delta", "abc"],
    # more slaves than the 8 solutions of allbits 3
    ["parallel", "--instance", "INST", "--slaves", "20"],
    ["parallel", "--instance", "INST", "--mode", "paced", "--t-ticks", "-5"],
    ["gen", "--n", "3", "--capacity-frac", "nan"],
    ["parallel", "--instance", "INST", "--transport", "tcp"],  # no such option
])
def test_bad_option_value_exit_code(allbits_file, capsys, argv):
    assert main([str(allbits_file) if a == "INST" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_over_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "g30.txt"
    assert main(["gen", "--n", "30", "--out", str(path)]) == 0
    assert main(["verify", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err


def test_exact_count_over_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("knapsack 2 300000000\n1 400000000\n")
    assert main(["enumerate", "--instance", str(path), "--algo", "exact"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err


def test_missing_instance_exit_code(tmp_path, capsys):
    assert main(["verify", "--instance", str(tmp_path / "none.txt")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_uniformity_runs_are_independent_fpras_sessions(allbits_file,
                                                        monkeypatch):
    failed = []  # one set of failed instance keys per run

    class Recording(SimulatedOracles):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            failed.append(set())

        def fpras(self, x, eps, delta_fail):
            before = self.failures
            value = super().fpras(x, eps, delta_fail)
            if self.failures > before:
                failed[-1].add((self.problem.instance_key(x), eps))
            return value

    monkeypatch.setattr(cli, "SimulatedOracles", Recording)
    main(["uniformity", "--instance", str(allbits_file), "--algo", "fpras",
          "--delta", "9/10", "--runs", "40"])
    assert len(failed) == 40
    assert len({frozenset(f) for f in failed}) > 1

