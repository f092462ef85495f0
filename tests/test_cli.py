import json
import os
import subprocess
import sys

import pytest

from boxprime.graph6 import encode_graph6
from boxprime.graphs import complete_graph, disjoint_union

CENSUS_2_8 = (
    "n,S,S_plus,S_box\n"
    "2,2,1,1\n"
    "3,4,2,2\n"
    "4,11,6,5\n"
    "5,34,21,21\n"
    "6,156,112,110\n"
    "7,1044,853,853\n"
    "8,12346,11117,11111\n"
)


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "boxprime", *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=300)


def test_census_graphs_exact_bytes():
    result = run_cli("census", "--instance", "graphs", "--n", "2..8")
    assert result.returncode == 0
    assert result.stdout == CENSUS_2_8


def test_census_degenerate_degrees():
    result = run_cli("census", "--instance", "graphs", "--n", "0..1")
    assert result.returncode == 0
    assert result.stdout == "n,S,S_plus,S_box\n0,1,,\n1,1,1,0\n"


def test_census_json_uses_decimal_strings():
    result = run_cli("census", "--instance", "graphs", "--n", "4",
                     "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == [
        {"n": "4", "S": "11", "S_plus": "6", "S_box": "5"}]


def test_census_hamming():
    result = run_cli("census", "--instance", "hamming", "--n", "12")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "12,139,4,1"


def test_factor_listing():
    result = run_cli("factor", "C]", "A_", "@")
    assert result.returncode == 0
    assert result.stdout == "C]: A_ x 2\nA_: A_ x 1 PRIME\n@: UNIT\n"


def test_factor_reads_stdin():
    result = run_cli("factor", stdin="Bw\n\nC]\n")
    assert result.returncode == 0
    assert result.stdout == "Bw: Bw x 1 PRIME\nC]: A_ x 2\n"


def test_wright_report_row():
    result = run_cli("wright", "--R", "3", "--n", "8")
    assert result.returncode == 0
    assert result.stdout == (
        "n,R,truncated,true,remainder,bound,ratio\n"
        "8,3,3270656/315,11117,231199/315,512,231199/161280\n")


def test_bounds_gap_rows():
    result = run_cli("bounds", "--check", "gap", "--n", "4..6")
    assert result.returncode == 0
    assert result.stdout == (
        "n,lhs,rhs,holds\n"
        "4,1,13,true\n"
        "5,0,13,true\n"
        "6,2,38,true\n")


def test_functions_stats_rows():
    result = run_cli("functions", "--fn", "d", "--n", "4..5",
                     "--population", "add")
    assert result.returncode == 0
    assert result.stdout == (
        "n,population,count,sum,mean,variance,max\n"
        "4,add,6,13,13/6,5/36,3\n"
        "5,add,21,42,2,0,2\n")


def test_semiring_monotonicity_descents():
    result = run_cli("semiring", "--instance", "hamming", "--monotonicity",
                     "--n-max", "8")
    assert result.returncode == 0
    assert result.stdout == (
        "n,S_plus,S_plus_next\n"
        "4,2,1\n"
        "6,2,1\n")


def test_semiring_closure_report():
    result = run_cli("semiring", "--instance", "hamming", "--closure",
                     "--n-max", "4", "--format", "json")
    assert result.returncode == 0
    row = json.loads(result.stdout)[0]
    assert row["closed"] is True
    assert row["operation"] is None


def test_out_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    result = run_cli("census", "--instance", "graphs", "--n", "2..4",
                     "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text().startswith("n,S,S_plus,S_box\n2,2,1,1\n")


def test_identical_invocations_are_byte_identical():
    args = ("census", "--instance", "graphs", "--n", "2..6",
            "--format", "json")
    first = run_cli(*args, env_extra={"PYTHONHASHSEED": "0"})
    second = run_cli(*args, env_extra={"PYTHONHASHSEED": "4242"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_capacity_exit_code():
    result = run_cli("census", "--instance", "graphs", "--n", "25")
    assert result.returncode == 2
    assert "25" in result.stderr


def test_domain_exit_code():
    disconnected = encode_graph6(disjoint_union(complete_graph(2),
                                                complete_graph(2)))
    result = run_cli("factor", disconnected)
    assert result.returncode == 3


def test_parse_exit_codes():
    assert run_cli("factor", "A").returncode == 4
    assert run_cli("census", "--instance", "graphs",
                   "--n", "8..2").returncode == 4
    assert run_cli("census", "--instance", "graphs",
                   "--n", "x..y").returncode == 4


def test_unknown_flags_are_rejected():
    assert run_cli("census", "--instance", "rings", "--n", "2").returncode != 0
    assert run_cli("frobnicate").returncode != 0
