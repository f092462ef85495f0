import errno
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from boxprime import cli, counting, factor, graphs, semiring
from boxprime.errors import BoxprimeError, ParseError
from boxprime.graph6 import encode_graph6
from boxprime.graphs import (canonical_form, canonical_key, cartesian_product,
                             complete_graph, cycle_graph, disjoint_union,
                             empty_graph, from_edges, path_graph, relabel)
from _oracles import decode_graph6_body_by_columns, factorize_by_table

K2, K3 = complete_graph(2), complete_graph(3)

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


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env() -> dict:
    """This environment, with the checkout's sources first on the path of
    a child python, as pytest's pythonpath puts them on its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(*args, stdin=None, env_extra=None):
    env = _child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "boxprime", *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=300)


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "digests.json"


def test_stdout_matches_the_recorded_digests(capsys):
    # the SHA-256 of stdout recorded for each benchmark command
    recorded = json.loads(DIGESTS.read_text(encoding="ascii"))
    assert len(recorded) == 11
    for command, digest in recorded.items():
        assert cli.main(command.split()) == 0, command
        out = capsys.readouterr().out.encode("ascii")
        assert hashlib.sha256(out).hexdigest() == digest, command


def test_census_graphs_exact_bytes():
    result = run_cli("census", "--instance", "graphs", "--n", "2..8")
    assert result.returncode == 0
    assert result.stdout == CENSUS_2_8


def test_census_degenerate_degrees():
    result = run_cli("census", "--instance", "graphs", "--n", "0..1")
    assert result.returncode == 0
    assert result.stdout == "n,S,S_plus,S_box\n0,1,,\n1,1,1,0\n"


def test_cold_import_leaves_out_dataclasses_and_json():
    # every cold process pays for its imports; only --format json needs json
    code = ("import sys, boxprime.cli; "
            "print(sorted({'dataclasses', 'json'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=_child_env(), timeout=60)
    assert result.returncode == 0
    assert result.stdout == "[]\n"


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


def test_factor_reports_bad_lines_one_at_a_time():
    result = run_cli("factor", stdin="A_\n!!\n\nC]\nA\n")
    assert result.returncode == 4
    assert result.stdout == "A_: A_ x 1 PRIME\nC]: A_ x 2\n"
    assert result.stderr.splitlines() == [
        "parse: line 2: invalid graph6 header byte 33",
        "parse: line 5: graph6 body for order 2 needs 1 characters, got 0",
    ]


def test_factor_exits_with_the_first_failure():
    disconnected = encode_graph6(disjoint_union(complete_graph(2),
                                                complete_graph(2)))
    result = run_cli("factor", "A_", disconnected, "!!")
    assert result.returncode == 3
    assert result.stdout == "A_: A_ x 1 PRIME\n"
    assert [line.split(":")[:2] for line in result.stderr.splitlines()] == [
        ["domain", " argument 2"], ["parse", " argument 3"]]


def test_factor_past_the_enumeration_cap():
    k2 = complete_graph(2)
    text = encode_graph6(cartesian_product(k2, path_graph(9)))
    result = run_cli("factor", text)
    assert result.returncode == 0
    assert result.stdout == f"{text}: A_ x 1, H??XQa_ x 1\n"
    cube = k2
    for _ in range(5):
        cube = cartesian_product(cube, k2, cap=64)
    text = encode_graph6(cube)
    result = run_cli("factor", text)
    assert result.returncode == 0
    assert result.stdout == f"{text}: A_ x 6\n"


def test_wright_report_row():
    result = run_cli("wright", "--R", "3", "--n", "8")
    assert result.returncode == 0
    assert result.stdout == (
        "n,R,truncated,true,remainder,bound,ratio\n"
        "8,3,3270656/315,11117,231199/315,512,231199/161280\n")


def test_wright_answers_past_the_fourth_term():
    # connected graphs of order 13..20 (OEIS A001349)
    connected = (50335907869219, 29003487462848061, 31397381142761241960,
                 63969560113225176176277, 245871831682084026519528568,
                 1787331725248899088890200576580,
                 24636021429399867655322650759681644,
                 645465483198722799426731128794502283004)
    result = run_cli("wright", "--R", "6", "--n", "13..20")
    assert result.returncode == 0 and result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[0] == "n,R,truncated,true,remainder,bound,ratio"
    assert [int(line.split(",")[3]) for line in lines[1:]] == list(connected)


def test_bounds_gap_rows():
    result = run_cli("bounds", "--check", "gap", "--n", "4..6")
    assert result.returncode == 0
    assert result.stdout == (
        "n,lhs,rhs,holds\n"
        "4,1,13,true\n"
        "5,0,13,true\n"
        "6,2,38,true\n")


# stdout of every bounds check on 2..12, byte for byte
BOUNDS_2_12 = {
    ("eq1",): (
        "n,lower,middle,upper,holds,middle_plain\n"
        "2,0,0,0,true,1\n"
        "3,1,2,2,true,2\n"
        "4,2,4,4,true,5\n"
        "5,8,13,15,true,13\n"
        "6,27,41,45,true,43\n"
        "7,145,191,212,true,191\n"
        "8,1007,1208,1268,true,1214\n"
        "9,12320,13588,13906,true,13588\n"
        "10,274575,288366,290038,true,288387\n"
        "11,12007355,12297299,12314068,true,12297299\n"
        "12,1019023911,1031335788,1031648368,true,1031335900\n"
    ),
    ("eq2",): (
        "n,lower,middle,upper,holds,middle_plain\n"
        "2,0,0,0,true,0\n"
        "3,0,0,0,true,0\n"
        "4,0,0,0,true,1\n"
        "5,0,0,0,true,0\n"
        "6,2,2,2,true,2\n"
        "7,0,0,0,true,0\n"
        "8,5,6,6,true,6\n"
        "9,0,0,0,true,2\n"
        "10,21,21,21,true,21\n"
        "11,0,0,0,true,0\n"
        "12,120,122,124,true,122\n"
    ),
    ("lem2",): (
        "n,depth,middle,upper,holds\n"
        "2,3,-1,2,false\n"
        "3,3,0,5,true\n"
        "4,3,0,5,true\n"
        "5,3,0,5,true\n"
        "6,3,0,13,true\n"
        "7,3,0,13,true\n"
        "8,3,0,13,true\n"
        "9,3,3,44,true\n"
        "10,3,0,44,true\n"
        "11,3,0,44,true\n"
        "12,3,10,191,true\n"
    ),
    ("lem2", "--D", "4"): (
        "n,depth,middle,upper,holds\n"
        "2,4,-1,5,false\n"
        "3,4,-2,5,false\n"
        "4,4,0,13,true\n"
        "5,4,0,13,true\n"
        "6,4,-2,13,false\n"
        "7,4,0,13,true\n"
        "8,4,0,44,true\n"
        "9,4,-1,44,false\n"
        "10,4,0,44,true\n"
        "11,4,0,44,true\n"
        "12,4,-2,191,false\n"
    ),
    ("gap",): (
        "n,lhs,rhs,holds\n"
        "2,0,5,true\n"
        "3,0,12,true\n"
        "4,1,13,true\n"
        "5,0,13,true\n"
        "6,2,38,true\n"
        "7,0,38,true\n"
        "8,6,45,true\n"
        "9,3,167,true\n"
        "10,21,190,true\n"
        "11,0,190,true\n"
        "12,122,1200,true\n"
    ),
    ("leading",): (
        "n,pn,gap,leading,residual\n"
        "2,4,1,1,0\n"
        "3,6,2,2,0\n"
        "4,8,6,6,0\n"
        "5,10,21,21,0\n"
        "6,12,122,112,10\n"
        "7,14,853,853,0\n"
        "8,16,11132,11117,15\n"
        "9,18,261300,261080,220\n"
        "10,20,11716676,11716571,105\n"
        "11,22,1006700565,1006700565,0\n"
        "12,24,164059853248,164059830476,22772\n"
    ),
    ("axioms",): (
        "n,connected_over_total,prime_over_connected,connected_step,"
        "prime_half_step,gap_over_prev_connected,prime_gap_over_half\n"
        "2,1/2,1,1,0,1,\n"
        "3,1/2,1,1/2,0,2,\n"
        "4,6/11,5/6,1/3,1/5,5/2,1\n"
        "5,21/34,1,2/7,1/21,13/6,0\n"
        "6,28/39,55/56,3/16,1/55,44/21,1\n"
        "7,853/1044,1,112/853,2/853,191/112,0\n"
        "8,11117/12346,11111/11117,853/11117,5/11111,1229/853,6/5\n"
        "9,65270/68667,261077/261080,11117/261080,5/261077,13588/11117,3/5\n"
        "10,11716571/12005168,11716550/11716571,261080/11716571,"
        "21/11716550,288597/261080,1\n"
        "11,1006700565/1018997864,1,11716571/1006700565,7/335566855,"
        "12297299/11716571,0\n"
        "12,41014957619/41272793148,82029915177/82029915238,"
        "1006700565/164059830476,55/82029915177,1031342116/1006700565,61/55\n"
    ),
}


@pytest.mark.parametrize("check", list(BOUNDS_2_12), ids=" ".join)
def test_bounds_checks_on_two_to_twelve(check, capsys):
    assert cli.main(["bounds", "--check", check[0], "--n", "2..12",
                     *check[1:]]) == 0
    assert capsys.readouterr() == (BOUNDS_2_12[check], "")


def test_bounds_check_choices_follow_the_table(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bounds", "--check", "nope", "--n", "2..12"])
    err = capsys.readouterr().err
    assert "--check {eq1,eq2,lem2,gap,leading,axioms}" in err
    assert "argument --check: invalid choice: 'nope'" in err


@pytest.mark.parametrize("check", ["eq1", "axioms"])
@pytest.mark.parametrize("degrees", ["0", "0..3"])
def test_bounds_refuse_degree_zero(check, degrees, capsys):
    assert cli.main(["bounds", "--check", check, "--n", degrees]) == 3
    assert capsys.readouterr() == ("", "domain: degree must be positive\n")


@pytest.mark.parametrize("check", ["lem2", "leading"])
@pytest.mark.parametrize("degrees", ["0", "1", "1..3", "0..40"])
def test_bounds_refuse_degrees_below_two_before_any_count(check, degrees,
                                                         monkeypatch, capsys):
    # at degree 1 the cofactor is the unit, which no composite count holds
    def forbidden(n):
        raise AssertionError("a count was read")

    build = cli.build_instance
    monkeypatch.setattr(cli, "build_instance", lambda *args, **kwargs:
                        build(*args, **kwargs)._replace(census=forbidden))
    assert cli.main(["bounds", "--check", check, "--n", degrees]) == 3
    assert capsys.readouterr() == ("", "domain: degree must be at least 2\n")


@pytest.mark.parametrize("mode, one", [
    ([], "n,S,S_plus,S_box,p\n1,1,1,0,2\n"),
    (["--monotonicity"], "n,S_plus,S_plus_next\n"),
    (["--closure"],
     "instance,n_max,closed,operation,left,right\ngraphs,1,true,,,\n"),
    (["--self-complementary"], "n,identity,enumerated,equal\n1,1,1,true\n"),
], ids=["summary", "monotonicity", "closure", "self-complementary"])
def test_semiring_refuses_an_empty_degree_range(mode, one, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("an instance was built")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_instance", forbidden)
        for n_max in ("0", "-5"):
            assert cli.main(["semiring", *mode, "--n-max", n_max]) == 3
            assert capsys.readouterr() == ("", "domain: --n-max must be "
                                               "positive\n")
    assert cli.main(["semiring", *mode, "--n-max", "1"]) == 0
    assert capsys.readouterr() == (one, "")


def test_functions_stats_rows():
    result = run_cli("functions", "--fn", "d", "--n", "4..5",
                     "--population", "add")
    assert result.returncode == 0
    assert result.stdout == (
        "n,population,count,sum,mean,variance,max\n"
        "4,add,6,13,13/6,5/36,3\n"
        "5,add,21,42,2,0,2\n")


def test_functions_past_the_enumeration_cap():
    result = run_cli("functions", "--fn", "d", "--n", "0..1", "--population",
                     "add")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1:] == ["0,add,0,0,,,", "1,add,1,1,1,0,1"]
    # 261077 primes with d = 2, and K3^2, P3^2, K3 x P3 with d = 3, 3, 4
    result = run_cli("functions", "--fn", "d", "--n", "9", "--population",
                     "add")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == \
        "9,add,261080,522164,130541/65270,24476/1065043225,4"
    assert run_cli("functions", "--fn", "phistar", "--n", "9", "--population",
                   "add").returncode == 2
    # the primes are coprime to every other connected member: arithmetic
    result = run_cli("functions", "--fn", "phistar", "--n", "9")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == \
        f"9,mult,261077,{261077 * 261079},261079,0,261079"
    assert run_cli("functions", "--fn", "phistar", "--n", "33").returncode == 2
    assert run_cli("functions", "--fn", "d", "--n", "1").returncode == 3
    assert run_cli("functions", "--fn", "d", "--n", "33", "--population",
                   "add").returncode == 2


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
    result = run_cli("census", "--instance", "graphs", "--n", "33")
    assert result.returncode == 2
    assert "33" in result.stderr


def test_enum_cap_ceiling_is_checked_before_any_instance(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "build_instance", forbidden)
    limit = cli.ENUM_CAP_CEILING
    assert cli.main(["census", "--n", "2", "--enum-cap", str(limit + 1)]) == 2
    assert capsys.readouterr().err.startswith("capacity: --enum-cap")
    for cap, argv in (("-1", ["census", "--n", "2"]),
                      ("-5", ["census", "--instance", "even", "--n", "1"])):
        assert cli.main([*argv, "--enum-cap", cap]) == 3
        assert capsys.readouterr() == (
            "", f"domain: --enum-cap {cap} is negative\n")
    # factor enumerates nothing, so it takes no --enum-cap at all
    with pytest.raises(SystemExit) as exc:
        cli.main(["factor", "A_", "--enum-cap", str(limit + 1)])
    assert exc.value.code == 2


def test_wright_cycle_index_cap_is_checked_before_the_walk(monkeypatch,
                                                          capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cycle-index walk started")

    monkeypatch.setattr(counting, "_cycle_index_sums", forbidden)
    assert cli.main(["wright", "--R", "1", "--n", "9..33"]) == 2
    assert capsys.readouterr().err.startswith("capacity: cycle-index")


def test_wright_refuses_short_orders_before_any_polynomial(monkeypatch,
                                                          capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a polynomial was derived")

    monkeypatch.setattr(cli, "connected_series_polynomial", forbidden)
    assert cli.main(["wright", "--R", "16", "--n", "20..32"]) == 3
    assert capsys.readouterr() == (
        "", "domain: order must exceed twice the truncation order\n")


@pytest.mark.parametrize("argv, err", [
    # unions with K1 reach order n_max - 1; the first order past the cap
    # is named, as a walk in ascending order would meet it
    (["--closure", "--n-max", "10"],
     "graphs: member enumeration at 9 beyond horizon 8"),
    (["--closure", "--instance", "hamming", "--n-max", "12"],
     "hamming: member enumeration at 9 beyond horizon 8"),
    (["--closure", "--instance", "even", "--n-max", "9", "--enum-cap", "5"],
     "even: member enumeration at 6 beyond horizon 5"),
    (["--self-complementary", "--n-max", "9"],
     "enumeration of order 9 exceeds cap 8"),
    (["--self-complementary", "--n-max", "10", "--enum-cap", "6"],
     "enumeration of order 7 exceeds cap 6"),
])
def test_semiring_enumeration_limits_are_checked_first(monkeypatch, capsys,
                                                       argv, err):
    walked = []
    monkeypatch.setattr(graphs, "_enumerate", walked.append)
    assert cli.main(["semiring", *argv]) == 2
    assert capsys.readouterr() == ("", f"capacity: {err}\n")
    assert walked == []


def _refusal_cases():
    """Every report that reads an instance, on degrees 2 to one past the
    horizon of its path, with the refusal that names that degree."""
    # instance -> the horizon of its counts and its least prime degree;
    # every enumeration stops at 8
    for name, top, p in (("graphs", 32, 2), ("even", 8, 3),
                         ("hamming", 64, 2)):
        past = f"{name}: degree {top + 1} beyond horizon {top}"
        reports = [["census"]] + [["bounds", "--check", check] for check in
                                  ("eq1", "eq2", "lem2", "gap", "axioms")]
        for argv in reports:
            yield [*argv, "--instance", name, "--n", f"2..{top + 1}"], past
        # leading reads degree p n: the first n past the horizon names p n
        hi = top // p + 1
        yield (["bounds", "--check", "leading", "--instance", name,
                "--n", f"2..{hi}"],
               f"{name}: degree {p * hi} beyond horizon {top}")
        for fn in ("d", "phistar"):
            for population in ("add", "mult"):
                argv = ["functions", "--fn", fn, "--population", population,
                        "--instance", name]
                # without unique factorization every population is
                # enumerated, and with it phistar over connected members is
                if name == "even" or (fn, population) == ("phistar", "add"):
                    yield ([*argv, "--n", "2..9"],
                           f"{name}: member enumeration at 9 beyond horizon 8")
                else:
                    yield [*argv, "--n", f"2..{top + 1}"], past
        for mode in ([], ["--monotonicity"]):
            yield (["semiring", *mode, "--instance", name,
                    "--n-max", str(top + 1)], past)


@pytest.mark.parametrize("argv, err", [
    (["census", "--instance", "even", "--n", "1..9"],
     "even: degree 9 beyond horizon 8"),
    (["census", "--n", "28..38"], "graphs: degree 33 beyond horizon 32"),
    (["functions", "--fn", "phistar", "--n", "7..9", "--population", "add"],
     "graphs: member enumeration at 9 beyond horizon 8"),
    (["functions", "--fn", "phistar", "--n", "2..9", "--population", "add",
      "--instance", "even"],
     "even: member enumeration at 9 beyond horizon 8"),
    (["functions", "--fn", "d", "--n", "2..9", "--instance", "even"],
     "even: member enumeration at 9 beyond horizon 8"),
    (["functions", "--fn", "phistar", "--n", "2..38"],
     "graphs: degree 33 beyond horizon 32"),
    (["semiring", "--instance", "even", "--n-max", "9"],
     "even: degree 9 beyond horizon 8"),
    (["semiring", "--instance", "even", "--monotonicity", "--n-max", "9"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "eq1", "--instance", "even", "--n", "1..9"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "eq2", "--instance", "even", "--n", "2..9"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "gap", "--instance", "even", "--n", "1..9"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "axioms", "--instance", "even", "--n", "1..9"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "lem2", "--instance", "even", "--n", "2..20"],
     "even: degree 9 beyond horizon 8"),
    (["bounds", "--check", "lem2", "--instance", "even", "--n", "2",
      "--D", "10"], "even: degree 9 beyond horizon 8"),
    # the first degree the rows would read past the horizon is named
    (["bounds", "--check", "eq1", "--instance", "even", "--n", "12"],
     "even: degree 11 beyond horizon 8"),
    *(pytest.param(argv, err, id=" ".join(argv))
      for argv, err in _refusal_cases()),
])
def test_degree_ranges_are_refused_before_any_enumeration(monkeypatch, capsys,
                                                         argv, err):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cycle-index walk started")

    def uncounted(*args, **kwargs):
        raise AssertionError("a count window was built")

    walked = []
    monkeypatch.setattr(graphs, "_enumerate", walked.append)
    # empty count windows, so that no earlier test has walked for them
    monkeypatch.setattr(counting, "_cycle_index_sums", forbidden)
    for cached in (counting.graph_totals, counting.graph_connected_totals):
        cached.cache_clear()
    # and no free family's census window at all, cached or not, so that the
    # hamming rows show its multiplicative transform never ran
    monkeypatch.setattr(semiring, "_free_census", uncounted)
    # a fresh even census cache, so that no earlier test has walked for it
    monkeypatch.setattr(semiring, "_even_census",
                        functools.cache(semiring._even_census.__wrapped__))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"capacity: {err}\n")
    assert walked == []


def _dry_run_reports():
    """Every report the CLI runs after a dry run, as run(inst, hi) over the
    degrees up to hi."""
    yield "census", lambda inst, hi: cli._census_rows(inst, range(2, hi + 1))
    for check, (rows_over, _) in cli.BOUNDS_CHECKS.items():
        yield check, lambda inst, hi, rows_over=rows_over: rows_over(
            inst, range(2, hi + 1), 3)
    for fn, population in (("d", "add"), ("d", "mult"), ("sigmastar", "mult"),
                           ("phistar", "mult")):
        yield f"{fn} {population}", lambda inst, hi, fn=fn, pop=population: \
            cli._function_rows(inst, range(2, hi + 1), fn, pop)
    yield "summary", cli._summary_rows
    yield "monotonicity", semiring.monotonicity_report


def _outcome(run, inst, hi):
    try:
        run(inst, hi)
    except BoxprimeError as exc:
        return type(exc), str(exc)
    return "answered"


@functools.cache
def _dry_run_instance(name, cap):
    return semiring.build_instance(name, enum_cap=cap)


@pytest.mark.parametrize("name, cap", [("graphs", 8), ("even", 8),
                                       ("even", 2), ("hamming", 8)],
                         ids=["graphs", "even", "even-cap-2", "hamming"])
@pytest.mark.parametrize("report", list(_dry_run_reports()),
                         ids=[label for label, _ in _dry_run_reports()])
def test_dry_run_meets_the_outcome_of_the_real_run(report, name, cap):
    # the dry run reads the degrees the real run reads, so it succeeds or
    # fails as the real run does, with the same error
    _, run = report
    inst = _dry_run_instance(name, cap)
    top = inst.add_horizon
    # the CLI never passes an empty degree range
    for hi in sorted({max(2, h) for h in (top // 3, top // 2, top - 2,
                                          top + 2)}):
        assert _outcome(run, semiring.DryRun(inst), hi) == \
            _outcome(run, inst, hi), hi


@pytest.mark.parametrize("argv", [
    pytest.param(["--n", "1..40"], id="graphs"),
    # the even family enumerates its population, and the dry run lists no
    # member, so the unit must be refused before a path is chosen
    pytest.param(["--n", "1..9", "--instance", "even"], id="even"),
])
def test_unit_degree_is_refused_before_the_horizon(monkeypatch, capsys, argv):
    # an ascending walk meets the unit before the horizon, and so does the
    # check that runs first
    walked = []
    monkeypatch.setattr(graphs, "_enumerate", walked.append)
    assert cli.main(["functions", "--fn", "d", *argv]) == 3
    assert capsys.readouterr() == (
        "", "domain: the one-vertex unit is neither prime nor composite\n")
    assert walked == []


@pytest.mark.parametrize("argv", [["census", "--n", "2"], ["factor", "A_"]])
@pytest.mark.parametrize("missing", [True, False],
                         ids=["missing directory", "directory"])
def test_out_to_a_path_that_cannot_be_written(tmp_path, capsys, argv,
                                              missing):
    target = tmp_path / "missing" / "out.txt" if missing else tmp_path
    reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
    assert cli.main([*argv, "--out", str(target)]) == 3
    assert capsys.readouterr() == (
        "", f"domain: cannot write {target}: {reason}\n")


def test_factor_order_limit_is_read_from_the_header(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the graph6 body was decoded")

    monkeypatch.setattr(cli, "_decode_rows", forbidden)
    # an edgeless order-3000 graph: a long-form header, then C(3000, 2)
    # zero bits in 749750 six-bit characters
    text = "~?mw" + "?" * 749750
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{text}\n"))
    assert cli.main(["factor"]) == 2
    assert capsys.readouterr().err == (
        "capacity: line 1: factorization of order 3000 exceeds the limit "
        "256\n")


def test_factor_prime_order_above_the_canonical_cap_is_refused_from_the_header(
        monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the graph6 body was decoded")

    monkeypatch.setattr(cli, "_decode_rows", forbidden)
    # the 29-cycle, a truncated order-29 line, and an edgeless order-251
    # line: a graph of prime order is one factor of that order
    lines = [encode_graph6(cycle_graph(29)), chr(29 + 63),
             encode_graph6(empty_graph(251))]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(t + "\n" for t in lines)))
    assert cli.main(["factor"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "capacity: line 1: canonical form of order 29 exceeds cap 24\n"
        "capacity: line 2: canonical form of order 29 exceeds cap 24\n"
        "capacity: line 3: canonical form of order 251 exceeds cap 24\n")


def _factor_main(monkeypatch, texts, stdin: bool) -> int:
    """Run `factor` in-process on texts, as arguments or as stdin lines."""
    if stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(t + "\n" for t in texts)))
        return cli.main(["factor"])
    return cli.main(["factor", *texts])


@pytest.mark.parametrize("stdin", [False, True], ids=["arguments", "stdin"])
def test_factor_echoes_each_input_stripped(monkeypatch, capsys, stdin):
    texts = [" A_", "C]\t", " >>graph6<<Bw "]
    assert _factor_main(monkeypatch, texts, stdin) == 0
    assert capsys.readouterr() == (
        "A_: A_ x 1 PRIME\nC]: A_ x 2\n>>graph6<<Bw: Bw x 1 PRIME\n", "")


@pytest.mark.parametrize("stdin", [False, True], ids=["arguments", "stdin"])
@pytest.mark.parametrize("graph, message", [
    (empty_graph(0),
     "domain: {}: connectivity is undefined for the empty graph"),
    (disjoint_union(K2, K3),
     "domain: {}: factorization is defined for connected graphs only"),
    (disjoint_union(K2, K2),
     "domain: {}: factorization is defined for connected graphs only"),
    (disjoint_union(empty_graph(1), cycle_graph(5)),
     "domain: {}: factorization is defined for connected graphs only"),
    (empty_graph(257),
     "capacity: {}: factorization of order 257 exceeds the limit 256"),
    (cycle_graph(29),
     "capacity: {}: canonical form of order 29 exceeds cap 24"),
], ids=["order 0", "disconnected prime order", "disconnected composite order",
        "isolated vertex 0", "order 257", "prime order 29"])
def test_factor_refusals(monkeypatch, capsys, graph, message, stdin):
    assert _factor_main(monkeypatch, [encode_graph6(graph)], stdin) == \
        (2 if message.startswith("capacity") else 3)
    where = "line 1" if stdin else "argument 1"
    assert capsys.readouterr() == ("", message.format(where) + "\n")


@pytest.mark.parametrize("text", ["A", "D?\x7f", "D\x80?", "Aw", "D?A"],
                         ids=["length", "byte 127", "byte 128", "padding",
                              "padding order 5"])
def test_factor_malformed_bodies_match_the_column_oracle(monkeypatch, capsys,
                                                         text):
    with pytest.raises(ParseError) as expected:
        decode_graph6_body_by_columns(text[1:], ord(text[0]) - 63)
    assert _factor_main(monkeypatch, [text], True) == 4
    assert capsys.readouterr() == ("", f"parse: line 1: {expected.value}\n")


def test_factor_reports_a_repeated_bad_line_each_time(monkeypatch, capsys):
    assert _factor_main(monkeypatch, ["A", "C]", "A"], True) == 4
    error = "graph6 body for order 2 needs 1 characters, got 0"
    assert capsys.readouterr() == (
        "C]: A_ x 2\n", f"parse: line 1: {error}\nparse: line 3: {error}\n")


def test_factor_answers_an_exact_repeat_from_the_line_memo(monkeypatch,
                                                           capsys):
    text = encode_graph6(cartesian_product(K3, K2))
    cli._factor_line.cache_clear()
    assert _factor_main(monkeypatch, [text, text], True) == 0
    assert capsys.readouterr().out == f"{text}: A_ x 1, Bw x 1\n" * 2
    info = cli._factor_line.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_factor_searches_each_distinct_layer_once(monkeypatch, capsys):
    # the 3-cube's three K2 layers have one neighbour-row tuple
    cube = cartesian_product(cartesian_product(K2, K2), K2)
    graphs._canonical_bits_for.cache_clear()
    assert _factor_main(monkeypatch, [encode_graph6(cube)], False) == 0
    assert capsys.readouterr().out.endswith(": A_ x 3\n")
    info = graphs._canonical_bits_for.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_factor_memos_are_bounded():
    for memo in (cli._factor_line, graphs._canonical_bits_for,
                 factor._is_prime_number):
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


def _factor_stream(seed: int, lines: int = 300):
    """Seeded factor input: relabelled products of 2-3 random connected
    factors (orders 2..7, product order <= 24) and random graphs of prime
    order, with exact and relabelled repeats.  Yields each line with the
    prime factors its construction implies, canonical and sorted."""
    rng = random.Random(seed)

    def connected(n):
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        pairs |= {(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.4}
        return from_edges(n, pairs)

    bases = []
    for _ in range(lines):
        roll = rng.random()
        if bases and roll < 0.15:
            yield rng.choice(bases[-20:])
            continue
        if bases and roll < 0.45:
            g, primes = rng.choice(bases)[2:]
        elif roll < 0.8:
            g, primes = empty_graph(1), ()
            for _ in range(rng.randint(2, 3)):
                if 24 // g.n < 2:
                    break
                f = connected(rng.randint(2, min(7, 24 // g.n)))
                g = cartesian_product(g, f)
                primes += factorize_by_table(f)
        else:
            g = connected(rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23]))
            primes = (canonical_form(g),)
        perm = list(range(g.n))
        rng.shuffle(perm)
        text = encode_graph6(relabel(g, perm))
        bases.append((text, sorted(primes, key=canonical_key), g, primes))
        yield bases[-1]


@pytest.mark.parametrize("seed", range(2))
def test_factor_stream_lists_each_constructions_factors(monkeypatch, capsys,
                                                        seed):
    cases = [case[:2] for case in _factor_stream(seed)]
    assert len({text for text, _ in cases}) < len(cases)
    stdin = "".join(text + "\n" for text, _ in cases)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(["factor"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(cases)
    for line, (text, primes) in zip(out, cases):
        parts = [f"{encode_graph6(p)} x {k}" for p, k in Counter(primes).items()]
        expected = f"{text}: " + ", ".join(parts)
        assert line == expected + (" PRIME" if len(primes) == 1 else "")


def test_factor_prints_nothing_when_it_answers_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main(["factor"]) == 0
    assert capsys.readouterr().out == ""
    # every input fails: the order-3000 line is refused at its header
    monkeypatch.setattr(sys, "stdin", io.StringIO("~?mw" + "?" * 749750 + "\n"))
    assert cli.main(["factor"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("capacity: line 1:")


def test_degree_range_is_lazy():
    degrees = cli.parse_degree_range("0..1000000000000")
    assert isinstance(degrees, range) and len(degrees) == 10 ** 12 + 1
    result = run_cli("census", "--n", "0..1000000000000")
    assert result.returncode == 2
    assert "33" in result.stderr


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
