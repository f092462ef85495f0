"""The four workloads: their cold CLI jobs, set-up jobs and output checks.

A job is a list of ``boxprime`` commands, each run as its own cold process.
Every command states how many output items it must produce (CSV rows, or
answered input lines) and a check that compares those items with
``reference.py`` or with the factor-stream generator's records, never with the
package's own code.  Commands with fixed arguments also have their stdout
digest recorded in ``data/digests.json`` (written by ``record.py``), so CLI
output must stay byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import reference as ref
from factor_stream import write as write_factor_stream
from graph_tools import box_product, invariant, is_connected, parse_graph6


@dataclass
class Command:
    argv: list[str]
    items: int
    check: Callable[[str, "Command"], int]  # returns the failed item count
    stdin: Path | None = None
    context: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    job: list[Command]
    setup: list[Command]


def _count_failures(text: str, cmd: Command, row_ok) -> int:
    """CSV rows failing row_ok, plus expected rows that never came."""
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = 0
    for row in rows[:cmd.items]:
        try:
            ok = row_ok(row)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        failed += not ok
    return failed + max(0, cmd.items - len(rows))


def _holds(row) -> bool:
    return row["holds"] == "true"


def check_census(text, cmd):
    def ok(row):
        n = int(row["n"])
        return (int(row["S"]) == ref.A000088[n]
                and int(row["S_plus"]) == ref.A001349[n]
                and int(row["S_box"]) == ref.S_BOX[n])
    return _count_failures(text, cmd, ok)


def _sandwich_ok(row, gap, pair_kinds, lower, upper) -> bool:
    """A gap-sandwich row: middle subtracts the multiset pair correction,
    middle_plain the strict one, and the row must hold."""
    middle = gap - comb(pair_kinds + 1, 2)
    return (_holds(row) and lower <= middle <= upper
            and [int(row[k]) for k in ("lower", "middle", "upper", "middle_plain")]
            == [lower, middle, upper, gap - comb(pair_kinds, 2)])


def check_composite_sandwich(text, cmd):
    box, connected = ref.S_BOX, ref.A001349

    def ok(row):
        n = int(row["n"])
        root = isqrt(n)
        splits = [r for r in range(2, isqrt(n - 1) + 1) if n % r == 0]
        return _sandwich_ok(
            row, connected[n] - box[n], box[root] if root * root == n else 0,
            sum(box[r] * box[n // r] for r in splits),
            sum(box[r] * connected[n // r] for r in splits))
    return _count_failures(text, cmd, ok)


def check_prime_gap(text, cmd):
    """Least prime degree is 2, with one prime (the edge)."""
    def ok(row):
        n = int(row["n"])
        lhs = ref.A001349[n] - ref.S_BOX[n]
        rhs = ref.S_BOX[2] * ref.A000088[n // 2] + ref.A000088[n // 3 + 3]
        return (_holds(row) and lhs <= rhs
                and (int(row["lhs"]), int(row["rhs"])) == (lhs, rhs))
    return _count_failures(text, cmd, ok)


def check_population(text, cmd):
    def ok(row):
        n = int(row["n"])
        count, total = int(row["count"]), int(row["sum"])
        return (row["population"] == "add" and count == ref.A001349[n]
                and Fraction(row["mean"]) == Fraction(total, count)
                and 1 + n <= int(row["max"]) <= total)
    return _count_failures(text, cmd, ok)


def check_wright(text, cmd):
    def ok(row):
        true = Fraction(row["true"])
        remainder = true - Fraction(row["truncated"])
        return (int(row["R"]) == cmd.context["R"]
                and true == ref.A001349[int(row["n"])]
                and Fraction(row["remainder"]) == remainder
                and Fraction(row["ratio"]) == remainder / Fraction(row["bound"]))
    return _count_failures(text, cmd, ok)


def check_disconnected_sandwich(text, cmd):
    total, connected = ref.A000088, ref.A001349

    def ok(row):
        n = int(row["n"])
        splits = range(1, (n + 1) // 2)
        return _sandwich_ok(
            row, total[n] - connected[n], connected[n // 2] if n % 2 == 0 else 0,
            sum(connected[r] * connected[n - r] for r in splits),
            sum(connected[r] * total[n - r] for r in splits))
    return _count_failures(text, cmd, ok)


def check_monotonicity(text, cmd):
    """The connected count never drops, so the report is its header only."""
    n_max = cmd.context["n_max"]
    drops = [n for n in range(1, n_max) if ref.A001349[n] > ref.A001349[n + 1]]
    expected = "n,S_plus,S_plus_next\n" + "".join(
        f"{n},{ref.A001349[n]},{ref.A001349[n + 1]}\n" for n in drops)
    return 0 if text.replace("\r\n", "\n") == expected else cmd.items


def check_hamming(text, cmd):
    n_max = cmd.context["n_max"]
    connected = [0] + [ref.hamming_connected(n) for n in range(1, n_max + 1)]
    totals = ref.euler_transform(connected)

    def ok(row):
        n = int(row["n"])
        return (int(row["S"]) == totals[n] and int(row["S_plus"]) == connected[n]
                and int(row["S_box"]) == (n >= 2) and row["p"] == "2")
    return _count_failures(text, cmd, ok)


def _factor_line_ok(text: str, line: str, record: dict) -> bool:
    head = f"{text}: "
    if not line.startswith(head):
        return False
    if record["line"] is not None:
        return line == record["line"]
    body = line[len(head):]
    prime = body.endswith(" PRIME")
    factors = []
    for part in body.removesuffix(" PRIME").split(", "):
        g6, times = part.split(" x ")
        factors += [parse_graph6(g6)] * int(times)
    if prime != (len(factors) == 1):
        return False
    if sorted(f[0] for f in factors) != record["orders"]:
        return False
    if not all(is_connected(*f) for f in factors):
        return False
    product = (1, (0,))
    for f in factors:
        product = box_product(product, f)
    return invariant(*product) == invariant(*parse_graph6(text))


def check_factor_stream(text, cmd):
    inputs = cmd.stdin.read_text(encoding="ascii").split()
    records = [json.loads(r) for r in cmd.context["expected"].read_text(
        encoding="ascii").splitlines()]
    lines = text.splitlines()
    failed = max(0, cmd.items - len(lines))
    for g6, line, record in zip(inputs, lines, records):
        try:
            failed += not _factor_line_ok(g6, line, record)
        except (ValueError, IndexError):
            failed += 1
    return failed


def check_exit_only(text, cmd):
    return 0


def _census(seed, work):
    return Workload(
        "census",
        job=[
            Command(["census", "--n", "2..15"], 14, check_census),
            Command(["bounds", "--check", "eq2", "--n", "2..15"], 14,
                    check_composite_sandwich),
            Command(["bounds", "--check", "gap", "--n", "4..15"], 12, check_prime_gap),
        ],
        setup=[
            Command(["census", "--n", "1"], 1, check_exit_only),
            Command(["bounds", "--check", "eq2", "--n", "2"], 1, check_exit_only),
            Command(["bounds", "--check", "gap", "--n", "1"], 1, check_exit_only),
        ])


def _factor_stream(seed, work):
    prefix = work / f"factor-stream-{seed}"
    write_factor_stream(seed, str(prefix))
    stdin = Path(f"{prefix}.g6")
    lines = len(stdin.read_text(encoding="ascii").split())
    return Workload(
        "factor-stream",
        job=[Command(["factor"], lines, check_factor_stream, stdin,
                     {"expected": Path(f"{prefix}.expected.jsonl")})],
        setup=[Command(["factor"], 1, check_exit_only)])  # empty stdin


def _population(seed, work):
    return Workload(
        "population",
        job=[Command(["functions", "--fn", "sigmastar", "--n", "2..8",
                      "--population", "add"], 7, check_population)],
        setup=[Command(["functions", "--fn", "sigmastar", "--n", "1",
                        "--population", "add"], 1, check_exit_only)])


def _series(seed, work):
    job = [Command(["wright", "--R", str(r), "--n", "9..32"], 24, check_wright,
                   context={"R": r}) for r in range(1, 5)]
    job += [
        Command(["bounds", "--check", "eq1", "--n", "1..24"], 24,
                check_disconnected_sandwich),
        Command(["semiring", "--monotonicity", "--n-max", "24"], 1,
                check_monotonicity, context={"n_max": 24}),
        Command(["semiring", "--instance", "hamming", "--n-max", "64"], 64,
                check_hamming, context={"n_max": 64}),
    ]
    setup = [Command(["wright", "--R", str(r), "--n", str(2 * r + 1)], 1,
                     check_exit_only) for r in range(1, 5)]
    setup += [
        Command(["bounds", "--check", "eq1", "--n", "1"], 1, check_exit_only),
        Command(["semiring", "--monotonicity", "--n-max", "1"], 1, check_exit_only),
        Command(["semiring", "--instance", "hamming", "--n-max", "1"], 1,
                check_exit_only),
    ]
    return Workload(
        "series",
        job=job, setup=setup)


BUILDERS = {"census": _census, "factor-stream": _factor_stream,
            "population": _population, "series": _series}


def build(name: str, seed: int, work: Path) -> Workload:
    """The named workload, with its inputs generated from seed under work."""
    return BUILDERS[name](seed, work)
