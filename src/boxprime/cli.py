"""Batch command-line front end.

Six subcommands expose the library as reproducible batch jobs:

  census     per-degree counts S, S_plus, S_box for one instance
  factor     prime factorizations of graph6 inputs
  wright     truncated expansion sums checked against exact counts
  bounds     finite-degree inequality and growth-ratio reports
  functions  population statistics of arithmetic functions
  semiring   closure, monotonicity, and self-complementarity reports

All arithmetic is exact; output is a pure function of the arguments, so
identical invocations produce byte-identical text.  Exit codes: 0 success,
2 capacity exceeded, 3 domain error, 4 parse error.  `factor` reports each
bad input on stderr, answers the others, and exits with the code of the
first failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import lru_cache

from .bounds import (_RATIOS, additive_gap_sandwich, cut_bound,
                     growth_ratio_diagnostics, leading_term_check,
                     multiplicative_gap_sandwich, prime_gap_bound)
from .counting import graph_connected_totals, graph_totals, inversion_coefficients
from .errors import BoxprimeError, CapacityError, DomainError, ParseError
from .expansion import connected_series_polynomial, expansion_error_report
from .factor import _is_prime_number, check_order, factor_keys
from .graph6 import _decode_rows, encode_graph6, split_graph6
from .graphs import (DEFAULT_ENUM_CAP, Graph, check_canonical_order,
                     check_enumeration)
from .functions import REGISTRY, population_stats
from .semiring import (INSTANCE_BUILDERS, DryRun, build_instance,
                       closure_check, monotonicity_report,
                       self_complementary_identity)
from .serialize import rows_to_csv, rows_to_json

# --enum-cap ceiling: order 9 has 274668 graphs, order 10 has 12005168
ENUM_CAP_CEILING = 9

# error class, stderr prefix, exit code
ERROR_KINDS = ((CapacityError, "capacity", 2), (DomainError, "domain", 3),
               (ParseError, "parse", 4))


def parse_degree_range(text: str) -> range:
    """Parse 'N' or 'A..B' into an inclusive range of degrees."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ParseError(f"bad degree range {text!r}; expected N or A..B") from None
    if hi < lo:
        raise ParseError(f"empty degree range {text!r}")
    if lo < 0:
        raise ParseError(f"negative degree in range {text!r}")
    return range(lo, hi + 1)


def write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def emit(rows, columns, args) -> None:
    if args.format == "csv":
        text = rows_to_csv(rows, columns)
    else:
        text = rows_to_json(rows, columns)
    write_text(text, args.out)


def _after_dry_run(report, inst, *args):
    """report(inst, *args), after a dry run of it on DryRun(inst), which
    counts and enumerates nothing: a degree past a horizon, or a bad one,
    is refused where the real run would refuse it, before any work.  The
    degrees the report reads may depend on the horizons and on p, which
    the dry run keeps, but not on the counts."""
    report(DryRun(inst), *args)
    return report(inst, *args)


def _census_rows(inst, ns):
    # the empty graph is a member but has no connectivity or primality
    return [{"n": n, "S": inst.S(n), "S_plus": inst.S_plus(n) if n else None,
             "S_box": inst.S_box(n) if n else None} for n in ns]


def cmd_census(args) -> int:
    inst = build_instance(args.instance, enum_cap=args.enum_cap)
    rows = _after_dry_run(_census_rows, inst, parse_degree_range(args.n))
    emit(rows, ["n", "S", "S_plus", "S_box"], args)
    return 0


def _report_error(exc: BoxprimeError, where: str = "") -> int:
    """Print exc on stderr under its kind's prefix; return its exit code."""
    for kind, prefix, code in ERROR_KINDS:
        if isinstance(exc, kind):
            print(f"{prefix}: {where}{exc}", file=sys.stderr)
            return code
    raise exc


@lru_cache(maxsize=1024)
def _factor_text(n: int, bits: int) -> str:
    return encode_graph6(Graph(n, bits))


@lru_cache(maxsize=1 << 12)
def _factor_line(text: str) -> str:
    # the header alone gives the order, so an oversized body is never decoded
    n, body = split_graph6(text)
    check_order(n)
    if _is_prime_number(n):
        # a graph of prime order is its own one factor
        check_canonical_order(n)
    rows = _decode_rows(body, n)
    if n == 1:
        return f"{text}: UNIT"
    keys = factor_keys(rows)
    # the keys are sorted, and a Counter keeps first-seen order
    parts = [f"{_factor_text(*key)} x {times}" for key, times in Counter(keys).items()]
    line = f"{text}: " + ", ".join(parts)
    if len(keys) == 1:
        line += " PRIME"
    return line


def cmd_factor(args) -> int:
    if args.graphs:
        inputs = ((f"argument {i}", text.strip())
                  for i, text in enumerate(args.graphs, 1))
    else:
        inputs = ((f"line {i}", line.strip())
                  for i, line in enumerate(sys.stdin, 1) if line.strip())
    lines = []
    status = 0
    for where, text in inputs:
        try:
            lines.append(_factor_line(text))
        except BoxprimeError as exc:
            code = _report_error(exc, f"{where}: ")
            status = status or code
    write_text("".join(line + "\n" for line in lines), args.out)
    return status


def cmd_wright(args) -> int:
    ns = parse_degree_range(args.n)
    order = args.R
    if order < 1:
        raise DomainError("truncation order R must be positive")
    top = ns[-1]
    totals = graph_totals(top)
    coeffs = inversion_coefficients(totals, order)
    # refused before any polynomial is derived; the report refuses them too
    if ns[0] <= 2 * order:
        raise DomainError("order must exceed twice the truncation order")
    polys = [connected_series_polynomial(s, coeffs) for s in range(order)]
    rows = expansion_error_report(graph_connected_totals(top), polys, ns, order)
    emit(rows, ["n", "R", "truncated", "true", "remainder", "bound", "ratio"],
         args)
    return 0


def _each(check):
    """Rows of a per-degree check over the degree range."""
    return lambda inst, ns, depth: [check(inst, n) for n in ns]


def _growth_rows(inst, ns, depth):
    # one walk from degree 1 serves the whole range
    if ns[0] < 1:
        raise DomainError("degree must be positive")
    return growth_ratio_diagnostics(inst, ns[-1])[ns[0] - 1:]


_SANDWICH = ("n", "lower", "middle", "upper", "holds", "middle_plain")

# check name -> rows over a degree range (given the cut depth) and their
# columns; --check offers the names in this order
BOUNDS_CHECKS = {
    "eq1": (_each(additive_gap_sandwich), _SANDWICH),
    "eq2": (_each(multiplicative_gap_sandwich), _SANDWICH),
    "lem2": (lambda inst, ns, depth: [cut_bound(inst, n, depth) for n in ns],
             ("n", "depth", "middle", "upper", "holds")),
    "gap": (_each(prime_gap_bound), ("n", "lhs", "rhs", "holds")),
    "leading": (_each(leading_term_check),
                ("n", "pn", "gap", "leading", "residual")),
    "axioms": (_growth_rows, ("n", *(name for name, _ in _RATIOS))),
}


def cmd_bounds(args) -> int:
    inst = build_instance(args.instance, enum_cap=args.enum_cap)
    rows_over, columns = BOUNDS_CHECKS[args.check]
    rows = _after_dry_run(rows_over, inst, parse_degree_range(args.n), args.D)
    emit(rows, columns, args)
    return 0


def _function_rows(inst, ns, name: str, population: str) -> list[dict]:
    return [population_stats(name, inst, n, population) for n in ns]


def cmd_functions(args) -> int:
    inst = build_instance(args.instance, enum_cap=args.enum_cap)
    rows = _after_dry_run(_function_rows, inst, parse_degree_range(args.n),
                          args.fn, args.population)
    emit(rows, ["n", "population", "count", "sum", "mean", "variance", "max"],
         args)
    return 0


def _summary_rows(inst, n_max: int) -> list[dict]:
    return [{"n": n, "S": inst.S(n), "S_plus": inst.S_plus(n),
             "S_box": inst.S_box(n), "p": inst.p} for n in range(1, n_max + 1)]


def cmd_semiring(args) -> int:
    # every mode reports on degrees 1..n_max; with none the answer is vacuous
    if args.n_max < 1:
        raise DomainError("--n-max must be positive")
    inst = build_instance(args.instance, enum_cap=args.enum_cap)
    if args.monotonicity:
        rows = _after_dry_run(monotonicity_report, inst, args.n_max)
        columns = ["n", "S_plus", "S_plus_next"]
    elif args.closure:
        result = closure_check(inst, args.n_max)
        rows = [{
            "instance": result["instance"],
            "n_max": result["n_max"],
            "closed": result["closed"],
            "operation": result["operation"],
            "left": encode_graph6(result["left"]) if result["left"] else None,
            "right": encode_graph6(result["right"]) if result["right"] else None,
        }]
        columns = ["instance", "n_max", "closed", "operation", "left", "right"]
    elif args.self_complementary:
        # every degree up to n_max is enumerated: refuse the first one past
        # the cap before enumerating any
        for n in range(1, args.n_max + 1):
            check_enumeration(n, args.enum_cap)
        rows = []
        for n in range(1, args.n_max + 1):
            lhs, rhs, equal = self_complementary_identity(n, cap=args.enum_cap)
            rows.append({"n": n, "identity": lhs, "enumerated": rhs,
                         "equal": equal})
        columns = ["n", "identity", "enumerated", "equal"]
    else:
        rows = _after_dry_run(_summary_rows, inst, args.n_max)
        columns = ["n", "S", "S_plus", "S_box", "p"]
    emit(rows, columns, args)
    return 0


def _add_output_flags(sub, enum_cap: bool = True) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write to a file instead of stdout")
    if enum_cap:
        sub.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                         help="enumeration order limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxprime",
        description="Exact counting, factorization, and inequality reports "
                    "for graph semirings.")
    subs = parser.add_subparsers(dest="command", required=True)

    census = subs.add_parser("census", help="per-degree counts S, S_plus, S_box")
    census.add_argument("--instance", choices=sorted(INSTANCE_BUILDERS),
                        default="graphs")
    census.add_argument("--n", required=True, help="degree N or range A..B")
    _add_output_flags(census)
    census.set_defaults(func=cmd_census)

    factor = subs.add_parser("factor",
                             help="prime factorizations of graph6 inputs")
    factor.add_argument("graphs", nargs="*",
                        help="graph6 strings; stdin lines when omitted")
    factor.add_argument("--out", default=None)
    factor.set_defaults(func=cmd_factor)

    wright = subs.add_parser("wright",
                             help="truncated expansion sums vs exact counts")
    wright.add_argument("--R", type=int, required=True,
                        help="truncation order")
    wright.add_argument("--n", required=True, help="degree N or range A..B")
    _add_output_flags(wright, enum_cap=False)
    wright.set_defaults(func=cmd_wright)

    bounds = subs.add_parser("bounds",
                             help="inequality and growth-ratio reports")
    bounds.add_argument("--check", required=True, choices=tuple(BOUNDS_CHECKS))
    bounds.add_argument("--n", required=True, help="degree N or range A..B")
    bounds.add_argument("--D", type=int, default=3,
                        help="cut depth for --check lem2")
    bounds.add_argument("--instance", choices=sorted(INSTANCE_BUILDERS),
                        default="graphs")
    _add_output_flags(bounds)
    bounds.set_defaults(func=cmd_bounds)

    functions = subs.add_parser("functions",
                                help="population statistics of one function")
    functions.add_argument("--fn", required=True, choices=sorted(REGISTRY))
    functions.add_argument("--n", required=True, help="degree N or range A..B")
    functions.add_argument("--population", choices=("add", "mult"),
                           default="mult")
    functions.add_argument("--instance", choices=sorted(INSTANCE_BUILDERS),
                           default="graphs")
    _add_output_flags(functions)
    functions.set_defaults(func=cmd_functions)

    semiring = subs.add_parser("semiring",
                               help="instance summaries and structural checks")
    semiring.add_argument("--instance", choices=sorted(INSTANCE_BUILDERS),
                          default="graphs")
    semiring.add_argument("--n-max", type=int, default=8)
    picker = semiring.add_mutually_exclusive_group()
    picker.add_argument("--monotonicity", action="store_true",
                        help="degrees where the connected count drops")
    picker.add_argument("--closure", action="store_true",
                        help="membership closure under union and product")
    picker.add_argument("--self-complementary", action="store_true",
                        help="self-complementarity count identity per degree")
    _add_output_flags(semiring)
    semiring.set_defaults(func=cmd_semiring)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        enum_cap = getattr(args, "enum_cap", 0)
        if enum_cap < 0:
            raise DomainError(f"--enum-cap {enum_cap} is negative")
        if enum_cap > ENUM_CAP_CEILING:
            raise CapacityError(f"--enum-cap {enum_cap} exceeds the "
                                f"ceiling {ENUM_CAP_CEILING}")
        return args.func(args)
    except BoxprimeError as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
