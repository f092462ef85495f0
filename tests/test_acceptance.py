"""Acceptance gate: one test per shipping criterion, one verdict line each.

Each test computes its claim, records an ACCEPTANCE line (echoed in the
terminal summary), then asserts.  Where a law fails by design (beta and
phistar are not submultiplicative; prime/connected is 1 at every prime
order), the criterion pins the exact counterexamples instead.  See
README.md.
"""

from fractions import Fraction

import conftest
from boxprime.bounds import (additive_gap_sandwich, multiplicative_gap_sandwich,
                             prime_gap_bound)
from boxprime.counting import (CountSequence, euler_inverse, euler_transform,
                               graph_connected_totals, graph_totals,
                               inversion_coefficients)
from boxprime.expansion import (RationalPolynomial,
                                connected_series_polynomial,
                                expansion_error_report)
from boxprime.factor import factorize
from boxprime.functions import evaluate, submultiplicativity_check
from boxprime.graph6 import encode_graph6, parse_graph6
from boxprime.graphs import (canonical_form, canonical_key, cartesian_product,
                             complete_graph, cycle_graph, enumerate_connected,
                             enumerate_graphs, path_graph)
from boxprime.semiring import closure_check, monotonicity_report, \
    self_complementary_identity
from _oracles import (composite_count_by_multisets, count_composites,
                      count_primes, factorize_by_table,
                      multiplicative_partition_count, product_of)
from test_cli import run_cli


def record(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.acceptance_log.append(line)
    print(line)
    assert ok, line


def test_criterion_01_counting_oracle_agreement():
    mismatches = [n for n in range(9)
                  if graph_totals(n).at(n) != len(enumerate_graphs(n))]
    ok = (not mismatches and graph_totals(4).at(4) == 11
          and graph_totals(8).at(8) == 12346)
    record(1, ok, "cycle-index counts equal enumeration for n <= 8, "
                  "including 11 at n=4 and 12346 at n=8")


def test_criterion_02_euler_inversion():
    totals = graph_totals(24)
    primes = euler_inverse(totals, 24)
    enum_ok = all(primes.at(n) == len(enumerate_connected(n))
                  for n in range(1, 9))
    round_trip_ok = euler_transform(primes, 24).values == totals.values
    ok = enum_ok and round_trip_ok and primes.at(8) == 11117
    record(2, ok, "inverse transform matches connected enumeration to n=8 "
                  "(11117 at n=8) and round-trips totals through n=24")


def test_criterion_03_inversion_coefficients():
    b_graphs = inversion_coefficients(graph_totals(4), 4)
    even_totals = CountSequence.totals((1, 1, 1, 2, 6))
    b_even = inversion_coefficients(even_totals, 4)
    ok = (b_graphs.values == (-1, -1, -1, -4)
          and b_even.values == (-1, 0, -1, -3))
    record(3, ok, "reciprocal coefficients are (-1,-1,-1,-4) for all graphs "
                  "and (-1,0,-1,-3) for the even-edge family (the recurrence "
                  "forces -1 at degree 1)")


def test_criterion_04_expansion_polynomials():
    def poly(nums, den):
        return RationalPolynomial(tuple(Fraction(c, den) for c in nums))

    b = inversion_coefficients(graph_totals(8), 4)
    graph_tables = [
        poly((-2, 1), 1),
        poly((17, -16, 3), 3),
        poly((-249, 193, -49, 4), 3),
        poly((105656, -79359, 21985, -2670, 120), 45),
    ]
    graphs_ok = all(connected_series_polynomial(s, b) == graph_tables[s - 1]
                    for s in range(1, 5))
    b_even = inversion_coefficients(
        CountSequence.totals((1, 1, 1, 2, 6, 18, 78, 522, 6178)), 4)
    even_tables = [
        poly((-2, 1), 1),
        poly((20, -16, 3), 3),
        poly((-258, 196, -49, 4), 3),
        poly((106481, -79734, 22030, -2670, 120), 45),
    ]
    even_ok = all(connected_series_polynomial(s, b_even) == even_tables[s - 1]
                  for s in range(1, 5))
    ok = graphs_ok and even_ok
    record(4, ok, "connected-series polynomials 1..4 match the expected "
                  "tables exactly for both families")


def test_criterion_05_expansion_remainders():
    totals = graph_totals(24)
    connected = graph_connected_totals(24)
    b = inversion_coefficients(totals, 4)
    worst = Fraction(0)
    for order in (2, 3, 4):
        polys = [connected_series_polynomial(s, b) for s in range(order)]
        rows = expansion_error_report(connected, polys,
                                      range(2 * order + 2, 25), order)
        worst = max(worst, max(row["ratio"] for row in rows))
    ok = worst <= 10
    record(5, ok, f"truncation error stays within 10x the remainder "
                  f"envelope for R=2..4, n to 24 (worst {float(worst):.3f})")


def test_criterion_06_gap_sandwiches(graphs_instance):
    additive_ok = all(additive_gap_sandwich(graphs_instance, n)["holds"]
                      for n in range(2, 11))
    multiplicative_ok = all(
        multiplicative_gap_sandwich(graphs_instance, n)["holds"]
        for n in range(4, 13))
    ok = additive_ok and multiplicative_ok
    record(6, ok, "disconnected-count sandwich holds for n=2..10 and the "
                  "composite-count sandwich for n=4..12")


def test_criterion_07_unique_factorization():
    ok = True
    for n in range(2, 9):
        for g in enumerate_connected(n):
            feder = factorize(g)
            if feder != factorize_by_table(g) or product_of(feder) != g:
                ok = False
                break
        if not ok:
            break
    record(7, ok, "for every connected graph of order <= 8, Feder's product "
                  "relation and the composite-table oracle give one prime "
                  "multiset and its product reproduces the graph")


def test_criterion_08_prime_census_and_gap_identity():
    census_ok = tuple(count_primes(n) for n in range(2, 9)) == \
        (1, 2, 5, 21, 110, 853, 11111)
    connected = graph_connected_totals(14)
    # the connected-minus-prime gap is the composite count by definition
    gaps = {m: count_composites(m) for m in (4, 6, 8, 10, 12, 14)}
    identity_ok = all(gaps[2 * n] == connected.at(n) for n in (2, 3, 4, 5, 7))
    oracle_ok = (gaps[12] == connected.at(6) + 10 == 122
                 and count_composites(12) ==
                 composite_count_by_multisets(12, count_primes))
    ok = census_ok and identity_ok and oracle_ok
    record(8, ok, "prime census (1,2,5,21,110,853,11111) for n=2..8; "
                  "connected-minus-prime gap at 2n equals the connected "
                  "count at n for 2n in {4,6,8,10,14}, and the degree-12 "
                  "gap is 122 (cross-checked two ways)")


def test_criterion_09_prime_gap_bound(graphs_instance):
    rows = [prime_gap_bound(graphs_instance, n) for n in range(4, 17)]
    ok = all(row["holds"] for row in rows)
    record(9, ok, "composite-count upper bound holds for every n in 4..16")


def test_criterion_10_arithmetic_functions(graphs_instance):
    inst = graphs_instance
    constancy_ok = True
    for n in range(2, 9):
        phistar_expected = inst.S_plus(n) - 1
        for g in inst.connected_members(n):
            if not inst.is_instance_prime(g):
                continue
            if not (evaluate("d", g, inst) == 2
                    and evaluate("dstar", g, inst) == 2
                    and evaluate("beta", g, inst) == 1
                    and evaluate("sigmastar", g, inst) == n + 1
                    and evaluate("phistar", g, inst) == phistar_expected):
                constancy_ok = False
    violating = {name: submultiplicativity_check(name, 8, inst)
                 for name in ("d", "dstar", "beta", "sigmastar", "phistar")}
    submultiplicative_ok = not any(violating[name]
                                   for name in ("d", "dstar", "sigmastar"))
    # beta(K2 x K2) = 2 > 1 * 1 and beta(K2 x C4) = 3 > 1 * 2
    beta_witnesses_ok = violating["beta"] == [
        {"left": "A_", "right": "A_", "f_product": 2, "f_split": 1},
        {"left": "A_", "right": "C]", "f_product": 3, "f_split": 2},
    ]
    # phistar(K2) = 0 makes every split product with K2 on the left 0
    phistar_pairs = [(v["left"], v["right"]) for v in violating["phistar"]]
    phistar_witnesses_ok = phistar_pairs == [
        ("A_", "A_"), ("A_", "BW"), ("A_", "Bw"), ("A_", "CF"), ("A_", "CL"),
        ("A_", "CN"), ("A_", "C]"), ("A_", "C^"), ("A_", "C~"),
    ]
    # beta multiplies exponents, so it is multiplicative on coprime pairs
    coprime_pairs = 0
    beta_multiplicative_ok = True
    for a in range(1, 9):
        lefts = inst.connected_members(a)
        for b in range(a, 8 // a + 1):
            rights = inst.connected_members(b)
            for i, g1 in enumerate(lefts):
                keys1 = {canonical_key(f) for f in factorize(g1)}
                for g2 in (rights[i:] if b == a else rights):
                    if not keys1.isdisjoint(canonical_key(f)
                                            for f in factorize(g2)):
                        continue
                    coprime_pairs += 1
                    if (evaluate("beta", cartesian_product(g1, g2), inst)
                            != evaluate("beta", g1, inst)
                            * evaluate("beta", g2, inst)):
                        beta_multiplicative_ok = False
    # the unit with each of the 12113 connected graphs, plus K2 x P3, K2 x K3
    # and K2 with the five primes of order 4
    coprime_ok = beta_multiplicative_ok and coprime_pairs == 12120
    ok = (constancy_ok and submultiplicative_ok and beta_witnesses_ok
          and phistar_witnesses_ok and coprime_ok)
    record(10, ok, "prime values are constant (d=2, dstar=2, beta=1, "
                   "sigmastar=n+1, phistar=S_plus(n)-1) on orders 2..8; "
                   "d, dstar, sigmastar are submultiplicative to order 8; "
                   "beta fails only on K2xK2 (2>1) and K2xC4 (3>2) and is "
                   f"multiplicative on all {coprime_pairs} coprime pairs; "
                   "phistar fails exactly on the nine pairs with K2 on the "
                   "left, since phistar(K2)=0")


def test_criterion_11_even_edge_instance(even_instance):
    closure_ok = closure_check(even_instance, 8)["closed"]
    identity_ok = True
    expected_counts = (1, 0, 0, 1, 2, 0, 0, 10)
    for n in range(1, 9):
        lhs, rhs, equal = self_complementary_identity(n)
        if not equal or rhs != expected_counts[n - 1]:
            identity_ok = False
    ok = closure_ok and identity_ok and even_instance.p == 3
    record(11, ok, "even-edge family is closed under union and product to "
                   "degree 8, twice-even-minus-all counts the "
                   "self-complementary graphs (1,0,0,1,2,0,0,10), and the "
                   "least prime degree is 3")


def test_criterion_12_hamming_instance(hamming_instance):
    counts_ok = all(hamming_instance.S_plus(n) ==
                    multiplicative_partition_count(n)
                    for n in range(1, 31))
    descents = [row["n"] for row in
                monotonicity_report(hamming_instance, 12)]
    ok = counts_ok and hamming_instance.S_plus(12) == 4 and 6 in descents
    record(12, ok, "connected counts equal multiplicative-partition counts "
                   "to n=30 (4 at n=12) and the connected sequence drops "
                   "from n=6 to n=7")


def test_criterion_13_trend_diagnostics(graphs_instance):
    inst = graphs_instance
    orders = range(5, 13)
    connected_ratios = [Fraction(inst.S_plus(n), inst.S(n)) for n in orders]
    box_ratios = [Fraction(inst.S_box(n), inst.S(n)) for n in orders]
    prime_ratios = {n: Fraction(inst.S_box(n), inst.S_plus(n))
                    for n in orders}
    composite_orders = (6, 8, 9, 10, 12)
    composite_ratios = [prime_ratios[n] for n in composite_orders]
    connected_ok = all(a <= b for a, b in
                       zip(connected_ratios, connected_ratios[1:]))
    box_ok = all(a <= b for a, b in zip(box_ratios, box_ratios[1:]))
    # every connected graph of prime order is box-prime, and K_a x K_b
    # is a connected composite of order ab
    prime_order_ok = all(prime_ratios[n] == 1 for n in (5, 7, 11))
    composite_order_ok = (
        all(r < 1 for r in composite_ratios)
        and all(a <= b for a, b in zip(composite_ratios,
                                       composite_ratios[1:])))
    level_ok = (connected_ratios[-1] > Fraction(99, 100)
                and prime_ratios[12] > Fraction(99, 100))
    ok = (connected_ok and box_ok and prime_order_ok and composite_order_ok
          and level_ok)
    record(13, ok, "exact finite diagnostics (the paper claims only the "
                   "limit): connected/total and prime/total are "
                   "nondecreasing on 5..12; prime/connected is 1 at orders "
                   "5, 7, 11 and below 1 and nondecreasing along 6, 8, 9, "
                   "10, 12; connected/total and prime/connected exceed "
                   "99/100 at n=12")


def test_criterion_14_cli_contract():
    round_trip_ok = True
    k2, k3 = complete_graph(2), complete_graph(3)
    samples = [
        canonical_form(cycle_graph(4)),
        canonical_form(cartesian_product(k3, k2)),
        canonical_form(cartesian_product(k3, k3)),
        canonical_form(cartesian_product(k2, path_graph(5))),
        canonical_form(cartesian_product(cycle_graph(4), cycle_graph(4))),
    ]
    samples.extend(enumerate_graphs(5))
    for g in samples:
        text = encode_graph6(g)
        if encode_graph6(parse_graph6(text)) != text:
            round_trip_ok = False
    factor_run = run_cli("factor", "C]")
    factor_ok = (factor_run.returncode == 0
                 and factor_run.stdout == "C]: A_ x 2\n")
    args = ("census", "--instance", "graphs", "--n", "2..6",
            "--format", "json")
    first = run_cli(*args, env_extra={"PYTHONHASHSEED": "1"})
    second = run_cli(*args, env_extra={"PYTHONHASHSEED": "77"})
    deterministic_ok = (first.returncode == second.returncode == 0
                        and first.stdout == second.stdout)
    ok = round_trip_ok and factor_ok and deterministic_ok
    record(14, ok, "graph6 round-trips byte-exactly up to order 16, factor "
                   "prints the expected listing, and repeated invocations "
                   "are byte-identical")
