from fractions import Fraction

import pytest

from boxprime import factor, functions, graphs, semiring
from boxprime.errors import CapacityError, DomainError
from boxprime.functions import (REGISTRY, coprime_count, evaluate,
                                population_stats, submultiplicativity_check)
from boxprime.graphs import (canonical_form, canonical_key,
                             cartesian_product, complete_graph, cycle_graph,
                             empty_graph, enumerate_connected, path_graph)
from boxprime.semiring import instance_all_graphs, instance_hamming

from _oracles import (coprime_counts_by_members, count_composites, divisors,
                      factorize_by_table,
                      multiplicative_stats_by_patterns,
                      population_stats_by_enumeration,
                      submultiplicativity_by_products)

K1 = empty_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = canonical_form(cycle_graph(4))
PRISM = canonical_form(cartesian_product(K3, K2))
Q3 = canonical_form(cartesian_product(cartesian_product(K2, K2), K2))


def test_registry_names():
    assert set(REGISTRY) == {"d", "dstar", "beta", "sigmastar", "phistar"}
    with pytest.raises(DomainError):
        evaluate("sigma", K2, None)


def _values(name, inst):
    return [evaluate(name, g, inst) for g in (K1, K2, C4, PRISM, Q3)]


def test_divisor_count_points(graphs_instance):
    assert _values("d", graphs_instance) == [1, 2, 3, 4, 4]


def test_unitary_divisor_count_points(graphs_instance):
    assert _values("dstar", graphs_instance) == [1, 2, 2, 4, 2]


def test_exponent_product_points(graphs_instance):
    assert _values("beta", graphs_instance) == [1, 1, 2, 1, 3]


def test_divisor_sum_points(graphs_instance):
    assert _values("sigmastar", graphs_instance) == [1, 3, 7, 12, 15]


def test_coprime_count_points(graphs_instance):
    assert coprime_count(K1, graphs_instance) == 1
    assert coprime_count(K2, graphs_instance) == 0
    assert coprime_count(C4, graphs_instance) == 5
    assert coprime_count(PRISM, graphs_instance) == 110
    big = cartesian_product(K2, path_graph(5))
    assert coprime_count(big, graphs_instance) == 11716550
    # the composites of order 9 are the products of two order-3 primes;
    # all of them share a prime with P3 x K3, all but P3 x P3 with K3 x K3
    connected_9 = graphs_instance.S_plus(9)
    assert count_composites(9) == 3
    assert coprime_count(cartesian_product(path_graph(3), K3),
                         graphs_instance) == connected_9 - 3
    assert coprime_count(cartesian_product(K3, K3),
                         graphs_instance) == connected_9 - 2


def test_multiplicative_on_coprime_pairs(graphs_instance):
    pairs = [(K2, K3), (K2, path_graph(3)), (K3, C4)]
    for a, b in pairs:
        prod = cartesian_product(a, b)
        for name in ("d", "dstar", "sigmastar"):
            left = evaluate(name, prod, graphs_instance)
            right = evaluate(name, a, graphs_instance) * \
                evaluate(name, b, graphs_instance)
            assert left == right, (name, a, b)


def test_exponent_product_adds_exponents_per_prime(graphs_instance):
    cube = cartesian_product(C4, K2)
    assert evaluate("beta", cube, graphs_instance) == 3
    assert canonical_form(cube) == Q3


def test_prime_values_are_forced(graphs_instance):
    inst = graphs_instance
    for n in range(2, 9):
        expected_phistar = inst.S_plus(n) - 1
        for g in inst.connected_members(n):
            if not inst.is_instance_prime(g):
                continue
            assert evaluate("d", g, inst) == 2
            assert evaluate("dstar", g, inst) == 2
            assert evaluate("beta", g, inst) == 1
            assert evaluate("sigmastar", g, inst) == n + 1
            assert evaluate("phistar", g, inst) == expected_phistar


def test_submultiplicativity_sweeps(graphs_instance):
    inst = graphs_instance
    assert submultiplicativity_check("d", 8, inst) == []
    assert submultiplicativity_check("dstar", 8, inst) == []
    assert submultiplicativity_check("sigmastar", 8, inst) == []


@pytest.mark.parametrize("instance", ["graphs_instance", "even_instance",
                                      "hamming_instance"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_submultiplicativity_sweep_matches_every_product(request, instance,
                                                         name):
    inst = request.getfixturevalue(instance)
    assert submultiplicativity_check(name, 6, inst) == \
        submultiplicativity_by_products(name, 6, inst)


def test_submultiplicativity_sweep_below_degree_one_is_empty(graphs_instance):
    for n_max in (0, -1):
        assert submultiplicativity_check("d", n_max, graphs_instance) == []


def test_submultiplicativity_sweep_builds_no_unit_product(monkeypatch,
                                                          graphs_instance):
    built = []

    def no_unit(g1, g2):
        if g1.n == 1 or g2.n == 1:
            raise AssertionError("a product with the unit was built")
        built.append((g1.n, g2.n))
        return cartesian_product(g1, g2)

    monkeypatch.setattr(functions, "cartesian_product", no_unit)
    violations = submultiplicativity_check("beta", 8, graphs_instance)
    assert [(v["left"], v["right"]) for v in violations] == [("A_", "A_"),
                                                             ("A_", "C]")]
    assert sorted(set(built)) == [(2, 2), (2, 3), (2, 4)]


def test_exponent_product_is_not_submultiplicative(graphs_instance):
    violations = submultiplicativity_check("beta", 8, graphs_instance)
    assert violations == [
        {"left": "A_", "right": "A_", "f_product": 2, "f_split": 1},
        {"left": "A_", "right": "C]", "f_product": 3, "f_split": 2},
    ]


def test_coprime_count_is_not_submultiplicative(graphs_instance):
    violations = submultiplicativity_check("phistar", 8, graphs_instance)
    pairs = [(v["left"], v["right"]) for v in violations]
    assert pairs == [
        ("A_", "A_"), ("A_", "BW"), ("A_", "Bw"), ("A_", "CF"), ("A_", "CL"),
        ("A_", "CN"), ("A_", "C]"), ("A_", "C^"), ("A_", "C~"),
    ]
    # the smallest witness in full: a prime squared beats two zeros
    assert violations[0] == {"left": "A_", "right": "A_",
                             "f_product": 5, "f_split": 0}


def test_population_stats(graphs_instance, even_instance):
    row = population_stats("d", graphs_instance, 4, "add")
    assert row == {"n": 4, "population": "add", "count": 6, "sum": 13,
                   "mean": Fraction(13, 6), "variance": Fraction(5, 36),
                   "max": 3}
    row = population_stats("d", graphs_instance, 7, "mult")
    assert row["mean"] == 2 and row["variance"] == 0
    row = population_stats("sigmastar", graphs_instance, 6, "mult")
    assert row["count"] == 110 and row["mean"] == 7 and row["variance"] == 0
    row = population_stats("d", even_instance, 2, "add")
    assert row["count"] == 0
    assert row["mean"] is None and row["variance"] is None
    assert row["max"] is None


def test_population_stats_rejects_unknown_population(graphs_instance):
    with pytest.raises(DomainError):
        population_stats("d", graphs_instance, 4, "odd")


@pytest.mark.parametrize("instance", ["graphs_instance", "hamming_instance",
                                      "even_instance"])
def test_coprime_count_matches_brute_force(instance, request):
    inst = request.getfixturevalue(instance)

    def table_keys(h):
        return frozenset(canonical_key(f) for f in factorize_by_table(h))

    def own_key(h):
        # no even member below order 9 is a product of two members
        return frozenset((canonical_key(h),))

    keys, orders = table_keys, range(1, 9)
    if instance == "even_instance":
        keys, orders = own_key, range(2, 9)
    for n in orders:
        for g, count in coprime_counts_by_members(inst, n, keys).items():
            assert coprime_count(g, inst) == count, (n, g)
    if instance == "hamming_instance":
        # two primes of order 3, and no product of complete graphs
        with pytest.raises(DomainError):
            coprime_count(cartesian_product(path_graph(3), K3), inst)


def test_coprime_count_refuses_a_family_with_member_composites():
    # two connected members of each order but one prime: a composite
    # exists, and without unique factorization nothing counts its factors
    inst = semiring.SemiringInstance(
        name="toy", add_horizon=8, enum_horizon=8,
        p=2, census=lambda n: (3, 2, 1), member_rule=lambda g: True,
        prime_rule=lambda g: True)
    with pytest.raises(CapacityError):
        coprime_count(K3, inst)


def test_even_coprime_count_walks_no_members(monkeypatch, even_instance):
    def forbidden(*args, **kwargs):
        raise AssertionError("the connected members were walked")

    members = {n: even_instance.connected_members(n) for n in range(3, 9)}
    monkeypatch.setattr(semiring.SemiringInstance, "connected_members",
                        forbidden)
    for n, gs in members.items():
        for g in gs[:5]:
            assert coprime_count(g, even_instance) == \
                even_instance.S_box(n) - 1
    with pytest.raises(DomainError):
        coprime_count(complete_graph(2), even_instance)


MULTIPLICATIVE = ("d", "dstar", "beta", "sigmastar")


@pytest.mark.parametrize("instance", ["graphs_instance", "hamming_instance"])
def test_population_stats_match_enumeration(instance, request):
    inst = request.getfixturevalue(instance)
    assert inst.unique_factorization
    for name in MULTIPLICATIVE:
        for n in range(0, 9):
            for population in ("add", "mult"):
                if n == 1 and population == "mult":
                    continue
                assert population_stats(name, inst, n, population) == \
                    population_stats_by_enumeration(name, inst, n, population), \
                    (name, n, population)


@pytest.mark.parametrize("instance, top", [("graphs_instance", 7),
                                           ("hamming_instance", 8)])
def test_coprime_count_over_primes_matches_enumeration(instance, top, request):
    inst = request.getfixturevalue(instance)
    for n in range(2, top + 1):
        assert population_stats("phistar", inst, n, "mult") == \
            population_stats_by_enumeration("phistar", inst, n, "mult"), n


def test_divisor_functions_match_divisor_lists(graphs_instance):
    for n in range(1, 9):
        for g in enumerate_connected(n):
            divs = divisors(g)
            assert evaluate("sigmastar", g, graphs_instance) == \
                sum(d.n for d in divs)
            assert evaluate("d", g, graphs_instance) == len(divs)


def test_population_stats_build_no_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("population statistics built a graph")

    for module in (functions, factor, graphs, semiring):
        for attr in ("enumerate_graphs", "enumerate_connected",
                     "canonical_form", "factorize"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    for inst, horizon in ((instance_all_graphs(), 24), (instance_hamming(), 64)):
        for n in range(2, horizon + 1):
            for name in MULTIPLICATIVE:
                add = population_stats(name, inst, n, "add")
                mult = population_stats(name, inst, n, "mult")
                assert add["count"] == inst.S_plus(n)
                squares = (add["variance"] + add["mean"] ** 2) * add["count"]
                assert (add["count"], add["sum"], squares, add["max"]) == \
                    multiplicative_stats_by_patterns(REGISTRY[name],
                                                     inst.S_box, n), (name, n)
                assert mult["count"] == inst.S_box(n)
                assert mult["sum"] == mult["count"] * REGISTRY[name](n, 1)
            # a prime is coprime to every other connected member
            mult = population_stats("phistar", inst, n, "mult")
            assert (mult["count"], mult["max"], mult["variance"]) == \
                (inst.S_box(n), inst.S_plus(n) - 1, 0)
    # K2^3 x K3 beats every other factorization of order 24
    row = population_stats("sigmastar", instance_all_graphs(), 24, "add")
    assert row["max"] == 15 * 4


def test_population_stats_edge_orders(graphs_instance, hamming_instance):
    for inst in (graphs_instance, hamming_instance):
        for name in MULTIPLICATIVE:
            for population in ("add", "mult"):
                row = population_stats(name, inst, 0, population)
                assert row == {"n": 0, "population": population, "count": 0,
                               "sum": 0, "mean": None, "variance": None,
                               "max": None}
            assert population_stats(name, inst, 1, "add") == {
                "n": 1, "population": "add", "count": 1, "sum": 1,
                "mean": 1, "variance": 0, "max": 1}
            with pytest.raises(DomainError):
                population_stats(name, inst, 1, "mult")
        with pytest.raises(DomainError):
            population_stats("phistar", inst, 1, "mult")
    with pytest.raises(CapacityError):
        population_stats("phistar", graphs_instance, 33, "mult")
    with pytest.raises(CapacityError):
        population_stats("d", graphs_instance, 33, "add")
    with pytest.raises(CapacityError):
        population_stats("d", hamming_instance, 65, "mult")
