"""Slow, independent recomputations that validate the fast code paths.

Everything here is deliberately naive: brute force over permutations,
direct recursion over factor multisets, tables of every product of two
enumerated connected graphs.  The package must agree with these on every
input small enough to afford them.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial, gcd, isqrt, prod

from boxprime.counting import CountSequence
from boxprime.errors import CapacityError, DomainError, ParseError
from boxprime.factor import factorize
from boxprime.functions import evaluate
from boxprime.graphs import (DEFAULT_ENUM_CAP, Graph, canonical_form,
                             canonical_key, cartesian_product, empty_graph,
                             enumerate_connected, is_connected)


def _pair_bit(i: int, j: int, n: int) -> int:
    """Packed-vector bit of the pair {i, j}, i < j: the pairs are ranked in
    row-major order, the (0, 1) pair at the most significant end."""
    rank = i * (2 * n - i - 1) // 2 + (j - i - 1)
    return 1 << (n * (n - 1) // 2 - 1 - rank)


def from_edges_by_pair_bits(n: int, edges) -> Graph:
    """Graph on n vertices with the given edge pairs (i != j), set bit by
    bit."""
    bits = 0
    for i, j in edges:
        bits |= _pair_bit(min(i, j), max(i, j), n)
    return Graph(n, bits)


def edges_by_pair_bits(g: Graph) -> list[tuple[int, int]]:
    """Edge pairs in row-major order, read bit by bit off the packed vector."""
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
            if g.bits & _pair_bit(i, j, g.n)]


def relabel_by_edges(g: Graph, perm) -> Graph:
    """g relabelled old -> perm[old], one edge pair at a time."""
    return from_edges_by_pair_bits(
        g.n, [(perm[i], perm[j]) for i, j in edges_by_pair_bits(g)])


def disjoint_union_by_edges(g1: Graph, g2: Graph) -> Graph:
    """g1 then g2 shifted past it, one edge pair at a time."""
    shift = g1.n
    return from_edges_by_pair_bits(
        g1.n + g2.n, edges_by_pair_bits(g1)
        + [(i + shift, j + shift) for i, j in edges_by_pair_bits(g2)])


def cartesian_product_by_edges(g1: Graph, g2: Graph) -> Graph:
    """Box product, vertex (u1, u2) at u1 * g2.n + u2, one edge pair at a
    time: a g2 edge in every row of g1 vertices, a g1 edge in every column."""
    n2 = g2.n
    edges = [(u * n2 + a, u * n2 + b) for a, b in edges_by_pair_bits(g2)
             for u in range(g1.n)]
    edges += [(a * n2 + u, b * n2 + u) for a, b in edges_by_pair_bits(g1)
              for u in range(n2)]
    return from_edges_by_pair_bits(g1.n * n2, edges)


def exhaustive_minimum_bits(g: Graph) -> int:
    """Lexicographically minimal edge bit vector over all relabelings."""
    return min(relabel_by_edges(g, perm).bits
               for perm in permutations(range(g.n)))


def multiplicative_partition_count(n: int) -> int:
    """Multisets of integers >= 2 with product n; 1 has the empty multiset."""
    if n < 1:
        return 0

    def count(m: int, lo: int) -> int:
        total = 1 if m >= lo else 0
        d = lo
        while d * d <= m:
            if m % d == 0:
                total += count(m // d, d)
            d += 1
        return total

    return 1 if n == 1 else count(n, 2)


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def _mobius(k: int) -> int:
    mu, d = 1, 2
    while k > 1:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return mu


def euler_transform_by_divisor_sums(primes: CountSequence,
                                    max_degree: int) -> CountSequence:
    """Totals from prime counts by the log-derivative recurrence
    n S(n) = sum_{k=1}^{n} q(k) S(n-k), q(k) = sum_{d | k} d p(d)."""
    q = [0] * (max_degree + 1)
    for k in range(1, max_degree + 1):
        q[k] = sum(d * primes.at(d) for d in _divisors(k))
    s = [1] + [0] * max_degree
    for n in range(1, max_degree + 1):
        acc = sum(q[k] * s[n - k] for k in range(1, n + 1))
        s[n], r = divmod(acc, n)
        assert r == 0
    return CountSequence.totals(s)


def euler_inverse_by_mobius(totals: CountSequence,
                            max_degree: int) -> CountSequence:
    """Prime counts from totals: q(n) from the log-derivative recurrence,
    then n p(n) = sum_{d | n} mu(n/d) q(d).  DomainError when a count is
    non-integral or negative."""
    q = [0] * (max_degree + 1)
    for n in range(1, max_degree + 1):
        q[n] = n * totals.at(n) - sum(q[k] * totals.at(n - k)
                                      for k in range(1, n))
    p = [0] * (max_degree + 1)
    for n in range(1, max_degree + 1):
        acc = sum(_mobius(n // d) * q[d] for d in _divisors(n))
        p[n], r = divmod(acc, n)
        if r != 0:
            raise DomainError(f"degree {n} is non-integral")
        if p[n] < 0:
            raise DomainError(f"degree {n} is negative")
    return CountSequence.primes(p[1:])


def _factor_multisets(n: int, lo: int = 2):
    """Sorted tuples of integers >= lo with product n, any length >= 1."""
    out = []
    d = lo
    while d * d <= n:
        if n % d == 0:
            for rest in _factor_multisets(n // d, d):
                out.append((d,) + rest)
        d += 1
    if n >= lo:
        out.append((n,))
    return out


def composite_count_by_multisets(n: int, primes_at) -> int:
    """Composites of degree n counted by choosing a multiset of primes.

    For each way to factor n into at least two parts, the number of prime
    multisets is a product of multichoose terms over the part multiplicities.
    Uses only prime counts at degrees strictly below n.
    """
    total = 0
    for parts in _factor_multisets(n):
        if len(parts) < 2:
            continue
        ways = 1
        for order, mult in Counter(parts).items():
            ways *= comb(primes_at(order) + mult - 1, mult)
        total += ways
    return total


def population_stats_by_enumeration(name: str, inst, n: int,
                                    population: str) -> dict:
    """Statistics of a function over the enumerated population of degree n,
    each member evaluated on its own."""
    members = inst.connected_members(n)
    if population == "mult":
        members = [g for g in members if inst.is_instance_prime(g)]
    values = [evaluate(name, g, inst) for g in members]
    row = {"n": n, "population": population, "count": len(values),
           "sum": sum(values), "mean": None, "variance": None, "max": None}
    if values:
        mean = Fraction(sum(values), len(values))
        row["mean"] = mean
        row["variance"] = (Fraction(sum(v * v for v in values), len(values))
                           - mean * mean)
        row["max"] = max(values)
    return row


def additive_gap_sandwich_written_out(inst, n: int) -> dict:
    """bounds.additive_gap_sandwich with its own loop over union pairs:
    lower = sum_{r < n/2} S_plus(r) S_plus(n-r), upper = the same with
    S(n-r), middle = S(n) - S_plus(n) - C(S_plus(n/2) + 1, 2)."""
    if n < 1:
        raise DomainError("degree must be positive")
    half = inst.S_plus(Fraction(n, 2))
    lower = 0
    upper = 0
    for r in range(1, (n + 1) // 2):
        lower += inst.S_plus(r) * inst.S_plus(n - r)
        upper += inst.S_plus(r) * inst.S(n - r)
    gap = inst.S(n) - inst.S_plus(n)
    middle = gap - comb(half + 1, 2)
    return {"n": n, "lower": lower, "middle": middle, "upper": upper,
            "holds": lower <= middle <= upper,
            "middle_plain": gap - comb(half, 2)}


def multiplicative_gap_sandwich_written_out(inst, n: int) -> dict:
    """bounds.multiplicative_gap_sandwich with its own loop over product
    pairs: lower = sum_{2 <= r < sqrt n} S_box(r) S_box(n/r), upper = the
    same with S_plus(n/r), middle = S_plus(n) - S_box(n) less the pairs with
    repetition of the degree-sqrt(n) primes."""
    if n < 2:
        raise DomainError("degree must be at least 2")
    rt = isqrt(n)
    root = inst.S_box(rt) if rt * rt == n else 0
    lower = 0
    upper = 0
    for r in range(2, isqrt(n - 1) + 1):
        here = inst.S_box(r)
        lower += here * inst.S_box(Fraction(n, r))
        upper += here * inst.S_plus(Fraction(n, r))
    gap = inst.S_plus(n) - inst.S_box(n)
    middle = gap - comb(root + 1, 2)
    return {"n": n, "lower": lower, "middle": middle, "upper": upper,
            "holds": lower <= middle <= upper,
            "middle_plain": gap - comb(root, 2)}


def _partitions(m: int, largest: int):
    """Partitions of m as nonincreasing tuples with parts at most largest."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _cycle_type_term(parts) -> int:
    """(n!/z) 2^e for the cycle type with these parts, recomputing the
    pair-orbit exponent e and centralizer order z from scratch."""
    part = list(Counter(parts).items())
    e = 0
    z = 1
    for i, (p, m) in enumerate(part):
        e += m * (p // 2) + p * comb(m, 2)
        e += m * sum(mq * gcd(p, q) for q, mq in part[:i])
        z *= p ** m * factorial(m)
    return (1 << e) * (factorial(sum(parts)) // z)


def count_graphs_by_cycle_types(n: int) -> int:
    """Unlabeled graphs of order n by the cycle-index sum over the cycle
    types of n: (1/n!) sum over types of (n!/z) 2^e."""
    nf = factorial(n)
    total = sum(_cycle_type_term(parts) for parts in _partitions(n, n))
    q, r = divmod(total, nf)
    assert r == 0
    return q


def fixed_point_free_sums_by_partitions(j: int) -> list[int]:
    """W[j][c] for c = 0..j//2: the sum of (j!/z) 2^e over the partitions
    of j into c parts, none of them 1."""
    row = [0] * (j // 2 + 1)
    for parts in _partitions(j, j):
        if 1 not in parts:
            row[len(parts)] += _cycle_type_term(parts)
    return row


def multiplicative_stats_by_patterns(rule, primes_at, n: int) -> tuple:
    """count, sum, sum of squares and maximum of a multiplicative function
    over the prime multisets of product degree n.

    Walks every multiset of prime orders with product n, then every way to
    split the primes of one order into distinct primes with exponents (a
    partition of its multiplicity), counting the choices of distinct primes
    directly.  Maximum is None when there is no multiset.
    """
    count = total = squares = 0
    top = None
    patterns = [()] if n == 1 else _factor_multisets(n)
    for parts in patterns:
        # per order: (ways, value) for every split into distinct primes
        choices = [[(1, 1)]]
        for k, m in Counter(parts).items():
            options = []
            for exps in _partitions(m, m):
                ways = 1
                for i in range(len(exps)):
                    ways *= primes_at(k) - i
                for times in Counter(exps).values():
                    ways //= factorial(times)
                value = 1
                for a in exps:
                    value *= rule(k, a)
                if ways > 0:
                    options.append((ways, value))
            choices.append(options)
        for pick in product(*choices):
            ways = prod(w for w, _ in pick)
            value = prod(v for _, v in pick)
            count += ways
            total += ways * value
            squares += ways * value * value
            top = value if top is None else max(top, value)
    return count, total, squares, top


@cache
def composite_map(n: int) -> dict:
    """Canonical key of every connected order-n composite, with a witness pair.

    Every product of two connected graphs whose orders multiply to n is
    built and canonicalized; the witness is the first pair found, smallest
    left order first.  Factors above the enumeration cap raise.
    """
    if n < 1:
        raise DomainError("order must be positive")
    splits = [(a, n // a) for a in range(2, n + 1) if a * a <= n and n % a == 0]
    for a, b in splits:
        if b > DEFAULT_ENUM_CAP:
            raise CapacityError(f"composites of order {n} need factors of "
                                f"order {b}, cap is {DEFAULT_ENUM_CAP}")
    out: dict[tuple[int, int], tuple[Graph, Graph]] = {}
    for a, b in splits:
        for g1 in enumerate_connected(a):
            for g2 in enumerate_connected(b):
                out.setdefault(canonical_key(cartesian_product(g1, g2)), (g1, g2))
    return out


def composite_set(n: int) -> frozenset:
    """Canonical keys of the connected order-n composites."""
    return frozenset(composite_map(n))


def count_composites(n: int) -> int:
    return len(composite_map(n))


def count_primes(n: int) -> int:
    """Connected prime graphs of order n: enumerated minus tabled composites."""
    if n < 1:
        raise DomainError("order must be positive")
    if n == 1:
        return 0
    return len(enumerate_connected(n)) - count_composites(n)


def factorize_by_table(g: Graph) -> tuple[Graph, ...]:
    """Prime factors, canonical and sorted, by recursive witness lookup."""
    if not is_connected(g):
        raise DomainError("factorization is defined for connected graphs only")
    if g.n == 1:
        return ()
    cg = canonical_form(g)
    witness = composite_map(cg.n).get((cg.n, cg.bits))
    if witness is None:
        return (cg,)
    a, b = witness
    return tuple(sorted(factorize_by_table(a) + factorize_by_table(b),
                        key=canonical_key))


def product_of(factors) -> Graph:
    """Canonical cartesian product of the given graphs; empty input is the unit."""
    acc = empty_graph(1)
    for g in factors:
        acc = cartesian_product(acc, g)
    return canonical_form(acc)


def divisors(g: Graph) -> tuple[Graph, ...]:
    """Distinct divisors of a connected graph, unit and graph included.

    A divisor is the product of any sub-multiset of the prime factors;
    results are canonical and sorted by order then packed edges.
    """
    primes = factorize(g)
    seen: dict[tuple[int, int], Graph] = {}
    subsets = [()]
    for p in primes:
        subsets = subsets + [s + (p,) for s in subsets]
    for sub in subsets:
        d = product_of(sub)
        seen.setdefault(canonical_key(d), d)
    return tuple(sorted(seen.values(), key=canonical_key))


def coprime_counts_by_members(inst, n: int, factor_keys) -> dict:
    """Coprime count of every connected member of degree n, by brute force.

    factor_keys(h) is the set of prime keys of a member; a member is
    counted for g unless it shares a key with g.  Members are indexed by
    prime, so each count is the member total minus the members reached
    through g's primes.
    """
    members = inst.connected_members(n)
    keys = {h: factor_keys(h) for h in members}
    by_prime: dict = {}
    for h, ks in keys.items():
        for k in ks:
            by_prime.setdefault(k, set()).add(h)
    out = {}
    for g, ks in keys.items():
        sharing = set()
        for k in ks:
            sharing |= by_prime[k]
        out[g] = len(members) - len(sharing)
    return out


def submultiplicativity_by_products(name: str, n_max: int, inst) -> list[dict]:
    """Violations of f(A box B) <= f(A) f(B) over connected member pairs
    A <= B in member order with product degree at most n_max; every
    product is built and evaluated, the unit's products too."""
    out = []
    for a in range(1, n_max + 1):
        for b in range(a, n_max + 1):
            if a * b > n_max:
                continue
            lefts = inst.connected_members(a)
            for i, g1 in enumerate(lefts):
                rights = lefts[i:] if b == a else inst.connected_members(b)
                for g2 in rights:
                    product = evaluate(name, cartesian_product(g1, g2), inst)
                    split = evaluate(name, g1, inst) * evaluate(name, g2, inst)
                    if product > split:
                        out.append({"left": encode_graph6_by_bit_list(g1),
                                    "right": encode_graph6_by_bit_list(g2),
                                    "f_product": product, "f_split": split})
    return out


def even_member_composites(n: int) -> frozenset:
    """Canonical keys of the order-n products of two connected graphs with
    an even number of edges, each on at least two vertices."""
    keys = set()
    for a in range(2, n + 1):
        if a * a > n or n % a:
            continue
        lefts = [g for g in enumerate_connected(a) if g.edge_count % 2 == 0]
        rights = [g for g in enumerate_connected(n // a)
                  if g.edge_count % 2 == 0]
        for g1 in lefts:
            for g2 in rights:
                keys.add(canonical_key(cartesian_product(g1, g2)))
    return frozenset(keys)


def _distances_by_bfs(rows) -> list[list[int]]:
    """All-pairs distances, one BFS per vertex; -1 between components."""
    n = len(rows)
    out = []
    for u in range(n):
        dist = [-1] * n
        dist[u] = 0
        queue = [u]
        for x in queue:
            for y in range(n):
                if (rows[x] >> y) & 1 and dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        out.append(dist)
    return out


def layer_masks_full_theta(g: Graph) -> set[int]:
    """Vertex masks of the layers through vertex 0 under (Theta u tau)*,
    with the Djokovic-Winkler relation Theta taken over every edge.

    No prime-order shortcut: the classes are computed for every order, and
    one mask holding all vertices means g is prime.
    """
    n = g.n
    rows = g.rows
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (rows[u] >> v) & 1]
    eid = {}
    for e, (u, v) in enumerate(edges):
        eid[u, v] = eid[v, u] = e
    parent = list(range(len(edges)))

    def find(e: int) -> int:
        while parent[e] != e:
            e = parent[e]
        return e

    def join(e: int, f: int) -> None:
        parent[find(f)] = find(e)

    # tau: edges xu, xv with u ~ v, or with no w ~ u, v outside N[x]
    for x in range(n):
        closed = rows[x] | (1 << x)
        nbrs = [u for u in range(n) if (rows[x] >> u) & 1]
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1:]:
                if (rows[u] >> v) & 1 or not (rows[u] & rows[v] & ~closed):
                    join(eid[x, u], eid[x, v])

    # Theta: uv Theta xy iff d(u,x) + d(v,y) != d(u,y) + d(v,x), for every
    # edge uv; the vertices nearer u, nearer v and equidistant are split,
    # and uv is related to each edge crossing the split
    dist = _distances_by_bfs(rows)
    for e, (u, v) in enumerate(edges):
        side = [(dist[u][x] > dist[v][x]) - (dist[u][x] < dist[v][x])
                for x in range(n)]
        for f, (x, y) in enumerate(edges):
            if side[x] != side[y]:
                join(e, f)

    out = set()
    for root in {find(eid[0, v]) for v in range(1, n) if (rows[0] >> v) & 1}:
        seen = {0}
        queue = [0]
        for x in queue:
            for y in range(n):
                if (rows[x] >> y) & 1 and y not in seen \
                        and find(eid[x, y]) == root:
                    seen.add(y)
                    queue.append(y)
        out.add(sum(1 << y for y in seen))
    return out


def induced_subgraph_by_edges(g: Graph, vertex_mask: int) -> Graph:
    """Subgraph on the masked vertices, relabelled in increasing order,
    built edge by edge from the packed vector."""
    verts = [v for v in range(g.n) if (vertex_mask >> v) & 1]
    return from_edges_by_pair_bits(
        len(verts), [(a, b) for a in range(len(verts))
                     for b in range(a + 1, len(verts))
                     if g.bits & _pair_bit(verts[a], verts[b], g.n)])


def encode_graph6_by_bit_list(g: Graph) -> str:
    """graph6 string built from the neighbour rows one bit at a time:
    column j lists rows 0..j-1, zero-padded to six-bit groups."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        body.append(chr(group + 63))
    return head + "".join(body)


@cache
def enumerate_by_all_subsets(n: int) -> tuple[Graph, ...]:
    """Canonical graphs of order n: every neighbour subset added to every
    canonical graph of order n - 1, canonicalized and deduplicated."""
    if n == 0:
        return (Graph(0, 0),)
    seen = set()
    for parent in enumerate_by_all_subsets(n - 1):
        base = edges_by_pair_bits(parent)
        for s in range(1 << (n - 1)):
            edges = base + [(i, n - 1) for i in range(n - 1) if (s >> i) & 1]
            seen.add(canonical_form(from_edges_by_pair_bits(n, edges)).bits)
    return tuple(Graph(n, b) for b in sorted(seen))


def decode_graph6_body_by_columns(body: str, n: int) -> tuple[int, int, tuple]:
    """(n, packed vector, neighbour rows) of a graph6 body, read column by
    column: column j gives vertex j's lower neighbours, which are mirrored
    onto their own rows one bit at a time, and the packed vector is set
    pair by pair.  Bodies are checked as the package checks them."""
    m = n * (n - 1) // 2
    groups = -(-m // 6)
    if len(body) != groups:
        raise ParseError(
            f"graph6 body for order {n} needs {groups} characters, got {len(body)}")
    for ch in body:
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 body byte {ord(ch)}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bits[m:]:
        raise ParseError("nonzero padding bits in graph6 body")
    rows = [0] * n
    edges = []
    start = 0
    for j in range(1, n):
        column = bits[start:start + j]
        start += j
        for i, bit in enumerate(column):
            if bit == "1":
                rows[j] |= 1 << i
                rows[i] |= 1 << j
                edges.append((i, j))
    return n, from_edges_by_pair_bits(n, edges).bits, tuple(rows)


def canonical_bits_eager(n: int, rows) -> int:
    """Minimal packed edge vector over all relabelings, by the eager branch
    and bound: every candidate's row and refined partition are built before
    any is explored, and candidates past the bound are skipped one by one.

    Blocks of the ordered partition hold vertices that everything placed so
    far cannot tell apart; position k takes a vertex from the first block,
    its row is forced (non-neighbours before neighbours within each block),
    and candidates with equal open or closed neighbourhoods within the
    unplaced set are explored once.
    """
    if n <= 1:
        return 0
    total = n * (n - 1) // 2
    best = None

    def place(blocks, remaining, prefix, done):
        nonlocal best
        first = blocks[0]
        rest = blocks[1:]
        width = remaining.bit_count() - 1
        ndone = done + width
        shift = total - ndone
        seen_open = set()
        seen_closed = set()
        scored = []
        m = first
        while m:
            v = m & -m
            m ^= v
            nb = rows[v.bit_length() - 1]
            key_open = nb & (remaining ^ v)
            key_closed = (nb | v) & remaining
            if key_open in seen_open or key_closed in seen_closed:
                continue
            seen_open.add(key_open)
            seen_closed.add(key_closed)
            row = 0
            new_blocks = []
            for b in [first ^ v] + rest:
                if not b:
                    continue
                hi = b & nb
                row = (row << b.bit_count()) | ((1 << hi.bit_count()) - 1)
                lo = b ^ hi
                if lo:
                    new_blocks.append(lo)
                if hi:
                    new_blocks.append(hi)
            scored.append((row, v, new_blocks))
        scored.sort(key=lambda t: t[0])
        for row, v, new_blocks in scored:
            pref = (prefix << width) | row
            if best is not None and pref > (best >> shift):
                continue
            if not new_blocks:
                if best is None or pref < best:
                    best = pref
            else:
                place(new_blocks, remaining ^ v, pref, ndone)

    full = (1 << n) - 1
    place([full], full, 0, 0)
    return best
