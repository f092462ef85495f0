"""Unlabeled simple graphs: canonical forms, products, and enumeration.

A graph is a vertex count plus an upper-triangular edge bit vector in
row-major order, packed into a single integer so that the (0,1) pair sits
at the most significant position.  Integer comparison of two packed vectors
then agrees with lexicographic comparison of the bit strings, and the
canonical form of a graph is the isomorph whose packed vector is minimal
over all vertex relabelings.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache, total_ordering

from .errors import CapacityError, DomainError, read_only

DEFAULT_CANON_CAP = 24
DEFAULT_ENUM_CAP = 8
# largest order whose edges any operation reads; the 8-cube has 256 vertices
ORDER_LIMIT = 256


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _ordered_pair(i: int, j: int, n: int) -> tuple[int, int]:
    """The unordered pair {i, j} of an order-n graph, smaller end first."""
    if i == j:
        raise DomainError("self loops are not representable")
    if i > j:
        i, j = j, i
    if not 0 <= i < j < n:
        raise DomainError(f"pair ({i}, {j}) out of range for order {n}")
    return i, j


@total_ordering
class Graph:
    """Simple graph on vertices 0..n-1 with packed upper-triangular edges.

    An immutable value: equal, hashed and ordered by (n, bits).
    """

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        if bits < 0 or bits.bit_length() > _pair_count(n):
            raise DomainError(f"edge bits out of range for order {n}")
        # __setattr__ refuses every field, so they go straight to __dict__
        fields = self.__dict__
        fields["n"] = n
        fields["bits"] = bits

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.bits) == (other.n, other.bits)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.bits) < (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, bits={self.bits!r})"

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Neighbor bitmask for each vertex."""
        text = format(self.bits, f"0{_pair_count(self.n)}b")
        columns = "".join(map(text.__getitem__, _column_major_ranks(self.n)))
        return _rows_from_text(self.n, text, columns)

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()


@lru_cache(maxsize=32)
def _column_major_ranks(n: int) -> tuple[int, ...]:
    """Row-major rank of each pair of an order-n graph, in graph6 order."""
    return tuple(i * (2 * n - i - 3) // 2 + j - 1 for j in range(1, n) for i in range(j))


def _rows_from_text(n: int, row_major: str, column_major: str) -> tuple[int, ...]:
    """Neighbor rows from the edge bit string in row-major and column-major
    order: row i is column i below the diagonal, and row i's run above it."""
    rows = []
    column = run = 0
    for i in range(n):
        end = run + n - 1 - i
        row = column_major[column:column + i] + "0" + row_major[run:end]
        rows.append(int(row[::-1], 2))
        column += i
        run = end
    return tuple(rows)


def _pack_rows(n: int, rows) -> int:
    """Packed edge vector of the graph with the given neighbor rows."""
    if n < 2:
        return 0
    return int("".join(format(rows[i] >> (i + 1), f"0{n - 1 - i}b")[::-1]
                       for i in range(n - 1)), 2)


def _graph_from_rows(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph with the given neighbor rows, which it keeps instead of
    decoding them again from the packed vector."""
    g = Graph(n, _pack_rows(n, rows))
    g.__dict__["rows"] = rows
    return g


def from_edges(n: int, edges) -> Graph:
    """Graph on n vertices with the given edge pairs (duplicates collapse)."""
    rows = [0] * n
    for i, j in edges:
        i, j = _ordered_pair(i, j, n)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _graph_from_rows(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, 0)


def _all_pairs(n: int) -> int:
    """The packed vector of every pair of order n, refused above
    ORDER_LIMIT before it is built."""
    if n > ORDER_LIMIT:
        raise CapacityError(
            f"complete edge set of order {n} exceeds the limit {ORDER_LIMIT}")
    return (1 << _pair_count(n)) - 1


def complete_graph(n: int) -> Graph:
    return Graph(n, _all_pairs(n))


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    return Graph(g.n, g.bits ^ _all_pairs(g.n))


def relabel(g: Graph, perm) -> Graph:
    """Apply the relabeling old -> perm[old]; perm is any iterable of the
    new labels in order of the old vertices, read once."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise DomainError("relabeling must be a permutation of the vertices")
    # the inverse permutation lists, for each new vertex, its old vertex
    return _graph_from_rows(
        g.n, _induced_rows(g.rows, sorted(range(g.n), key=perm.__getitem__)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > DEFAULT_CANON_CAP:
        raise CapacityError(
            f"union of order {n} exceeds cap {DEFAULT_CANON_CAP}")
    return _graph_from_rows(n, g1.rows + tuple(r << g1.n for r in g2.rows))


def cartesian_product(g1: Graph, g2: Graph, cap: int = DEFAULT_CANON_CAP) -> Graph:
    """Box product: (u1,u2)~(v1,v2) iff equal in one slot, adjacent in the other.

    Vertex (u1, u2) maps to index u1 * g2.n + u2.
    """
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    if n > cap:
        raise CapacityError(f"product of order {n} exceeds cap {cap}")
    rows = []
    for u, r1 in enumerate(g1.rows):
        # (u, v) meets (u, w) for w ~ v, and (a, v) for a ~ u
        across = sum(1 << (a * n2) for a in range(n1) if r1 >> a & 1)
        rows.extend((r2 << (u * n2)) | (across << v)
                    for v, r2 in enumerate(g2.rows))
    return _graph_from_rows(n, tuple(rows))


def _layers(rows, start: int) -> list[int]:
    """Breadth-first layers from vertex start along the rows: entry k masks
    the vertices at distance k."""
    seen = frontier = 1 << start
    layers = [frontier]
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= rows[low.bit_length() - 1]
        frontier = reach & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(frontier)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise DomainError("connectivity is undefined for the empty graph")
    return sum(_layers(g.rows, 0)) == (1 << g.n) - 1


def _component_masks(g: Graph) -> list[int]:
    rows = g.rows
    left = (1 << g.n) - 1
    comps = []
    while left:
        comps.append(sum(_layers(rows, (left & -left).bit_length() - 1)))
        left &= ~comps[-1]
    return comps


def _bits_of(mask: int) -> list[int]:
    """The set bits of mask, in increasing order."""
    bits = []
    while mask:
        low = mask & -mask
        mask ^= low
        bits.append(low.bit_length() - 1)
    return bits


def _induced_rows(rows, vertices) -> tuple[int, ...]:
    """Rows of the subgraph on the given vertices, vertices[i] renamed i."""
    index = {}
    kept = 0
    for v in vertices:
        index[v] = len(index)
        kept |= 1 << v
    sub = []
    for v in vertices:
        nb = rows[v] & kept
        row = 0
        while nb:
            low = nb & -nb
            nb ^= low
            row |= 1 << index[low.bit_length() - 1]
        sub.append(row)
    return tuple(sub)


def induced_subgraph(g: Graph, vertex_mask: int) -> Graph:
    """Subgraph on the masked vertices, relabeled in increasing order."""
    rows = _induced_rows(g.rows, _bits_of(vertex_mask))
    return _graph_from_rows(len(rows), rows)


def _canonical_bits(n: int, rows) -> int:
    """Minimal packed edge vector over all relabelings.

    Branch and bound over ordered partitions: vertices in one block are
    indistinguishable by everything placed so far, so position k must take a
    vertex from the first block, its row within the current block order is
    forced (non-neighbors before neighbors), and each placement refines the
    partition.  Only candidates of least row are explored, since the first
    one explored bounds every larger row; a row is one field 0..01..1 per
    block, so they are found block by block, keeping the fewest neighbors in
    the first block, then the next, until one is left.  Among true ties,
    interchangeable ones (equal open or closed neighborhoods within the
    unplaced set) explore identical subtrees and are deduplicated.  A
    placement is pruned when its prefix exceeds the best vector found.
    """
    if n <= 1:
        return 0
    total = _pair_count(n)
    best = None

    def place(blocks, remaining, prefix, done):
        nonlocal best
        while True:
            first = blocks[0]
            if first & (first - 1):
                # keep the candidates of least row, block by block
                ties = first
                for b in blocks:
                    least = n
                    m = ties
                    while m:
                        low = m & -m
                        m ^= low
                        count = (rows[low.bit_length() - 1] & b).bit_count()
                        if count < least:
                            least, ties = count, low
                        elif count == least:
                            ties |= low
                    if not ties & (ties - 1):
                        break
                else:
                    # true ties: twins among them share one subtree
                    seen_open = set()
                    seen_closed = set()
                    while ties:
                        low = ties & -ties
                        ties ^= low
                        key = rows[low.bit_length() - 1] & (remaining ^ low)
                        if key in seen_open or key | low in seen_closed:
                            continue
                        seen_open.add(key)
                        seen_closed.add(key | low)
                        place([low, first ^ low] + blocks[1:], remaining, prefix, done)
                    return
                # the one candidate left goes first as a lone block
                first, blocks = ties, [ties, first ^ ties] + blocks[1:]
            nb = rows[first.bit_length() - 1]
            width = remaining.bit_count() - 1
            row = 0
            new_blocks = []
            for b in blocks[1:]:
                hi = b & nb
                row = (row << b.bit_count()) | ((1 << hi.bit_count()) - 1)
                lo = b ^ hi
                if lo:
                    new_blocks.append(lo)
                if hi:
                    new_blocks.append(hi)
            prefix = (prefix << width) | row
            done += width
            if best is not None and prefix > best >> (total - done):
                return
            remaining ^= first
            if not remaining & (remaining - 1):
                # the last vertex's row is empty: prefix is a whole vector
                best = prefix
                return
            blocks = new_blocks

    full = (1 << n) - 1
    place([full], full, 0, 0)
    return best


@lru_cache(maxsize=1 << 16)
def _canonical_bits_for(rows: tuple[int, ...]) -> int:
    # keyed on the neighbour rows, which factor layers have without a Graph
    return _canonical_bits(len(rows), rows)


def check_canonical_order(n: int) -> None:
    """Refuse a canonical form of order above DEFAULT_CANON_CAP."""
    if n > DEFAULT_CANON_CAP:
        raise CapacityError(f"canonical form of order {n} exceeds cap "
                            f"{DEFAULT_CANON_CAP}")


def canonical_form(g: Graph) -> Graph:
    """The isomorph of g with the lexicographically minimal edge bit vector."""
    check_canonical_order(g.n)
    if g.n <= 1:
        return g
    return Graph(g.n, _canonical_bits_for(g.rows))


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, canonical bits); equal keys hold exactly for isomorphic graphs."""
    c = canonical_form(g)
    return (c.n, c.bits)


@cache
def _enumerate(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, 0),)
    topbit = 1 << (n - 1)
    seen = set()
    for parent in _enumerate(n - 1):
        prows = parent.rows
        # every graph arises by adding a least-degree vertex, so each parent
        # vertex must end with degree at least |s|: |s| may exceed the least
        # parent degree by one only if every least-degree vertex is in s
        degrees = [row.bit_count() for row in prows]
        least = min(degrees, default=0)
        weakest = sum(1 << i for i, d in enumerate(degrees) if d == least)
        for s in range(1 << (n - 1)):
            k = s.bit_count()
            if k > least and (k > least + 1 or s & weakest != weakest):
                continue
            rows = list(prows)
            rows.append(s)
            t = s
            while t:
                low = t & -t
                t ^= low
                rows[low.bit_length() - 1] |= topbit
            seen.add(_canonical_bits(n, rows))
    return tuple(Graph(n, b) for b in sorted(seen))


@cache
def _enumerate_connected(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in _enumerate(n) if is_connected(g))


def check_enumeration(n: int, cap: int) -> None:
    """Refuse an enumeration of order n above cap, before any work."""
    if n > cap:
        raise CapacityError(f"enumeration of order {n} exceeds cap {cap}")


def enumerate_graphs(n: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[Graph, ...]:
    """All unlabeled graphs of order n, canonical and sorted by key.

    Every isomorphism class of order n contains a one-vertex extension of a
    canonical graph of order n-1 by a vertex of least degree, so augmenting
    each parent with every neighbor subset that keeps the new vertex of
    least degree and canonicalizing covers the class list.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    check_enumeration(n, cap)
    return _enumerate(n)


def enumerate_connected(n: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[Graph, ...]:
    """Connected unlabeled graphs of order n, canonical and sorted by key."""
    if n < 1:
        raise DomainError("connected enumeration needs order >= 1")
    check_enumeration(n, cap)
    return _enumerate_connected(n)
