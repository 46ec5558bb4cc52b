"""Loop-permitting undirected graphs on indexed vertices.

Adjacency is stored as one bit-vector per vertex; a loop is the diagonal
bit. Includes Cayley graph construction, the standard double cover
(direct product with a single edge), structural predicates and bi-coset
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .groups import AbelianGroup, bit_indices, is_inverse_closed
from .perms import as_perm, left_mul, mul_table, pinv, right_mul


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph with loops permitted (diagonal bit of a row)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise DomainError("row count does not match vertex count")
        mask = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~mask:
                raise DomainError(f"row {v} has bits outside the vertex range")
        rows = self.rows
        for v, nbr in enumerate(self.nbrs):
            for u in nbr:
                if not (rows[u] >> v) & 1:
                    raise DomainError(f"adjacency not symmetric at ({v}, {u})")

    @cached_property
    def nbrs(self) -> tuple[list[int], ...]:
        """Neighbours of each vertex in increasing order, built once."""
        return tuple(map(bit_indices, self.rows))

    def has_loop(self, v: int) -> bool:
        return bool((self.rows[v] >> v) & 1)

    def degree(self, v: int) -> int:
        """Neighbour count; a loop contributes once."""
        return self.rows[v].bit_count()

    def relabel(self, perm) -> "LabeledGraph":
        """Graph with vertex v renamed to perm[v]."""
        new_rows = [0] * self.n
        for v, row in enumerate(self.rows):
            img = 0
            for u in bit_indices(row):
                img |= 1 << perm[u]
            new_rows[perm[v]] = img
        return LabeledGraph(self.n, tuple(new_rows))


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-closed subset of an abelian group, as a bit-vector.

    The identity is allowed as a member; it produces loops.
    """

    group: AbelianGroup
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.group.order:
            raise DomainError("connection set bits outside the group")
        if not is_inverse_closed(self.group, self.mask):
            raise DomainError("connection set is not inverse-closed")

    def members(self) -> list[int]:
        return bit_indices(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()


def connection_set(G: AbelianGroup, elements, symmetrize: bool = False) -> ConnectionSet:
    """Build a connection set from element indices.

    With symmetrize=True the negatives of the given elements are added;
    otherwise the set must already be inverse-closed.
    """
    mask = 0
    for e in elements:
        if not 0 <= e < G.order:
            raise DomainError(f"element index {e} outside the group")
        mask |= 1 << e
    if symmetrize:
        mask |= G.neg_mask(mask)
    return ConnectionSet(G, mask)


def _symmetric_graph(n: int, rows: tuple[int, ...], nbrs=None) -> LabeledGraph:
    """A `LabeledGraph` whose caller has proved its rows symmetric.

    Skips the validation in `LabeledGraph.__post_init__`, whose symmetry
    check costs one probe per edge. Only `cayley_graph` and
    `double_cover`, whose docstrings carry the proofs, call it; a
    source-scan test keeps it so. A caller that already holds the rows'
    neighbour lists, in increasing order, passes them as `nbrs`.
    """
    g = object.__new__(LabeledGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    if nbrs is not None:
        object.__setattr__(g, "nbrs", nbrs)
    return g


def cayley_graph(G: AbelianGroup, S: ConnectionSet) -> LabeledGraph:
    """Vertices are group elements; i ~ j iff element(j) - element(i) is in S.

    Row i is S + i, a subset of G. The rows are symmetric because S is
    inverse-closed (`ConnectionSet` checks it): j - i in S iff i - j in S.
    """
    if S.group is not G and S.group != G:
        raise DomainError("connection set belongs to a different group")
    rows = tuple(G.translate_mask(S.mask, i) for i in range(G.order))
    return _symmetric_graph(G.order, rows)


def double_cover(g: LabeledGraph) -> LabeledGraph:
    """Direct product with a single edge: vertices v+ (index v) and v- (index n+v).

    u+ ~ v- iff u ~ v in the base graph; no edges inside a block. A loop at v
    becomes the edge v+ ~ v-. The rows are symmetric because g's are:
    v- is in the row of u+ iff v ~ u iff u ~ v iff u+ is in the row of v-.
    The neighbour lists are lifted the same way: u+ has n + v for each
    neighbour v of u, and u- has the base list of u, both increasing.
    """
    n = g.n
    rows = [row << n for row in g.rows] + list(g.rows)
    nbrs = tuple([n + v for v in nb] for nb in g.nbrs) + g.nbrs
    return _symmetric_graph(2 * n, tuple(rows), nbrs)


def is_connected(g: LabeledGraph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bit_indices(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def two_coloring(g: LabeledGraph) -> list[int] | None:
    """A proper 2-coloring (color 0 on the least vertex of each component).

    None when the graph is not bipartite; any loop is an odd closed walk,
    so loops refuse.
    """
    if any(g.has_loop(v) for v in range(g.n)):
        return None
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in bit_indices(g.rows[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def is_bipartite(g: LabeledGraph) -> bool:
    """Two-colorability (see `two_coloring`)."""
    return two_coloring(g) is not None


def twin_classes(g: LabeledGraph) -> list[list[int]]:
    """Classes of vertices with identical adjacency rows (loop included)."""
    by_row: dict[int, list[int]] = {}
    for v in range(g.n):
        by_row.setdefault(g.rows[v], []).append(v)
    return sorted(by_row.values())


def is_twin_free(g: LabeledGraph) -> bool:
    return all(len(c) == 1 for c in twin_classes(g))


# -- bi-coset graphs ---------------------------------------------------------


@dataclass(frozen=True)
class BiCosetSpec:
    """A finite permutation group X with subgroups H, K and a subset D of X.

    All four are given as explicit element collections (image arrays).
    D must be a union of (K, H) double cosets: KdH = D for every d in D.

    The right coset partitions `h_cosets` and `k_cosets` are computed once
    per spec and shared by the validation, `bicoset_graph` and
    `verify_bicoset_isomorphism`. KD = D is checked as "every right
    K-coset lies inside D or is disjoint from it", which is what D being
    a union of right K-cosets means. DH = D is checked by left H-cosets:
    walking D, the left coset xH of each x not yet covered must lie
    inside D. Every d in D lies in one of these cosets, so this is dh in
    D for every d in D and h in H, at |D| products.
    """

    elements: tuple
    h_elements: frozenset
    k_elements: frozenset
    d_elements: frozenset

    def __post_init__(self):
        elems = set(self.elements)
        if not (self.h_elements <= elems and self.k_elements <= elems):
            raise DomainError("H or K is not contained in X")
        d = self.d_elements
        if not d <= elems:
            raise DomainError("D is not contained in X")
        del elems  # free X's set before the coset walk below
        if not all(d.issuperset(c) or d.isdisjoint(c) for _, c in self.k_cosets):
            raise DomainError("D is not a union of (K, H) double cosets")
        h_tabs = list(map(mul_table, self.h_elements))
        uncovered = set(d)
        for x in d:
            if x not in uncovered:
                continue
            coset = list(map(left_mul(x), h_tabs))
            if not d.issuperset(coset):
                raise DomainError("D is not a union of (K, H) double cosets")
            uncovered.difference_update(coset)

    @cached_property
    def h_cosets(self) -> list[tuple]:
        return _right_cosets(self.elements, self.h_elements)

    @cached_property
    def k_cosets(self) -> list[tuple]:
        return _right_cosets(self.elements, self.k_elements)


def make_bicoset_spec(x_elements, h_elements, k_elements, d_elements) -> BiCosetSpec:
    return BiCosetSpec(
        tuple(x_elements),
        frozenset(h_elements),
        frozenset(k_elements),
        frozenset(d_elements),
    )


def _right_cosets(elements, sub: frozenset) -> list[tuple]:
    """Right cosets of `sub` in the group listed by `elements`, as (x, members).

    Each coset Hx is one `map(right_mul(x), sub)`. Scanning `elements` in
    order, the first element x not yet covered is the least-index member
    of its coset: a member listed before x would have been scanned first
    and its coset, which is Hx, would already cover x. So the
    representative x is the coset's least-index member, and the cosets
    come out ordered by it.
    """
    covered: set = set()
    cosets = []
    for x in elements:
        if x in covered:
            continue
        coset = list(map(right_mul(x), sub))
        covered.update(coset)
        cosets.append((x, coset))
    return cosets


def bicoset_graph(spec: BiCosetSpec) -> LabeledGraph:
    """Bipartite graph on right H-cosets then right K-cosets.

    Hx is adjacent to Ky iff y x^(-1) is in D; x and y are the cosets'
    least-index representatives.
    """
    k_reps = [y for y, _ in spec.k_cosets]
    nh, nk = len(spec.h_cosets), len(k_reps)
    n = nh + nk
    rows = [0] * n
    for a, (x, _) in enumerate(spec.h_cosets):
        for b, z in enumerate(map(right_mul(pinv(x)), k_reps)):
            if z in spec.d_elements:
                rows[a] |= 1 << (nh + b)
                rows[nh + b] |= 1 << a
    return LabeledGraph(n, tuple(rows))


def verify_bicoset_isomorphism(G: AbelianGroup, S: ConnectionSet, elements) -> bool:
    """Check the explicit bi-coset model of a double cover.

    `elements` lists a group X of permutations of the 2n cover vertices,
    each element once, whose orbits are exactly the + and - blocks. With
    H and K the stabilizers of 0+ and 0-, and Y the set of x in X sending
    0- into the neighbourhood of 0+, the map sending
    (0+)^x to Hx and (0-)^x to Kx must be a graph isomorphism from the
    cover onto the bi-coset graph of (X, H, K, Y). Also checks the
    inversion symmetry: K R(g) H inside Y iff K R(-g) H inside Y.
    """
    n = G.order
    elems = list(elements)
    if any(len(x) != 2 * n for x in elems):
        raise DomainError("X does not act on the cover vertex set")
    cover = double_cover(cayley_graph(G, S))
    plus = frozenset(range(n))
    if {x[0] for x in elems} != plus or {x[n] for x in elems} != frozenset(
        range(n, 2 * n)
    ):
        raise DomainError("X orbits are not the two cover blocks")
    h_sub = frozenset(x for x in elems if x[0] == 0)
    k_sub = frozenset(x for x in elems if x[n] == n)
    nbhd0 = cover.rows[0]
    y_sub = frozenset(x for x in elems if (nbhd0 >> x[n]) & 1)
    spec = make_bicoset_spec(elems, h_sub, k_sub, y_sub)
    model = bicoset_graph(spec)
    if model.n != 2 * n:
        return False

    nh = len(spec.h_cosets)
    phi = [-1] * (2 * n)
    for a, (_, coset) in enumerate(spec.h_cosets):
        for x in coset:
            phi[x[0]] = a
    for b, (_, coset) in enumerate(spec.k_cosets):
        for x in coset:
            phi[x[n]] = nh + b
    if sorted(phi) != list(range(2 * n)):
        return False
    if cover.relabel(phi) != model:
        return False

    # inversion symmetry of Y on translation double cosets
    for g in range(n):
        if _translation_double_coset_in(G, g, k_sub, h_sub, y_sub) != (
            _translation_double_coset_in(G, G.neg(g), k_sub, h_sub, y_sub)
        ):
            return False
    return True


def _translation_double_coset_in(G, g, k_sub, h_sub, y_sub) -> bool:
    """Whether the double coset K R(g) H lies inside Y.

    Y is only passed here after the spec validated it as a union of
    (K, H) double cosets, so one representative decides membership.
    """
    n = G.order
    r = [G.add(v, g) for v in range(n)]
    return as_perm(r + [n + v for v in r]) in y_sub
