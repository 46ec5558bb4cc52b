"""Loop-permitting undirected graphs on indexed vertices.

Adjacency is stored only as one bit-vector per vertex, its row; a loop
is the diagonal bit. Includes Cayley graph construction, the standard
double cover (direct product with a single edge), structural predicates
and bi-coset graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .errors import DomainError
from .groups import AbelianGroup, bit_indices
from .perms import as_perm, left_mul, mul_each, mul_table, pinv


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph with loops permitted (diagonal bit of a row).

    The vertex count n is the number of rows.
    """

    rows: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self):
        rows = self.rows
        object.__setattr__(self, "n", len(rows))
        mask = (1 << len(rows)) - 1
        for v, row in enumerate(rows):
            if row & ~mask:
                raise DomainError(f"row {v} has bits outside the vertex range")
        for v, row in enumerate(rows):
            for u in bit_indices(row):
                if not (rows[u] >> v) & 1:
                    raise DomainError(f"adjacency not symmetric at ({v}, {u})")

    def relabel(self, perm) -> "LabeledGraph":
        """Graph with vertex v renamed to perm[v]."""
        new_rows = [0] * self.n
        for v, row in enumerate(self.rows):
            img = 0
            for u in bit_indices(row):
                img |= 1 << perm[u]
            new_rows[perm[v]] = img
        return LabeledGraph(tuple(new_rows))


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
        if self.group.neg_mask(self.mask) != self.mask:
            raise DomainError("connection set is not inverse-closed")

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


def _symmetric_graph(rows: tuple[int, ...]) -> LabeledGraph:
    """A `LabeledGraph` whose caller has proved its rows symmetric.

    Skips the validation in `LabeledGraph.__post_init__`, whose symmetry
    check costs one probe per edge. Only `cayley_graph` and
    `double_cover`, whose docstrings carry the proofs, call it; a
    source-scan test keeps it so.
    """
    g = object.__new__(LabeledGraph)
    object.__setattr__(g, "rows", rows)
    object.__setattr__(g, "n", len(rows))
    return g


def cayley_graph(S: ConnectionSet) -> LabeledGraph:
    """Vertices are the elements of G = S.group; i ~ j iff j - i is in S.

    Row i is S + i, a subset of G. The rows are symmetric because S is
    inverse-closed (`ConnectionSet` checks it): j - i in S iff i - j in S.
    """
    G = S.group
    return _symmetric_graph(tuple(G.translate_mask(S.mask, i) for i in range(G.order)))


def double_cover(g: LabeledGraph) -> LabeledGraph:
    """Direct product with a single edge: vertices v+ (index v) and v- (index n+v).

    u+ ~ v- iff u ~ v in the base graph; no edges inside a block. A loop at v
    becomes the edge v+ ~ v-. The rows are symmetric because g's are:
    v- is in the row of u+ iff v ~ u iff u ~ v iff u+ is in the row of v-.
    """
    n = g.n
    return _symmetric_graph(tuple([row << n for row in g.rows] + list(g.rows)))


def cover_lift(perm):
    """A permutation of the n base vertices, acting alike on both cover blocks.

    In the layout of `double_cover`, the lift sends v+ = v to perm(v) and
    v- = n + v to n + perm(v).
    """
    n = len(perm)
    return as_perm(list(perm) + [n + v for v in perm])


def component_of(g: LabeledGraph, v: int = 0) -> tuple[int, bool]:
    """The component of v as a bit mask, and whether it is bipartite, by one BFS.

    The BFS runs by layers: layer k holds the vertices at distance k from
    v, and an edge joins two vertices whose layers differ by at most one.
    If no edge, loop included, lies inside a layer, coloring each vertex
    by the parity of its layer is proper. If u ~ w inside layer k, the
    shortest paths from v to u and to w close with that edge into an odd
    closed walk of length 2k + 1, so the component has an odd cycle.
    """
    rows = g.rows
    seen = layer = 1 << v
    odd = 0
    while layer:
        nxt = 0
        for u in bit_indices(layer):
            row = rows[u]
            odd |= row & layer
            nxt |= row
        layer = nxt & ~seen
        seen |= layer
    return seen, not odd


def is_connected(g: LabeledGraph) -> bool:
    return g.n == 0 or component_of(g)[0] == (1 << g.n) - 1


def is_bipartite(g: LabeledGraph) -> bool:
    """Whether every component is bipartite, each walked from its least vertex."""
    rest = (1 << g.n) - 1
    while rest:
        mask, bipartite = component_of(g, (rest & -rest).bit_length() - 1)
        if not bipartite:
            return False
        rest &= ~mask
    return True


def is_twin_free(g: LabeledGraph) -> bool:
    """Whether the rows, loop bits included, are distinct."""
    return len(set(g.rows)) == g.n


# -- bi-coset graphs ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BiCosetFrame:
    """A group X of permutations of the 2n vertices of a double cover, without D.

    Everything of a bi-coset graph that does not depend on D lives here,
    so one frame serves every graph whose cover X acts on. `elements`
    lists X once, as image arrays of length 2n, and its orbits must be
    exactly the + and - blocks. H and K are the stabilizers of 0+ and
    0-, filtered out of the listing. Building the frame checks the
    listing against both right coset partitions from `_right_cosets`: X
    lists no element twice, every product hx lies in X, and there are
    |X|/|H| cosets, so by counting they partition X; likewise for K. The
    frame keeps H's partition as its representatives (`h_reps`,
    least-index members in listing order) and K's whole, as `k_cosets`,
    since every D is checked against it. Its members are the listing's
    own objects, not the products, so the partition holds X no second
    time. `h_tables` are H's elements prepared as `left_mul` arguments,
    for the D-side check.

    `orbit_map` sends (0+)^x to Hx (index a of the a-th H-coset) and
    (0-)^x to Kx (index nh + b). Every member of Hx sends 0+ to (0+)^x,
    so the representatives define it. It is checked to be a bijection
    from the 2n vertices onto the nh + nk cosets.

    The per-element passes run in C: the length and block checks map
    `len` and `itemgetter` over the listing, the lookup is
    `dict(zip(elements, elements))`, and each coset is one `mul_each`,
    which maps `bytes.translate` with one padded table; a method caller
    per element would look `translate` up by name on every product, at
    more than twice the cost.
    """

    n: int
    elements: tuple
    h_reps: tuple = field(init=False)
    k_cosets: list = field(init=False)
    h_tables: list = field(init=False)
    orbit_map: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, elems = self.n, tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not set(map(len, elems)) <= {2 * n}:
            raise DomainError("X does not act on the cover vertex set")
        if set(map(itemgetter(0), elems)) != set(range(n)) or set(
            map(itemgetter(n), elems)
        ) != set(range(n, 2 * n)):
            raise DomainError("X orbits are not the two cover blocks")
        listed = dict(zip(elems, elems))
        if len(listed) != len(elems):
            raise DomainError("X lists an element twice")
        h_sub = [x for x in elems if x[0] == 0]
        k_sub = [x for x in elems if x[n] == n]
        partitions = []
        for name, sub in (("H", h_sub), ("K", k_sub)):
            # each product is replaced by its listed object, None if unlisted
            cosets = [
                (x, list(map(listed.get, coset))) for x, coset in _right_cosets(elems, sub)
            ]
            if len(cosets) * len(sub) != len(elems) or any(None in c for _, c in cosets):
                raise DomainError(f"the right cosets of {name} do not partition X")
            partitions.append(cosets)
        del listed
        h_reps = tuple(x for x, _ in partitions[0])
        phi = [-1] * (2 * n)
        for a, x in enumerate(h_reps):
            phi[x[0]] = a
        for b, (y, _) in enumerate(partitions[1]):
            phi[y[n]] = len(h_reps) + b
        if sorted(phi) != list(range(2 * n)):
            raise DomainError("the orbit map is not a bijection onto the cosets")
        object.__setattr__(self, "h_reps", h_reps)
        object.__setattr__(self, "k_cosets", partitions[1])
        object.__setattr__(self, "h_tables", list(map(mul_table, h_sub)))
        object.__setattr__(self, "orbit_map", tuple(phi))


def _right_cosets(elements, sub) -> list[tuple]:
    """Right cosets of `sub` in the group listed by `elements`, as (x, members).

    Each coset Hx is one `mul_each(sub, x)`: one C-level `bytes.translate`
    per product, where a method caller would look `translate` up by name
    on every call. Scanning `elements` in order, the first element x not
    yet covered is the least-index member of its coset: a member listed
    before x would have been scanned first and its coset, which is Hx,
    would already cover x. So the representative x is the coset's
    least-index member, and the cosets come out ordered by it.
    """
    covered: set = set()
    cosets = []
    for x in elements:
        if x in covered:
            continue
        coset = list(mul_each(sub, x))
        covered.update(coset)
        cosets.append((x, coset))
    return cosets


def bicoset_graph(frame: BiCosetFrame, d) -> LabeledGraph:
    """Bipartite graph on right H-cosets then right K-cosets, for a set D.

    Hx is adjacent to Ky iff y x^(-1) is in D; x and y are the cosets'
    least-index representatives. D must be a union of (K, H) double
    cosets: KdH = D for every d in D. The check is one pass over the
    frame's partition of X into right K-cosets Ky. Each lies inside D or
    is disjoint from it, and the cosets inside D hold all of D: so D ⊆ X
    and KD = D. For each Ky inside D, the left coset yH lies inside D:
    then DH = D, since every d in D is some ky with dh = k(yh) in KD = D.
    That is |H| products per K-coset inside D, and no copy of D.
    """
    inside = 0
    for y, coset in frame.k_cosets:
        if d.issuperset(coset):
            inside += len(coset)
            if d.issuperset(map(left_mul(y), frame.h_tables)):
                continue
        elif d.isdisjoint(coset):
            continue
        raise DomainError("D is not a union of (K, H) double cosets")
    if inside != len(d):
        raise DomainError("D is not contained in X")

    k_reps = [y for y, _ in frame.k_cosets]
    nh = len(frame.h_reps)
    rows = [0] * (nh + len(k_reps))
    for a, x in enumerate(frame.h_reps):
        for b, z in enumerate(mul_each(k_reps, pinv(x))):
            if z in d:
                rows[a] |= 1 << (nh + b)
                rows[nh + b] |= 1 << a
    return LabeledGraph(tuple(rows))


def verify_bicoset_isomorphism(S: ConnectionSet, frame: BiCosetFrame) -> bool:
    """Check the explicit bi-coset model of the double cover of Cay(G, S).

    G is S.group, and `frame` is the `BiCosetFrame` of a group X of
    permutations of the 2n cover vertices: H and K are the stabilizers
    of 0+ and 0-. With Y the set of x in X sending 0- into the
    neighbourhood of 0+, the frame's orbit map, sending (0+)^x to Hx and
    (0-)^x to Kx, must be a graph isomorphism from the cover onto the
    bi-coset graph of (X, H, K, Y).
    Also checks the inversion symmetry: K R(g) H inside Y iff K R(-g) H
    inside Y. Only Y and what reads it are built per call.

    Y is read off the frame's right K-cosets, one test per coset. Every
    member of Ky sends 0- to (0-)^y, since K fixes 0-; and a member x of
    another coset Ky' has (0-)^x = (0-)^y' ≠ (0-)^y, as the orbit map is
    a bijection. The cosets partition X, so Ky is exactly the fibre
    {x : (0-)^x = (0-)^y}, and Y is the union of the cosets whose
    representative y sends 0- into N(0+).
    """
    G = S.group
    n = G.order
    if frame.n != n:
        raise DomainError("the frame is not that of a double cover of G")
    cover = double_cover(cayley_graph(S))
    nbhd0 = cover.rows[0]
    y_sub = frozenset(
        chain.from_iterable(coset for y, coset in frame.k_cosets if (nbhd0 >> y[n]) & 1)
    )
    if cover.relabel(frame.orbit_map) != bicoset_graph(frame, y_sub):
        return False

    # inversion symmetry of Y on translation double cosets
    for g in range(n):
        if _translation_double_coset_in(G, g, y_sub) != (
            _translation_double_coset_in(G, G.neg(g), y_sub)
        ):
            return False
    return True


def _translation_double_coset_in(G, g, y_sub) -> bool:
    """Whether the double coset K R(g) H lies inside Y.

    Y is only passed here after `bicoset_graph` validated it as a union
    of (K, H) double cosets, so one representative decides membership.
    """
    return cover_lift(G.addition_rows()[g]) in y_sub
