"""Graph automorphism groups and canonical labeling.

Backtracking individualization-refinement over equitable partitions.
Cells are vertex bit-vectors; refinement splits cells by the count of
neighbours inside each splitter cell until the partition is equitable.
It follows Hopcroft's rule: a processed cell's counts were uniform, so the
counts into its largest part follow from those into its other parts, and
a cell split after processing requeues every part but one largest. A
one-vertex splitter splits every cell in one pass, by its row; counts
into a multi-vertex splitter are bit-sliced, added row by row into
counter planes. Refinement stops once no cell can split: at n cells, or,
at the root of a search whose one seed s is an involution, at the number
of <s>-orbits. The resulting cells are the coarsest equitable refinement
of the input, in an order read from cells and counts alone, so labels
never steer the search (see `_refine`).
Both searches confirm automorphisms at the node where they show (as
saucy does: Darga, Sakallah and Markov, DAC 2008): at a node of depth d
that is no deeper than the first path, the map sending the singleton
cells of the first-path node of depth d onto those of the node, in
order, and fixing the other cells pointwise, is tried when those other
cells are equal as sets. Cells are split in place, so equal cell sizes
put each cell inside the same initial cell, and the map respects colors.
It is kept when it sends the first path's prefix onto the node's prefix
and preserves adjacency; the search then jumps back to the first-path
node of depth j where the node's path left the first path. The map fixes
the first path's prefix of length j and sends its next vertex to the
node's, so it carries the subtree below the first path's child of that
node, already searched, onto the subtree being abandoned.
The adjacency check, `preserves`, maps the rows of only the vertices the
map moves: for a bijection and symmetric adjacency, those rows decide
the rows of the fixed ones.

`automorphism_group` takes its seeds unchecked. The classifier's one
seed, the inversion of an abelian group or its cover lift, is proved an
automorphism because the connection set is inverse-closed (see
`stability`), so checking it would only repeat a proof.

The canonical form is the lexicographically least leaf encoding. Its
search is the automorphism search that also encodes each leaf. An
automorphism carrying one subtree onto another carries leaves onto
leaves with equal encodings, since refinement and the choice of target
cell never read labels; so the jumps and the orbit pruning skip only
subtrees whose encodings have been met, and the least one is found.

The automorphisms a search finds (seeds included) are a strong generating
set relative to its first path as base (McKay and Piperno, *Practical
graph isomorphism II*, JSC 2014): at the first-path node of depth i, each
vertex of the target cell in the orbit of the path vertex under the
stabilizer of the prefix is either explored, and then yields a found
automorphism fixing the prefix that maps it onto the path vertex, or
skipped by `_orbit_of` as the image of an explored one under found
automorphisms fixing the prefix. A map confirmed at a node below that
vertex is such an automorphism: it fixes the common prefix and sends the
path vertex to the explored one. One is always found there: below the
explored vertex runs the image of the first path under an automorphism
fixing the prefix, whose discrete node at the first leaf's depth passes
every test, and orbit pruning skips a child only for an explored one
below which such an image runs too. So `automorphism_group` hands the
first path to `PermutationGroup` as its base, and no Schreier-Sims runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, ne

from .errors import CapExceededError, DomainError
from .graphs import LabeledGraph
from .groups import bit_indices, map_mask
from .perms import PermutationGroup, as_perm, identity_perm, pmul

DEFAULT_VERTEX_CAP = 2000


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical adjacency encoding plus a relabeling witnessing it.

    Applying the relabeling to the input graph yields exactly the encoded
    adjacency: encoding format is the relabeled rows, row-major bits,
    column 0 first within each row byte run.
    """

    bytes: bytes
    relabeling: tuple


def _refine(
    rows, cells: list[int], splitters: list[int] | None = None, stop: int | None = None
) -> list[int]:
    """Split cells by neighbour counts into splitter cells until equitable.

    Each cell that splits is replaced in place by its parts, in increasing
    order of their neighbour count into the splitter. Splitters wait on a
    stack and `pending` holds the cells on it. Hopcroft's rule picks what
    to push: a cell split while pending leaves the stack and all its parts
    are pushed; a cell split after it was processed had uniform counts on
    every cell, so the counts into its first largest part are those counts
    minus the counts into its other parts, and only the others are pushed.
    So the counts into every cell that is not pending follow from counts
    the partition is already stable against and counts into pending cells,
    and the partition is equitable once the stack is empty.

    A split only separates vertices whose counts into a union of cells
    differ, which every equitable refinement of the input separates too,
    so the cells are the coarsest equitable refinement of the input,
    whatever order the splitters are taken in. That order, and with it the
    cell order, is read from the ordered cells and the counts alone, never
    from vertex labels, so relabeling the input relabels the output.

    A one-vertex splitter splits each cell in one pass, into the cell's
    vertices off its row and those on it; a singleton never splits, as
    its part on the row is empty or all of it. A multi-vertex splitter's
    counts are bit-sliced: the rows of its vertices are summed into
    counter planes by a ripple-carry adder, and cells meeting some row are
    split plane by plane, most significant first. Explicit splitters
    restore equitability after individualizing v in an equitable
    partition: the counts into v's old cell were uniform, so pushing
    [1 << v] alone suffices.

    The loop stops early once there are `stop` cells, n by default: a
    discrete partition has no cell to split, so the remaining splitters
    would change nothing. The root refinement of a search whose one seed
    is an involution s stops at the number of <s>-orbits, (n + f) / 2 for
    f fixed points of s (`_root_stop`). s is a proved automorphism
    preserving the colors, so each initial cell (color, loop, degree) is
    s-invariant, and a split of an s-invariant cell by the counts into an
    s-invariant splitter gives s-invariant parts, as v and s(v) have the
    same count. So every cell, and so every splitter, is a union of
    orbits throughout. Once the cells are as many as the orbits, each
    cell is one orbit, and no s-invariant splitter splits an orbit; so the
    cells are the full refinement, in the same order.
    """
    cells = list(cells)
    stack = list(cells) if splitters is None else list(splitters)
    pending = set(stack)
    if stop is None:
        stop = len(rows)
    while stack and len(cells) < stop:
        s = stack.pop()
        if s not in pending:
            continue  # split after it was pushed: its parts are pending
        pending.discard(s)
        if s & (s - 1) == 0:
            # one-vertex splitter: each cell splits into cell ^ one, off
            # the row, then one, on it
            row = rows[s.bit_length() - 1]
            ones = [
                (i, one) for i, cell in enumerate(cells) if (one := cell & row) and one != cell
            ]
            for i, one in ones:
                cell = cells[i]
                rest = cell ^ one
                if cell in pending:
                    pending.discard(cell)
                    stack += (rest, one)
                    pending.update((rest, one))
                else:
                    # push the smaller part, the one part on a tie
                    small = one if one.bit_count() <= rest.bit_count() else rest
                    stack.append(small)
                    pending.add(small)
            for i, one in reversed(ones):
                cells[i:i + 1] = (cells[i] ^ one, one)
            continue
        # bit-sliced neighbour counts: bit v of planes[k] is bit k of
        # |N(v) & s|, summed row by row with a ripple-carry adder
        planes = []
        touched = 0
        m = s
        while m:
            low = m & -m
            carry = rows[low.bit_length() - 1]
            m ^= low
            touched |= carry
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        planes.reverse()
        splits = []
        for i, cell in enumerate(cells):
            if not cell & touched or cell & (cell - 1) == 0:
                continue  # all counts zero, or a singleton
            # most significant plane first, zero bits before one bits: the
            # parts come out in increasing count order
            parts = [cell]
            for plane in planes:
                one = cell & plane
                if not one or one == cell:
                    continue  # uniform on the cell, so on every part
                nxt = []
                for part in parts:
                    one = part & plane
                    if one and one != part:
                        nxt.append(part ^ one)
                        nxt.append(one)
                    else:
                        nxt.append(part)
                parts = nxt
            if len(parts) == 1:
                continue
            splits.append((i, parts))
            if cell in pending:
                pending.discard(cell)
                push = parts
            else:
                sizes = [p.bit_count() for p in parts]
                skip = sizes.index(max(sizes))
                push = parts[:skip] + parts[skip + 1:]
            stack.extend(push)
            pending.update(push)
        for i, parts in reversed(splits):
            cells[i:i + 1] = parts
    return cells


def _root_stop(seeds, n: int) -> int:
    """Cell count at which the root refinement is final (see `_refine`).

    With one seed s that is an involution, the number of <s>-orbits,
    (n + f) / 2 for f fixed points; with no seed or several, n.
    """
    if len(seeds) == 1:
        (s,) = seeds
        if pmul(s, s) == identity_perm(n):
            return (n + sum(map(eq, s, range(n)))) // 2
    return n


class _Search:
    """One individualization-refinement traversal of a colored graph.

    A map confirmed at a node (see the module docstring) triggers a jump
    back to the deepest common ancestor with the first path: the aborted
    subtree is the image of an explored one under the found automorphism.
    With `canonical` set the search also encodes each leaf and keeps the
    least encoding; the traversal is the same either way.
    """

    def __init__(self, graph: LabeledGraph, colors, canonical: bool, seeds=()):
        self.graph = graph
        self.n = graph.n
        self.rows = graph.rows
        self.canonical = canonical
        # initial cells: color, then loop flag, then degree, all invariant
        keyed: dict[tuple[int, int, int], int] = {}
        for v in range(self.n):
            key = (colors[v], (graph.rows[v] >> v) & 1, graph.rows[v].bit_count())
            keyed[key] = keyed.get(key, 0) | (1 << v)
        self.initial = [keyed[k] for k in sorted(keyed)]
        self.gens: list = list(seeds)
        self._gen_set = set(self.gens)
        self.first_path: list[int] | None = None
        self.first_cells: list[list[int]] = []  # first-path cells, by depth
        self.best = None  # (encoding, perm), canonical mode only

    def run(self):
        if self.n == 0:
            p = as_perm(())
            self.first_path = []
            self.best = ((), p)
            return
        self._node(_refine(self.rows, self.initial, stop=_root_stop(self.gens, self.n)), [])

    def _add_gen(self, a):
        if a != identity_perm(self.n) and a not in self._gen_set:
            self.gens.append(a)
            self._gen_set.add(a)

    # -- leaves --------------------------------------------------------------

    def _leaf(self, cells, prefix) -> None:
        if self.first_path is None:
            self.first_path = list(prefix)
        if not self.canonical:
            return
        images = [0] * self.n
        for pos, cell in enumerate(cells):
            images[cell.bit_length() - 1] = pos
        # singleton cells list discrete vertices, so images is a bijection
        p = as_perm(images)
        enc = self._encode(p)
        if self.best is None or enc < self.best[0]:
            self.best = (enc, p)

    def _encode(self, p):
        out = [0] * self.n
        for v, row in enumerate(self.rows):
            out[p[v]] = map_mask(row, p)
        return tuple(out)

    def _confirm(self, cells, prefix) -> int | None:
        """Jump depth when the first-path node maps onto this one, else None.

        The candidate sends each singleton cell of the first-path node of
        the same depth to the singleton at the same place here and fixes
        the other cells, which must be equal as sets, pointwise. It must
        send the first path's prefix onto this node's and preserve
        adjacency; it is then a found automorphism, and the jump depth
        is the length of the prefix it fixes, where this node's path left
        the first path. An automorphism carrying the first-path node onto
        this one carries the first path onto this node's path, as the
        individualized vertices keep their places, so the prefix test
        only spares the adjacency loop a candidate that would fail it.
        """
        first = self.first_cells[len(prefix)]
        if len(first) != len(cells):
            return None
        moved = []
        for a, b in zip(first, cells):
            if a != b:
                if a & (a - 1) or b & (b - 1):
                    return None
                moved.append((a, b))
        images = list(range(self.n))
        for a, b in moved:
            images[a.bit_length() - 1] = b.bit_length() - 1
        if any(images[x] != y for x, y in zip(self.first_path, prefix)):
            return None
        g = as_perm(images)
        if not preserves(self.graph, g):
            return None
        self._add_gen(g)
        depth = 0
        while prefix[depth] == self.first_path[depth]:
            depth += 1
        return depth

    # -- tree ----------------------------------------------------------------

    def _node(self, cells, prefix) -> int | None:
        depth = len(prefix)
        if self.first_path is None:
            self.first_cells.append(cells)
        elif depth < len(self.first_cells):
            jump = self._confirm(cells, prefix)
            if jump is not None:
                return jump
        sizes = [cell.bit_count() for cell in cells]
        biggest = max(sizes)
        if biggest == 1:
            return self._leaf(cells, prefix)
        target = sizes.index(biggest)
        cell = cells[target]
        done = 0  # union of orbits already explored
        usable = []  # the generators fixing the prefix, of self.gens[:seen]
        seen = 0
        for v in bit_indices(cell):
            if (done >> v) & 1:
                continue
            rest = cell & ~(1 << v)
            child = cells[:target] + [1 << v, rest] + cells[target + 1:]
            # splitting by the singleton alone suffices: counts into the
            # parent cell stay uniform on subcells, so stability against
            # the rest follows from stability against the singleton
            refined = _refine(self.rows, child, [1 << v])
            jump = self._node(refined, prefix + [v])
            if jump is not None and jump < depth:
                return jump
            usable += [g for g in self.gens[seen:] if all(g[p] == p for p in prefix)]
            seen = len(self.gens)
            done |= _orbit_of(v, usable)
        return None


def _orbit_of(v: int, usable) -> int:
    """Orbit of v under the generators usable, those fixing the prefix."""
    orbit = 1 << v
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for g in usable:
                y = g[x]
                if not (orbit >> y) & 1:
                    orbit |= 1 << y
                    nxt.append(y)
        frontier = nxt
    return orbit


def _check_cap(n: int):
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError("automorphism search vertices", n, DEFAULT_VERTEX_CAP)


def automorphism_group(graph: LabeledGraph, colors=None, *, seeds=()) -> PermutationGroup:
    """Automorphisms of graph preserving a vertex coloring, all of them by default.

    colors gives one color per vertex, any sortable values; the search
    starts from the cells of equal color. It also starts from `seeds`,
    automorphisms of graph preserving the colors that the caller has
    proved: none is checked here, and identity seeds are dropped. The
    classifier passes one, the inversion or its cover lift (see
    `stability`), and searches point stabilizers: a translation group
    regular on the point's block supplies the rest of the order, so no
    translation is needed as a seed. A single seed that is an involution
    also bounds the root refinement, which stops at its number of orbits
    (see `_refine`).
    """
    _check_cap(graph.n)
    if colors is None:
        colors = [0] * graph.n
    elif len(colors) != graph.n:
        raise DomainError("the coloring does not give one color per vertex")
    ident = identity_perm(graph.n)
    seeds = [s for s in seeds if s != ident]
    search = _Search(graph, colors, canonical=False, seeds=seeds)
    search.run()
    # generators found by the search were checked to preserve adjacency
    # when they were confirmed; only the colors still need checking
    for g in search.gens[len(seeds):]:
        if any(map(ne, map(colors.__getitem__, g), colors)):
            raise DomainError("generator does not preserve the colors")
    return PermutationGroup(graph.n, search.gens, search.first_path)


def preserves(graph: LabeledGraph, g) -> bool:
    """Whether the permutation g is an automorphism of graph.

    Only the vertices g moves are checked for g(N(v)) = N(g(v)): they are
    picked out in C, and the row of each is mapped by `map_mask` and
    compared with the row of g(v). That suffices, because g is a
    bijection and adjacency is symmetric. Take a fixed u and a neighbour
    w of u. Either w is fixed, so g(w) = w lies in N(u); or w is moved,
    and u in N(w) gives u = g(u) in N(g(w)), so g(w) lies in N(u). So
    g(N(u)) is inside N(u), and the two have the same size, so they are
    equal.
    """
    rows = graph.rows
    n = graph.n
    for v in compress(range(n), map(ne, g, range(n))):
        if map_mask(rows[v], g) != rows[g[v]]:
            return False
    return True


def canonical_form(graph: LabeledGraph) -> CanonicalForm:
    """Relabel-invariant encoding: identical for isomorphic labeled inputs."""
    _check_cap(graph.n)
    search = _Search(graph, [0] * graph.n, canonical=True)
    search.run()
    assert search.best is not None
    enc, p = search.best
    n = graph.n
    width = (n + 7) // 8
    blob = bytearray()
    blob += n.to_bytes(4, "big")
    for row in enc:
        blob += row.to_bytes(width, "little")
    return CanonicalForm(bytes(blob), tuple(p))
