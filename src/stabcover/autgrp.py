"""Graph automorphism groups and canonical labeling.

Backtracking individualization-refinement over equitable partitions.
Cells are vertex bit-vectors; refinement splits cells by the count of
neighbours inside each splitter cell until the partition is equitable.
It follows Hopcroft's rule: a processed cell's counts were uniform, so the
counts into its largest part follow from those into its other parts, and
a cell split after processing requeues every part but one largest. Counts
into a multi-vertex splitter are bit-sliced, added row by row into
counter planes. The resulting cells are the coarsest equitable refinement
of the input, in an order read from cells and counts alone, so labels
never steer the search (see `_refine`).
Automorphisms are read off leaf collisions with the first leaf; the
canonical form is the lexicographically least leaf encoding.

The automorphisms a search finds (seeds included) are a strong generating
set relative to its first path as base (McKay and Piperno, *Practical
graph isomorphism II*, JSC 2014): at the first-path node of depth i, each
vertex of the target cell in the orbit of the path vertex under the
stabilizer of the prefix is either explored, and then yields a found
automorphism fixing the prefix that maps it onto the path vertex, or
skipped by `_orbit_of` as the image of an explored one under found
automorphisms fixing the prefix. So `automorphism_group` hands the first
path to `PermutationGroup.from_base`, which needs no Schreier-Sims.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, DomainError
from .graphs import LabeledGraph
from .perms import PermutationGroup, as_perm, pinv, pmul

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


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine(rows, cells: list[int], splitters: list[int] | None = None) -> list[int]:
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

    A multi-vertex splitter's counts are bit-sliced: the rows of its
    vertices are summed into counter planes by a ripple-carry adder, and
    cells are split plane by plane, most significant first; a one-vertex
    splitter has its row as the one plane. Cells meeting no row are
    skipped. Explicit splitters restore equitability after individualizing
    v in an equitable partition: the counts into v's old cell were uniform,
    so pushing [1 << v] alone suffices.
    """
    cells = list(cells)
    stack = list(cells) if splitters is None else list(splitters)
    pending = set(stack)
    while stack:
        s = stack.pop()
        if s not in pending:
            continue  # split after it was pushed: its parts are pending
        pending.discard(s)
        if s & (s - 1) == 0:
            # one-vertex splitter: the one count plane is that vertex's row
            planes = [rows[s.bit_length() - 1]]
            touched = planes[0]
        else:
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


class _Search:
    """One individualization-refinement traversal of a colored graph.

    In automorphism mode a leaf collision triggers a jump back to the
    deepest common ancestor with the first-leaf path (the aborted subtree
    is the image of an explored one under the found automorphism).
    Canonical mode walks every orbit-inequivalent branch to keep the
    least leaf encoding.
    """

    def __init__(self, graph: LabeledGraph, colors, canonical: bool, seeds=()):
        self.n = graph.n
        self.rows = graph.rows
        self.nbrs = [_bits(row) for row in graph.rows]
        self.canonical = canonical
        # initial cells: color, then loop flag, then degree, all invariant
        keyed: dict[tuple[int, int, int], int] = {}
        for v in range(self.n):
            key = (colors[v], (graph.rows[v] >> v) & 1, graph.rows[v].bit_count())
            keyed[key] = keyed.get(key, 0) | (1 << v)
        self.initial = [keyed[k] for k in sorted(keyed)]
        self.gens: list = list(seeds)
        self._gen_set = set(self.gens)
        self.first_leaf = None  # (perm, encoding)
        self.first_path: list[int] = []
        self.best = None  # (encoding, perm)

    def run(self):
        if self.n == 0:
            p = as_perm(())
            self.first_leaf = (p, ())
            self.best = ((), p)
            return
        self._node(_refine(self.rows, self.initial), [])

    # -- leaves --------------------------------------------------------------

    def _leaf(self, cells, prefix) -> int | None:
        images = [0] * self.n
        for pos, cell in enumerate(cells):
            images[cell.bit_length() - 1] = pos
        # singleton cells list discrete vertices, so images is a bijection
        p = bytes(images) if self.n <= 256 else tuple(images)
        enc = self._encode(p)
        jump = None
        if self.first_leaf is None:
            self.first_leaf = (p, enc)
            self.first_path = list(prefix)
        elif enc == self.first_leaf[1]:
            a = pmul(p, pinv(self.first_leaf[0]))
            if a != as_perm(range(self.n)) and a not in self._gen_set:
                self.gens.append(a)
                self._gen_set.add(a)
            if not self.canonical:
                depth = 0
                for x, y in zip(prefix, self.first_path):
                    if x != y:
                        break
                    depth += 1
                jump = depth
        if self.canonical and (self.best is None or enc < self.best[0]):
            self.best = (enc, p)
        return jump

    def _encode(self, p):
        out = [0] * self.n
        for v, nbr in enumerate(self.nbrs):
            img = 0
            for u in nbr:
                img |= 1 << p[u]
            out[p[v]] = img
        return tuple(out)

    # -- tree ----------------------------------------------------------------

    def _node(self, cells, prefix) -> int | None:
        sizes = [cell.bit_count() for cell in cells]
        biggest = max(sizes)
        if biggest == 1:
            return self._leaf(cells, prefix)
        target = sizes.index(biggest)
        cell = cells[target]
        depth = len(prefix)
        done = 0  # union of orbits already explored
        for v in _bits(cell):
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
            done |= self._orbit_of(v, prefix)
        return None

    def _orbit_of(self, v: int, prefix) -> int:
        """Orbit of v under known generators fixing the individualized prefix."""
        usable = [g for g in self.gens if all(g[p] == p for p in prefix)]
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


def automorphism_group(
    graph: LabeledGraph,
    fixed_blocks: list | None = None,
    known_automorphisms=None,
) -> PermutationGroup:
    """Full automorphism group, or the subgroup fixing each given block setwise.

    known_automorphisms seeds the pruning with automorphisms the caller can
    already name (they are verified first); the result is the same group,
    found faster when the seeds act transitively on large cells.
    """
    _check_cap(graph.n)
    colors = [0] * graph.n
    if fixed_blocks is not None:
        for i, block in enumerate(fixed_blocks, start=1):
            for v in block:
                if colors[v]:
                    raise DomainError("fixed blocks overlap")
                colors[v] = i
    ident = as_perm(range(graph.n))
    seeds = [as_perm(s, graph.n) for s in known_automorphisms or ()]
    seeds = [s for s in seeds if s != ident]
    search = _Search(graph, colors, canonical=False, seeds=seeds)
    for s in seeds:
        _assert_preserves(graph, s, search.nbrs)
        _assert_respects_blocks(s, fixed_blocks)
    search.run()
    # generators found by the search come from leaf collisions with equal
    # adjacency encodings, so they preserve adjacency by construction; only
    # their block behavior still needs checking
    for g in search.gens[len(seeds):]:
        _assert_respects_blocks(g, fixed_blocks)
    return PermutationGroup.from_base(graph.n, search.gens, search.first_path)


def _assert_respects_blocks(g, fixed_blocks):
    if fixed_blocks is None:
        return
    for block in fixed_blocks:
        if {g[v] for v in block} != set(block):
            raise DomainError("generator does not respect a fixed block")


def _assert_preserves(graph: LabeledGraph, g, nbrs):
    for v, nbr in enumerate(nbrs):
        img = 0
        for u in nbr:
            img |= 1 << g[u]
        if img != graph.rows[g[v]]:
            raise DomainError("generator does not preserve adjacency")


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
