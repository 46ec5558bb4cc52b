"""Automorphism search and canonical forms against factorial brute force."""

import itertools
import math
import random

import pytest

from stabcover.autgrp import (
    DEFAULT_VERTEX_CAP,
    _refine,
    _Search,
    automorphism_group,
    canonical_form,
)
from stabcover.errors import CapExceededError, DomainError
from stabcover.graphs import ConnectionSet, LabeledGraph, cayley_graph, double_cover
from stabcover.groups import all_abelian_groups, inverse_closed_masks, make_group
from stabcover.perms import PermutationGroup, as_perm, pmul
from stabcover.stability import b_group


def _random_graph(rng, n, p=0.5, loops=False):
    rows = [0] * n
    for u in range(n):
        if loops and rng.random() < 0.3:
            rows[u] |= 1 << u
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return LabeledGraph(n, tuple(rows))


def _brute_automorphisms(g):
    out = []
    for images in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == g.has_edge(images[u], images[v])
            for u in range(g.n)
            for v in range(u, g.n)
        ):
            out.append(as_perm(images))
    return out


def test_all_graphs_up_to_four_vertices():
    for n in range(5):
        pair_count = n * (n - 1) // 2
        for code in range(1 << pair_count):
            rows = [0] * n
            k = 0
            for u in range(n):
                for v in range(u + 1, n):
                    if code >> k & 1:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                    k += 1
            g = LabeledGraph(n, tuple(rows))
            A = automorphism_group(g)
            assert A.order == len(_brute_automorphisms(g))


def test_random_graphs_with_loops():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]), loops=True)
        A = automorphism_group(g)
        brute = _brute_automorphisms(g)
        assert A.order == len(brute)
        assert all(A.contains(p) for p in brute)


def test_known_orders():
    n = 7
    cyc = LabeledGraph(
        n, tuple((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n))
    )
    assert automorphism_group(cyc).order == 2 * n
    full = (1 << n) - 1
    kn = LabeledGraph(n, tuple(full & ~(1 << v) for v in range(n)))
    assert automorphism_group(kn).order == math.factorial(n)


def test_petersen_graph():
    # outer 5-cycle, inner 5-star, spokes
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, v + 5) for v in range(5)]
    rows = [0] * 10
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = LabeledGraph(10, tuple(rows))
    assert automorphism_group(g).order == 120


def test_fixed_blocks_stabilizer():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 6)
        g = _random_graph(rng, n)
        block = list(range(rng.randint(1, n)))
        A = automorphism_group(g, fixed_blocks=[block])
        brute = [
            p for p in _brute_automorphisms(g) if {p[v] for v in block} == set(block)
        ]
        assert A.order == len(brute)


def test_fixed_blocks_overlap_rejected():
    g = LabeledGraph(3, (0, 0, 0))
    with pytest.raises(DomainError):
        automorphism_group(g, fixed_blocks=[[0, 1], [1, 2]])


def test_known_automorphism_seeds():
    n = 6
    cyc = LabeledGraph(
        n, tuple((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n))
    )
    rot = as_perm([(v + 1) % n for v in range(n)])
    assert automorphism_group(cyc, known_automorphisms=[rot]).order == 2 * n
    with pytest.raises(DomainError):
        automorphism_group(cyc, known_automorphisms=[as_perm([1, 0, 2, 3, 4, 5])])
    # an automorphism moving a fixed block is rejected as a seed too
    with pytest.raises(DomainError):
        automorphism_group(cyc, fixed_blocks=[[0, 1, 2]], known_automorphisms=[rot])


def test_canonical_form_invariance():
    rng = random.Random(91)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, 0.5, loops=True)
        base = canonical_form(g).bytes
        for _ in range(3):
            perm = as_perm(rng.sample(range(n), n))
            assert canonical_form(g.relabel(perm)).bytes == base


def _brute_isomorphic(g, h):
    if g.n != h.n:
        return False
    return any(
        all(
            g.has_edge(u, v) == h.has_edge(p[u], p[v])
            for u in range(g.n)
            for v in range(u, g.n)
        )
        for p in itertools.permutations(range(g.n))
    )


def test_canonical_form_separates():
    rng = random.Random(13)
    graphs = [_random_graph(rng, 5, p, loops=True) for p in (0.2, 0.4, 0.6, 0.8)]
    for a in graphs:
        for b in graphs:
            assert (canonical_form(a).bytes == canonical_form(b).bytes) == (
                _brute_isomorphic(a, b)
            )


def test_canonical_relabeling_witness():
    rng = random.Random(3)
    for _ in range(10):
        g = _random_graph(rng, rng.randint(1, 6), 0.5)
        cf = canonical_form(g)
        relabeled = g.relabel(cf.relabeling)
        width = (g.n + 7) // 8
        blob = g.n.to_bytes(4, "big") + b"".join(
            row.to_bytes(width, "little") for row in relabeled.rows
        )
        assert blob == cf.bytes


def test_vertex_cap():
    n = DEFAULT_VERTEX_CAP + 1
    g = LabeledGraph(n, tuple([0] * n))
    with pytest.raises(CapExceededError):
        automorphism_group(g)


def _assert_matches_schreier_sims(A, elements_up_to=2_000):
    """A's first-path chain against Schreier-Sims on the same generators.

    Membership is compared on every element (sifting through each
    transversal inverse) and on each element times a transposition.
    """
    ref = PermutationGroup(A.degree, A.generators)
    assert A.order == ref.order
    swap = as_perm([1, 0] + list(range(2, A.degree)) if A.degree > 1 else [0])
    if A.order <= elements_up_to:
        elems = A.elements()
        assert len(elems) == A.order
        assert set(elems) == set(ref.elements())
    else:
        elems = ref.generators
    for g in elems:
        assert A.contains(g)
        assert A.contains(pmul(g, swap)) == ref.contains(pmul(g, swap))


def _search_groups(G, S):
    gam = cayley_graph(G, S)
    return b_group(G, S), automorphism_group(gam), automorphism_group(double_cover(gam))


def test_first_path_chain_matches_schreier_sims():
    for G in all_abelian_groups(10):
        for mask in inverse_closed_masks(G):
            for A in _search_groups(G, ConnectionSet(G, mask)):
                _assert_matches_schreier_sims(A)


def test_first_path_chain_tuple_degree():
    # covers of Cay(C_n, {1, -1}) have 2n > 256 vertices: tuple perms. The
    # cover of the 130-cycle is two 130-cycles, that of the 131-cycle a
    # 262-cycle
    for n, cover_order in ((130, 2 * 260**2), (131, 2 * 262)):
        G = make_group([n])
        b, base, cover = _search_groups(G, ConnectionSet(G, (1 << 1) | (1 << (n - 1))))
        assert isinstance(cover.generators[0], tuple)
        assert base.order == 2 * n
        assert cover.order == cover_order
        for A in (b, base, cover):
            _assert_matches_schreier_sims(A)
    # the rotation by one cover label is no automorphism of the 262-cycle
    assert not cover.contains(as_perm(list(range(1, 262)) + [0]))


def test_plus_pointwise_stabilizer_matches_enumeration():
    # the cover automorphisms fixing every + vertex are the elements of B(S)
    # acting trivially on +; twins make them nontrivial
    nontrivial = 0
    for G in all_abelian_groups(8):
        n = G.order
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            B = b_group(G, S)
            if B.order > 20_000:
                continue
            plus_ident = bytes(range(n))
            expected = sum(1 for p in B.elements() if p[:n] == plus_ident)
            cover = double_cover(cayley_graph(G, S))
            found = automorphism_group(cover, fixed_blocks=[[v] for v in range(n)])
            assert found.order == expected
            nontrivial += expected > 1
    assert nontrivial > 0


# -- refinement against the splitting oracle -----------------------------------


def _reference_refine(rows, cells, splitters=None):
    """Refinement that queues every new part and regroups by a count dict.

    The refinement before Hopcroft's rule and bit-sliced counts, kept as
    the oracle for the cells `_refine` must reach.
    """
    queue = list(cells) if splitters is None else list(splitters)
    while queue:
        s = queue.pop()
        if s & (s - 1) == 0:
            rs = rows[s.bit_length() - 1]
            new_cells = []
            for cell in cells:
                a = cell & rs
                if a == 0 or a == cell:
                    new_cells.append(cell)
                    continue
                b = cell ^ a
                new_cells.append(b)
                new_cells.append(a)
                queue.append(b)
                queue.append(a)
            cells = new_cells
            continue
        new_cells = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups = {}
            m = cell
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                k = (rows[v] & s).bit_count()
                groups[k] = groups.get(k, 0) | low
            if len(groups) > 1:
                parts = [groups[k] for k in sorted(groups)]
                new_cells.extend(parts)
                queue.extend(parts)
            else:
                new_cells.append(cell)
        cells = new_cells
    return cells


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _relabel_mask(mask, perm):
    return sum(1 << perm[v] for v in _members(mask))


def _check_refine(g, cells, splitters, rng):
    """`_refine` against the oracle on one input, and under a relabeling."""
    rows = g.rows
    got = _refine(rows, list(cells), splitters)
    assert sorted(got) == sorted(_reference_refine(rows, list(cells), splitters))
    members = [_members(x) for x in got]
    for y in got:
        counts = [(row & y).bit_count() for row in rows]
        for vs in members:
            assert len({counts[v] for v in vs}) == 1
    # the first splitter taken (the last one given) orders the parts of
    # every input cell by increasing count
    first = (cells if splitters is None else splitters)[-1]
    for cell in cells:
        seq = [(rows[_members(x)[0]] & first).bit_count() for x in got if x & cell]
        assert seq == sorted(seq)
    perm = rng.sample(range(g.n), g.n)
    h = g.relabel(as_perm(perm))
    moved = _refine(
        h.rows,
        [_relabel_mask(c, perm) for c in cells],
        None if splitters is None else [_relabel_mask(s, perm) for s in splitters],
    )
    assert moved == [_relabel_mask(c, perm) for c in got]


def _check_refine_tree(g, colors, rng, individualize=None):
    """The initial refinement, then individualizing vertices one at a time.

    Individualizes every vertex of every non-singleton cell, or the first
    `individualize` vertices of the first largest cell, as `_Search._node`
    does.
    """
    initial = _Search(g, colors, canonical=False).initial
    _check_refine(g, initial, None, rng)
    top = _refine(g.rows, initial)
    targets = [t for t, cell in enumerate(top) if cell & (cell - 1)]
    if individualize is not None and targets:
        sizes = [cell.bit_count() for cell in top]
        targets = [sizes.index(max(sizes))]
    for t in targets:
        cell = top[t]
        for v in _members(cell)[:individualize]:
            child = top[:t] + [1 << v, cell & ~(1 << v)] + top[t + 1:]
            _check_refine(g, child, [1 << v], rng)
    return len(targets)


def test_refine_matches_oracle_on_cayley_graphs_and_covers():
    rng = random.Random(5)
    individualized = 0
    for G in all_abelian_groups(8):
        n = G.order
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(G, ConnectionSet(G, mask))
            individualized += _check_refine_tree(gam, [0] * n, rng)
            # the cover with its blocks colored apart, as `b_group` searches it
            individualized += _check_refine_tree(
                double_cover(gam), [1] * n + [0] * n, rng
            )
    assert individualized > 0


def test_refine_matches_oracle_on_random_graphs_with_loops():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 24)
        g = _random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.9]), loops=True)
        _check_refine_tree(g, [rng.randint(0, 1) for _ in range(n)], rng)
    # more than 256 vertices: a circulant with loops on every sixth vertex,
    # so the top-level refinement keeps cells to individualize in
    n = 300
    steps = rng.sample(range(1, n // 2), 4)
    rows = [0] * n
    for v in range(n):
        for d in steps:
            rows[v] |= (1 << (v + d) % n) | (1 << (v - d) % n)
    for v in range(0, n, 6):
        rows[v] |= 1 << v
    g = LabeledGraph(n, tuple(rows))
    assert _check_refine_tree(g, [0] * n, rng, individualize=3) == 1
