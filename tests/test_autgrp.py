"""Automorphism search and canonical forms against factorial brute force."""

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from helpers import b_group, cyclic_oracle_sets, has_edge, reference_group
from stabcover import autgrp
from stabcover.autgrp import (
    DEFAULT_VERTEX_CAP,
    _refine,
    _root_stop,
    _Search,
    automorphism_group,
    canonical_form,
)
from stabcover.errors import CapExceededError, DomainError
from stabcover.census import hol_orbits
from stabcover.graphs import (
    ConnectionSet,
    LabeledGraph,
    cayley_graph,
    double_cover,
    is_bipartite,
    is_connected,
    is_twin_free,
)
from stabcover.groups import all_abelian_groups, bit_indices, inverse_closed_masks, make_group
from stabcover.perms import as_perm, identity_perm, pmul
from stabcover.stability import b0_group, group_context


def _random_graph(rng, n, p=0.5, loops=False):
    rows = [0] * n
    for u in range(n):
        if loops and rng.random() < 0.3:
            rows[u] |= 1 << u
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return LabeledGraph(tuple(rows))


def _brute_automorphisms(g):
    out = []
    for images in itertools.permutations(range(g.n)):
        if all(
            has_edge(g, u, v) == has_edge(g, images[u], images[v])
            for u in range(g.n)
            for v in range(u, g.n)
        ):
            out.append(as_perm(images))
    return out


def _assert_is_brute(A, brute):
    assert A.order == len(brute)
    assert set(A.elements()) == set(brute)


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
            g = LabeledGraph(tuple(rows))
            brute = _brute_automorphisms(g)
            _assert_is_brute(automorphism_group(g), brute)
            _assert_is_brute(_leaf_only_group(g), brute)
            # and with the first two vertices colored apart from the rest
            if n > 2:
                kept = [p for p in brute if {p[0], p[1]} == {0, 1}]
                _assert_is_brute(automorphism_group(g, [1, 1] + [0] * (n - 2)), kept)


def test_random_graphs_with_loops():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]), loops=True)
        brute = _brute_automorphisms(g)
        _assert_is_brute(automorphism_group(g), brute)
        _assert_is_brute(_leaf_only_group(g), brute)


def test_known_orders():
    n = 7
    cyc = LabeledGraph(tuple((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n)))
    assert automorphism_group(cyc).order == 2 * n
    full = (1 << n) - 1
    kn = LabeledGraph(tuple(full & ~(1 << v) for v in range(n)))
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
    g = LabeledGraph(tuple(rows))
    assert automorphism_group(g).order == 120


def test_fixed_blocks_stabilizer():
    rng = random.Random(47)
    cases = []
    for _ in range(15):
        n = rng.randint(2, 6)
        cases.append((_random_graph(rng, n), rng.randint(1, n)))
    # and graphs with loops at several densities
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]), loops=True)
        cases.append((g, rng.randint(1, n)))
    for g, size in cases:
        n = g.n
        block = list(range(size))
        colors = [1 if v in block else 0 for v in range(n)]
        A = automorphism_group(g, colors)
        brute = [
            p for p in _brute_automorphisms(g) if {p[v] for v in block} == set(block)
        ]
        _assert_is_brute(A, brute)
        _assert_is_brute(_leaf_only_group(g, colors), brute)


def test_coloring_of_the_wrong_length_rejected():
    g = LabeledGraph((0, 0, 0))
    for colors in ([0, 1], [0, 1, 2, 0]):
        with pytest.raises(DomainError):
            automorphism_group(g, colors)


def test_random_colorings_match_brute_force():
    # three or more color classes with unordered, gapped values, which a
    # list of fixed blocks could not express; the group is every
    # automorphism keeping each vertex's color
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(3, 7)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]), loops=True)
        values = rng.sample([-4, 9, 2, 30, -1], rng.randint(3, min(5, n)))
        colors = values + [rng.choice(values) for _ in range(n - len(values))]
        rng.shuffle(colors)
        brute = [
            p for p in _brute_automorphisms(g) if all(colors[p[v]] == colors[v] for v in range(n))
        ]
        _assert_is_brute(automorphism_group(g, colors), brute)
        _assert_is_brute(_leaf_only_group(g, colors), brute)


def _with_twin(rng, g):
    """(g with a vertex v added, u): v's row agrees with that of a random
    vertex u off {u, v}, and so does its loop flag, so swapping u and v
    preserves the graph."""
    n = g.n
    u = rng.randrange(n)
    rows = list(g.rows) + [0]
    for w in bit_indices(g.rows[u] & ~(1 << u)):
        rows[w] |= 1 << n
        rows[n] |= 1 << w
    if (g.rows[u] >> u) & 1:
        rows[n] |= 1 << n
    if rng.random() < 0.5:
        rows[u] |= 1 << n
        rows[n] |= 1 << u
    return LabeledGraph(tuple(rows)), u


def test_preserves_against_relabeling():
    # `preserves` reads only the vertices a permutation moves; the oracle
    # relabels the whole graph. Random graphs with loops and a twin pair;
    # permutations of every support size; every transposition, among them
    # that of the twins (an automorphism) and those of vertices whose rows
    # differ; the found automorphisms, and each one times a transposition.
    # Leaving out any one moved vertex v would still be exact: a pair only
    # v covers, {v, w} with w fixed or w = v, shares its orbit under g with
    # pairs {g^i(v), w} that are checked, and adjacency is then constant
    # around the orbit. So a wrong support must miss two moved vertices
    rng = random.Random(53)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 8)
        g, u = _with_twin(rng, _random_graph(rng, n, p=rng.random(), loops=True))
        n += 1
        twin_swap = list(range(n))
        twin_swap[u], twin_swap[n - 1] = n - 1, u
        assert autgrp.preserves(g, as_perm(twin_swap))
        perms = [identity_perm(n)]
        for k in range(2, n + 1):
            moved = rng.sample(range(n), k)
            images = list(range(n))
            while any(images[v] == v for v in moved):
                targets = moved[:]
                rng.shuffle(targets)
                for v, w in zip(moved, targets):
                    images[v] = w
            perms.append(images)
        swaps = []
        for a, b in itertools.combinations(range(n), 2):
            images = list(range(n))
            images[a], images[b] = b, a
            swaps.append(as_perm(images))
        # automorphisms of larger support, as random words in the found
        # generators, and each one times a transposition
        gens = automorphism_group(g).generators
        auts = [functools.reduce(pmul, rng.choices(gens, k=4)) for _ in range(10 if gens else 0)]
        perms += swaps + auts + [pmul(a, rng.choice(swaps)) for a in auts]
        for images in perms:
            p = as_perm(images)
            want = g.relabel(p) == g
            assert autgrp.preserves(g, p) == want, (g, images)
            support = sum(v != w for v, w in enumerate(images))
            seen[support == 2, want] += 1
    # both outcomes occur for transpositions and for larger supports
    assert min(seen[k] for k in itertools.product((True, False), repeat=2)) >= 500, seen
    # past degree 256 permutations are tuples: the covers of Cay(C_n, {1, -1})
    # for n = 130 (two 130-cycles) and 131 (the 262-cycle), each also with a
    # twin added. Random transpositions, the twin swap, random automorphisms,
    # each one times a transposition, and a random permutation
    large = Counter()
    for n in (130, 131):
        G = make_group([n])
        cover = double_cover(cayley_graph(ConnectionSet(G, (1 << 1) | (1 << (n - 1)))))
        twinned, u = _with_twin(rng, cover)
        for g, twin in ((cover, None), (twinned, u)):
            m = g.n
            pairs = [rng.sample(range(m), 2) for _ in range(3)]
            if twin is not None:
                pairs.append((twin, m - 1))
            swaps = []
            for a, b in pairs:
                images = list(range(m))
                images[a], images[b] = b, a
                swaps.append(as_perm(images))
            gens = automorphism_group(g).generators
            auts = [functools.reduce(pmul, rng.choices(gens, k=4)) for _ in range(3)]
            perms = swaps + auts + [pmul(a, rng.choice(swaps)) for a in auts]
            perms.append(as_perm(rng.sample(range(m), m)))
            for p in perms:
                assert isinstance(p, tuple)
                want = g.relabel(p) == g
                assert autgrp.preserves(g, p) == want, (m, p)
                large[want] += 1
    assert large[True] >= 14 and large[False] >= 14, large


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
            has_edge(g, u, v) == has_edge(h, p[u], p[v])
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
    g = LabeledGraph(tuple([0] * n))
    with pytest.raises(CapExceededError):
        automorphism_group(g)


def _assert_matches_schreier_sims(A, elements_up_to=2_000):
    """A's first-path chain against Schreier-Sims on the same generators.

    Membership is compared on every element (sifting through each
    transversal inverse) and on each element times a transposition.
    """
    ref = reference_group(A.degree, A.generators)
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
    gam = cayley_graph(S)
    return b_group(S), automorphism_group(gam), automorphism_group(double_cover(gam))


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
            B = b_group(S)
            if B.order > 20_000:
                continue
            plus_ident = bytes(range(n))
            expected = sum(1 for p in B.elements() if p[:n] == plus_ident)
            cover = double_cover(cayley_graph(S))
            found = automorphism_group(cover, list(range(1, n + 1)) + [0] * n)
            assert found.order == expected
            nontrivial += expected > 1
    assert nontrivial > 0


# -- node-level confirmation against the leaf-only search ----------------------


class _LeafOnlySearch:
    """The automorphism search before node-level confirmation.

    Automorphisms are read off leaves whose adjacency encoding equals the
    first leaf's, with the same target cells, orbit pruning and jumps back
    to the common ancestor with the first path; kept as the oracle for
    the generators `autgrp._Search` confirms at their nodes, and, by the
    least leaf encoding it meets, for `canonical_form`.
    """

    def __init__(self, g, colors):
        self.g = g
        keyed = {}
        for v in range(g.n):
            key = (colors[v], g.rows[v] >> v & 1, g.rows[v].bit_count())
            keyed[key] = keyed.get(key, 0) | (1 << v)
        self.initial = [keyed[k] for k in sorted(keyed)]
        self.gens = []
        self.first = None  # (vertex at each position, encoding, path)
        self.best = None  # least leaf encoding
        self.leaves = 0

    def node(self, cells, prefix):
        sizes = [cell.bit_count() for cell in cells]
        if max(sizes) == 1:
            return self.leaf(cells, prefix)
        target = sizes.index(max(sizes))
        cell = cells[target]
        done = 0
        for v in _members(cell):
            if done >> v & 1:
                continue
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1:]
            jump = self.node(_refine(self.g.rows, child, [1 << v]), prefix + [v])
            if jump is not None and jump < len(prefix):
                return jump
            usable = [p for p in self.gens if all(p[x] == x for x in prefix)]
            orbit, frontier = 1 << v, [v]
            while frontier:
                x = frontier.pop()
                for p in usable:
                    if not orbit >> p[x] & 1:
                        orbit |= 1 << p[x]
                        frontier.append(p[x])
            done |= orbit
        return None

    def leaf(self, cells, prefix):
        self.leaves += 1
        order = [cell.bit_length() - 1 for cell in cells]
        pos = {v: i for i, v in enumerate(order)}
        enc = tuple(
            sum(1 << pos[u] for u in _members(self.g.rows[v])) for v in order
        )
        if self.best is None or enc < self.best:
            self.best = enc
        if self.first is None:
            self.first = (order, enc, list(prefix))
            return None
        first_order, first_enc, first_path = self.first
        if enc != first_enc:
            return None
        a = [0] * self.g.n
        for x, y in zip(first_order, order):
            a[x] = y
        if a != list(range(self.g.n)):
            self.gens.append(as_perm(a))
        depth = 0
        while prefix[depth] == first_path[depth]:
            depth += 1
        return depth


def _leaf_only_search(g, colors=None):
    search = _LeafOnlySearch(g, colors or [0] * g.n)
    if g.n:
        search.node(_refine(g.rows, search.initial), [])
    return search


def _leaf_only_group(g, colors=None):
    return reference_group(g.n, _leaf_only_search(g, colors).gens)


def _leaf_only_canonical_bytes(g):
    """`canonical_form` bytes of g, from the leaf-only search's least leaf."""
    width = (g.n + 7) // 8
    rows = _leaf_only_search(g).best
    return g.n.to_bytes(4, "big") + b"".join(row.to_bytes(width, "little") for row in rows)


def _assert_same_group(A, ref, elements_up_to=2_000):
    assert A.order == ref.order
    if A.order <= elements_up_to:
        assert set(A.elements()) == set(ref.elements())
    else:
        assert all(A.contains(p) for p in ref.generators)
        assert all(ref.contains(p) for p in A.generators)


def test_node_confirmation_matches_leaf_only_search():
    # every Cayley graph of order at most 8, and its cover with the blocks
    # colored apart, as `b_group` has it, and with 0+ colored apart too,
    # as `b0_group` searches it
    for G in all_abelian_groups(8):
        n = G.order
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(ConnectionSet(G, mask))
            cover = double_cover(gam)
            _assert_same_group(automorphism_group(gam), _leaf_only_group(gam))
            for colors in ([1] * n + [0] * n, [1] + [2] * (n - 1) + [0] * n):
                _assert_same_group(
                    automorphism_group(cover, colors), _leaf_only_group(cover, colors)
                )


def _disjoint_union(graphs):
    rows, offset = [], 0
    for g in graphs:
        rows += [row << offset for row in g.rows]
        offset += g.n
    return LabeledGraph(tuple(rows))


def test_canonical_form_matches_leaf_only_search():
    # the least leaf encoding of a search that reads automorphisms off
    # collisions with the first leaf, against `canonical_form`, whose search
    # confirms them at nodes and jumps on: both meet the least encoding, for
    # every Cayley graph of order at most 10 and its cover
    for G in all_abelian_groups(10):
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(ConnectionSet(G, mask))
            for g in (gam, double_cover(gam)):
                assert canonical_form(g).bytes == _leaf_only_canonical_bytes(g), (
                    G.spec(), hex(mask), g.n
                )
    # on those graphs the leaves are often all images of the first leaf,
    # so a wrong jump goes unseen; in a disjoint union of three Cayley
    # graphs of one degree, randomly relabeled, cells mix components that
    # no automorphism swaps, and skipping a branch can lose the least
    # encoding (jumping one level too far, or leaving the branch node, is
    # caught here and not above)
    rng = random.Random(3)
    small = [
        cayley_graph(ConnectionSet(G, mask))
        for G in all_abelian_groups(6)
        for mask in inverse_closed_masks(G)
    ]
    for parts in itertools.combinations_with_replacement(small, 3):
        if len({g.rows[0].bit_count() for g in parts}) == 1:
            g = _disjoint_union(parts)
            g = g.relabel(as_perm(rng.sample(range(g.n), g.n)))
            assert canonical_form(g).bytes == _leaf_only_canonical_bytes(g), g.rows


# Cayley graphs of C4xC4 around the Shrikhande graph, Cay(C4xC4, {+-(0,1),
# +-(1,0), +-(1,3)}) = 0x309a: refinement leaves nodes that are not images
# of the first path with its cells, so candidates fail at the prefix or at
# adjacency
SHRIKHANDE_SETS = (0x309A, 0x309B, 0x309E, 0x319F, 0x359E)


def test_node_confirmation_on_shrikhande_graphs(monkeypatch):
    # a candidate that misplaces the prefix is no automorphism (an
    # automorphism mapping the first-path node onto this one maps the first
    # path onto this node's path), so the prefix comparison only spares the
    # adjacency check, and it runs first; the adjacency check is what
    # rejects the others
    checked = []
    prefix_stops = []
    real_confirm, real_preserves = _Search._confirm, autgrp.preserves

    def confirm(self, cells, prefix):
        checked.append((self.first_path, prefix))
        first = self.first_cells[len(prefix)]
        if len(first) == len(cells) and all(
            a == b if a & (a - 1) else not b & (b - 1) for a, b in zip(first, cells)
        ):
            images = {
                a.bit_length() - 1: b.bit_length() - 1
                for a, b in zip(first, cells)
                if not a & (a - 1)
            }
            prefix_stops.append(
                any(images.get(x, x) != y for x, y in zip(self.first_path, prefix))
            )
        return real_confirm(self, cells, prefix)

    def preserves(graph, g):
        first_path, prefix = checked[-1]
        assert all(g[x] == y for x, y in zip(first_path, prefix))
        ok = real_preserves(graph, g)
        results.append(ok)
        return ok

    results = []
    monkeypatch.setattr(_Search, "_confirm", confirm)
    monkeypatch.setattr(autgrp, "preserves", preserves)
    G = make_group([4, 4])
    n = G.order
    for mask in SHRIKHANDE_SETS:
        gam = cayley_graph(ConnectionSet(G, mask))
        cover = double_cover(gam)
        _assert_same_group(automorphism_group(gam), _leaf_only_group(gam))
        _assert_same_group(automorphism_group(cover), _leaf_only_group(cover))
        for colors in ([1] * n + [0] * n, [1] + [2] * (n - 1) + [0] * n):
            _assert_same_group(automorphism_group(cover, colors), _leaf_only_group(cover, colors))
    # every candidate reaching the adjacency check mapped the prefix; some
    # were stopped at the prefix, and some by adjacency
    assert True in prefix_stops and False in results


@pytest.mark.parametrize("canonical", [True, False])
def test_confirm_checks_adjacency_in_both_modes(canonical):
    # the first path [0, 2] left the cells [0], [1], {2, 3}; at the node
    # [1] the candidate swaps 0 and 1, sends the prefix [0] onto [1] and
    # fixes the cell {2, 3}. It is an automorphism of the edges 0-2, 1-2,
    # so the search jumps back to depth 0, but not of 0-2, 1-3
    for edges, want in ((((0, 2), (1, 3)), None), (((0, 2), (1, 2)), 0)):
        rows = [0] * 4
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        search = _Search(LabeledGraph(tuple(rows)), [0] * 4, canonical=canonical)
        search.first_path = [0, 2]
        search.first_cells = [[0b11, 0b1100], [0b1, 0b10, 0b1100]]
        assert search._confirm([0b10, 0b1, 0b1100], [1]) == want, edges


def test_one_leaf_per_search_on_s1_covers(monkeypatch):
    # C2xC10's S1 orbit representatives: every automorphism the B0 search
    # finds is confirmed at a node, so only the first leaf is reached
    leaves = []
    real = _Search._leaf

    def counted(self, cells, prefix):
        leaves[-1] += 1
        return real(self, cells, prefix)

    monkeypatch.setattr(_Search, "_leaf", counted)
    G = make_group([2, 10])
    n = G.order
    nontrivial = ref_leaves = 0
    for orbit in hol_orbits(G):
        S = ConnectionSet(G, orbit[0])
        gam = cayley_graph(S)
        if not (is_connected(gam) and not is_bipartite(gam) and is_twin_free(gam)):
            continue
        leaves.append(0)
        B0 = b0_group(S, double_cover(gam))
        nontrivial += B0.order > 2
        assert leaves[-1] == 1, hex(orbit[0])
        # the leaf-only search, colored as `b0_group` colors the cover
        colors = [1] + [2] * (n - 1) + [0] * n
        ref_leaves += _leaf_only_search(double_cover(gam), colors).leaves
    assert len(leaves) > 100 and nontrivial > 0
    assert ref_leaves > len(leaves) + nontrivial


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


def _check_refine(g, cells, splitters, rng, seed=None):
    """`_refine` against the oracle on one input, and under a relabeling.

    With a seed, an involutive automorphism preserving the cells, the
    refinement stopped at `_root_stop` must equal the full one list for
    list, here and under the relabeling. Returns whether the full one
    ends at the stop count with fewer than n cells, so the stop can cut it
    short.
    """
    rows = g.rows
    got = _refine(rows, list(cells), splitters)
    stop = g.n if seed is None else _root_stop([seed], g.n)
    if seed is not None:
        assert _refine(rows, list(cells), splitters, stop) == got
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
    moved_cells = [_relabel_mask(c, perm) for c in cells]
    moved_splitters = None if splitters is None else [_relabel_mask(s, perm) for s in splitters]
    want = [_relabel_mask(c, perm) for c in got]
    assert _refine(h.rows, moved_cells, moved_splitters) == want
    if seed is not None:
        # the seed conjugated by the relabeling: perm[v] -> perm[seed[v]]
        moved_seed = [0] * g.n
        for v, w in enumerate(seed):
            moved_seed[perm[v]] = perm[w]
        moved_stop = _root_stop([as_perm(moved_seed)], g.n)
        assert _refine(h.rows, moved_cells, moved_splitters, moved_stop) == want
    return len(got) == stop < g.n


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
            gam = cayley_graph(ConnectionSet(G, mask))
            individualized += _check_refine_tree(gam, [0] * n, rng)
            # the cover with its blocks colored apart, as `b_group` searches it
            individualized += _check_refine_tree(
                double_cover(gam), [1] * n + [0] * n, rng
            )
    assert individualized > 0


def test_root_refinement_stops_at_the_seed_orbits():
    # every inverse-closed set of every group of order <= 12, colored and
    # seeded as the classifier searches it: Cay(G, S) with 0 apart and the
    # inversion, the cover with 0+, the rest of + and - apart and its lift
    rng = random.Random(23)
    cut = searches = 0
    for G in all_abelian_groups(12):
        n = G.order
        ctx = group_context(G)
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(ConnectionSet(G, mask))
            for g, colors, seed in (
                (gam, [1] + [0] * (n - 1), ctx.inversion),
                (double_cover(gam), [1] + [2] * (n - 1) + [0] * n, ctx.inversion_lift),
            ):
                initial = _Search(g, colors, canonical=False).initial
                cut += _check_refine(g, initial, None, rng, seed)
                searches += 1
    assert searches == 2004 and cut > 300


def test_root_stop_counts_the_orbits_of_one_involution():
    n = 6
    swap = as_perm([1, 0, 2, 3, 5, 4])
    cycle = as_perm([1, 2, 0, 3, 4, 5])
    assert _root_stop([swap], n) == 4
    assert _root_stop([identity_perm(n)], n) == n
    # not an involution, several seeds, or none: no bound below n
    assert _root_stop([cycle], n) == n
    assert _root_stop([swap, swap], n) == n
    assert _root_stop([], n) == n


def test_b0_search_is_label_free_at_orders_256_and_512():
    # relabel the cover by a random p, with the colors and the lifted
    # inversion moved along: the search, its root stop count included,
    # must find a point stabilizer of the same order
    rng = random.Random(29)
    orders = []
    for r in (256, 512):
        for S in cyclic_oracle_sets(r, seed=r):
            cover = double_cover(cayley_graph(S))
            n = cover.n
            colors = [1] + [2] * (r - 1) + [0] * r
            iota = group_context(S.group).inversion_lift
            p = rng.sample(range(n), n)
            moved_colors, moved_iota = [0] * n, [0] * n
            for v in range(n):
                moved_colors[p[v]] = colors[v]
                moved_iota[p[v]] = p[iota[v]]
            moved = automorphism_group(
                cover.relabel(as_perm(p)), moved_colors, seeds=[as_perm(moved_iota)]
            )
            orders.append(b0_group(S).order)
            assert moved.order == orders[-1], (r, hex(S.mask))
    assert orders == [2, 2, 2, 16, 2, 2, 2, 2**64]


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
    g = LabeledGraph(tuple(rows))
    assert _check_refine_tree(g, [0] * n, rng, individualize=3) == 1
