"""Graph construction, predicates, and the bi-coset model on small cases."""

import itertools
import random
from collections import Counter

import pytest

from helpers import b_group, close_subgroup, has_edge, reference_group
from stabcover import verify
from stabcover.errors import DomainError
from stabcover.graphs import (
    BiCosetFrame,
    ConnectionSet,
    LabeledGraph,
    bicoset_graph,
    cayley_graph,
    component_of,
    connection_set,
    double_cover,
    is_bipartite,
    is_connected,
    is_twin_free,
    _right_cosets,
    verify_bicoset_isomorphism,
)
from stabcover.groups import (
    all_abelian_groups,
    bit_indices,
    count_inverse_closed,
    inverse_closed_masks,
    make_group,
)
from stabcover.perms import as_perm, identity_perm, mul_each, pinv, pmul
from stabcover.stability import b0_group, group_context


def _random_graph(rng, n, p=0.5):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return LabeledGraph(tuple(rows))


def test_labeled_graph_validation():
    with pytest.raises(DomainError):
        LabeledGraph((0b10, 0b00))  # asymmetric
    with pytest.raises(DomainError):
        LabeledGraph((0b100, 0b00))  # bit outside range
    g = LabeledGraph((0b11, 0b01))
    # a loop is the diagonal bit, counted once in the row
    assert has_edge(g, 0, 0) and not has_edge(g, 1, 1)
    assert g.rows[0].bit_count() == 2


def test_relabel_is_isomorphism():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n)
        perm = as_perm(rng.sample(range(n), n))
        h = g.relabel(perm)
        for u in range(n):
            for v in range(n):
                assert has_edge(g, u, v) == has_edge(h, perm[u], perm[v])


def test_connection_set_validation():
    C5 = make_group([5])
    with pytest.raises(DomainError):
        ConnectionSet(C5, 0b00010)  # {1} misses -1
    assert connection_set(C5, [1], symmetrize=True).mask == 0b10010
    with pytest.raises(DomainError):
        connection_set(C5, [7])


def test_cayley_graph_small():
    C5 = make_group([5])
    g = cayley_graph(ConnectionSet(C5, 0b10010))
    # the pentagon
    assert g.rows == (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)
    assert is_connected(g) and not is_bipartite(g) and is_twin_free(g)


def test_cayley_graph_loops_and_components():
    C6 = make_group([6])
    # {2, 4} generates the even subgroup: two disjoint triangles
    g = cayley_graph(ConnectionSet(C6, 0b010100))
    assert not is_connected(g)
    # the identity in S puts a loop at every vertex
    g = cayley_graph(ConnectionSet(C6, 0b000001))
    assert all(has_edge(g, v, v) for v in range(6))
    # {1, 5} on C6 is an even cycle
    g = cayley_graph(ConnectionSet(C6, 0b100010))
    assert is_bipartite(g)


def test_cayley_graphs_and_covers_pass_the_full_check():
    # cayley_graph and double_cover skip LabeledGraph's symmetry check on
    # the strength of their docstring proofs; every graph they build at
    # orders <= 12 passes it
    built = 0
    for G in all_abelian_groups(12):
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(ConnectionSet(G, mask))
            for g in (gam, double_cover(gam)):
                assert LabeledGraph(g.rows) == g
                built += 1
    assert built == 2 * sum(
        count_inverse_closed(G) for G in all_abelian_groups(12)
    )


def _oracle_component(g, v):
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for u in bit_indices(g.rows[w]):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _oracle_connected(g):
    return g.n == 0 or len(_oracle_component(g, 0)) == g.n


def _oracle_bipartite(g):
    color = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            if has_edge(g, v, v):
                return False
            for u in bit_indices(g.rows[v]):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _induced(g, vertices):
    """The subgraph of g induced on the sorted list `vertices`, relabelled 0, 1, ..."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = [sum(1 << index[u] for u in bit_indices(g.rows[v]) if u in index) for v in vertices]
    return LabeledGraph(tuple(rows))


def test_predicates_against_oracles():
    rng = random.Random(77)
    split = Counter()
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
        if rng.random() < 0.2:
            # a loop, an odd cycle of length one
            rows = list(g.rows)
            w = rng.randrange(n)
            rows[w] |= 1 << w
            g = LabeledGraph(tuple(rows))
        assert is_connected(g) == _oracle_connected(g)
        v = rng.randrange(n)
        component = sorted(_oracle_component(g, v))
        mask, bipartite = component_of(g, v)
        assert mask == sum(1 << u for u in component)
        assert bipartite == _oracle_bipartite(_induced(g, component))
        assert is_bipartite(g) == _oracle_bipartite(g)
        if not _oracle_connected(g):
            split[bipartite] += 1
    # graphs with several components, whose component of v is bipartite
    # and not
    assert split[True] and split[False]


def test_component_of_zero_decides_bipartiteness():
    # every component of Cay(G, S) is a translate of the component of 0,
    # so the graph is bipartite exactly when that component is
    seen = Counter()
    for G in all_abelian_groups(12):
        for mask in inverse_closed_masks(G):
            gam = cayley_graph(ConnectionSet(G, mask))
            bipartite = component_of(gam)[1]
            assert bipartite == _oracle_bipartite(gam), (G.spec(), hex(mask))
            seen[is_connected(gam), bipartite] += 1
    assert len(seen) == 4


def test_component_of_zero_is_the_generated_subgroup():
    # the component of 0 in Cay(G, S) is <S>, {0} for S empty
    for G in all_abelian_groups(10):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            assert component_of(cayley_graph(S))[0] == close_subgroup(G, bit_indices(mask))


def test_twin_classes():
    C4 = make_group([4])
    g = cayley_graph(ConnectionSet(C4, 0b1010))  # the 4-cycle
    # the twin classes are {0, 2} and {1, 3}
    assert g.rows[0] == g.rows[2] != g.rows[1] == g.rows[3]
    assert not is_twin_free(g)
    # the empty and the all-loops graphs
    assert not is_twin_free(cayley_graph(ConnectionSet(C4, 0)))
    assert is_twin_free(cayley_graph(ConnectionSet(C4, 0b0001)))


def test_double_cover_shapes():
    C5 = make_group([5])
    cover = double_cover(cayley_graph(ConnectionSet(C5, 0b10010)))
    # the cover of an odd cycle is the double-length cycle
    assert cover.n == 10
    assert is_connected(cover) and is_bipartite(cover)
    assert all(row.bit_count() == 2 for row in cover.rows)
    C4 = make_group([4])
    cover = double_cover(cayley_graph(ConnectionSet(C4, 0b1010)))
    # the cover of a bipartite graph splits into two copies
    assert not is_connected(cover)
    # a loop becomes a cover edge between the two sheets
    C2 = make_group([2])
    cover = double_cover(cayley_graph(ConnectionSet(C2, 0b01)))
    assert has_edge(cover, 0, 2) and not has_edge(cover, 0, 0)


def _diagonal_frame(n):
    # X = Sym(n) acting alike on both blocks: B(S) of S = {0} in Cn, whose
    # cover is the perfect matching v+ ~ v-. H = K is the stabilizer of 0
    listing = [
        as_perm(p + tuple(n + v for v in p)) for p in itertools.permutations(range(n))
    ]
    return BiCosetFrame(n, listing)


def _stabilizers(frame):
    n = frame.n
    return (
        [x for x in frame.elements if x[0] == 0],
        [x for x in frame.elements if x[n] == n],
    )


def test_bicoset_graph_by_hand():
    # the frame of the cover of Cay(C3, {0}): H = K = <(1 2)> on both
    # blocks, so D = H gives the perfect matching between equal cosets,
    # which is the cover itself, and D = X the complete bipartite graph
    frame = _diagonal_frame(3)
    h_sub, k_sub = _stabilizers(frame)
    assert len(frame.elements) == 6 and len(h_sub) == 2 and h_sub == k_sub
    g = bicoset_graph(frame, frozenset(h_sub))
    assert g.rows == (0b001000, 0b010000, 0b100000, 0b001, 0b010, 0b100)
    g = bicoset_graph(frame, frozenset(frame.elements))
    assert g.rows == (0b111000,) * 3 + (0b111,) * 3
    C3 = make_group([3])
    assert verify_bicoset_isomorphism(ConnectionSet(C3, 0b001), frame)


def test_bicoset_graph_refuses_bad_d():
    frame = _diagonal_frame(3)
    # half of the double coset KH = H
    with pytest.raises(DomainError, match="double cosets"):
        bicoset_graph(frame, frozenset([as_perm([0, 2, 1, 3, 5, 4])]))
    outside = as_perm([1, 0, 2, 3, 4, 5])  # moves the + block alone
    with pytest.raises(DomainError, match="not contained in X"):
        bicoset_graph(frame, frozenset(frame.elements) | {outside})


def _left_k_closed(k_sub, d):
    return all(pmul(k, x) in d for k in k_sub for x in d)


def _right_h_closed(d, h_sub):
    return all(pmul(x, h) in d for x in d for h in h_sub)


def test_bicoset_graph_checks_each_side_of_d():
    # the cover of the empty graph on C3: X = Sym(3) x Sym(3), one factor
    # per block, H = Sym(2) x Sym(3) and K = Sym(3) x Sym(2), so each side
    # of KDH = D can fail on its own
    C3 = make_group([3])
    frame = BiCosetFrame(3, b_group(ConnectionSet(C3, 0)).elements())
    h_sub, k_sub = map(frozenset, _stabilizers(frame))
    assert len(frame.elements) == 36 and len(h_sub) == len(k_sub) == 12
    assert h_sub != k_sub
    # D = H is closed under right H but is no union of right K-cosets
    assert _right_h_closed(h_sub, h_sub) and not _left_k_closed(k_sub, h_sub)
    with pytest.raises(DomainError, match="double cosets"):
        bicoset_graph(frame, h_sub)
    # D = K is a union of right K-cosets but not closed under right H
    assert _left_k_closed(k_sub, k_sub) and not _right_h_closed(k_sub, h_sub)
    with pytest.raises(DomainError, match="double cosets"):
        bicoset_graph(frame, k_sub)
    # the double coset KH, all of X here, and its complement are accepted
    kh = frozenset(pmul(k, h) for k in k_sub for h in h_sub)
    assert kh == frozenset(frame.elements)
    for d, edges in ((kh, 9), (frozenset(), 0)):
        assert _left_k_closed(k_sub, d) and _right_h_closed(d, h_sub)
        g = bicoset_graph(frame, d)
        assert g.n == 6 and is_bipartite(g)
        assert sum(row.bit_count() for row in g.rows) == 2 * edges


def test_frame_refuses_bad_listings():
    # every refusal of a listing, each on its own
    listing = list(_diagonal_frame(3).elements)
    with pytest.raises(DomainError, match="vertex set"):
        BiCosetFrame(2, listing)
    # one element of length 7 among the valid ones
    with pytest.raises(DomainError, match="vertex set"):
        BiCosetFrame(3, listing[:3] + [as_perm(range(7))] + listing[3:])
    with pytest.raises(DomainError, match="two cover blocks"):
        BiCosetFrame(3, [x for x in listing if x[0] == 0])
    with pytest.raises(DomainError, match="two cover blocks"):
        BiCosetFrame(3, [])
    # the + images are all of 0..2, but no element sends 0- to 2-
    perms3 = list(itertools.permutations(range(3)))
    half = [as_perm(p + tuple(3 + v for v in q)) for p in perms3 for q in perms3 if q[0] != 2]
    with pytest.raises(DomainError, match="two cover blocks"):
        BiCosetFrame(3, half)
    with pytest.raises(DomainError, match="twice"):
        BiCosetFrame(3, listing + listing[-1:])
    # without the 3-cycle, some product hx is unlisted
    with pytest.raises(DomainError, match="do not partition"):
        BiCosetFrame(3, [x for x in listing if x != as_perm([1, 2, 0, 4, 5, 3])])
    # no group: H and K are trivial and every coset partition holds, but
    # (c, c) and (c, c^2) send 0+ to the same vertex
    ident, c, c2 = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    pairs = ((ident, ident), (c, c), (c2, c2), (c, c2))
    with pytest.raises(DomainError, match="orbit map"):
        BiCosetFrame(3, [as_perm(a + tuple(3 + v for v in b)) for a, b in pairs])


def _oracle_right_cosets(elements, sub):
    # products one by one, each coset and the list sorted by element index
    index = {x: i for i, x in enumerate(elements)}
    seen = set()
    cosets = []
    for x in elements:
        if x in seen:
            continue
        coset = sorted((pmul(h, x) for h in sub), key=index.__getitem__)
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda c: index[c[0]])
    return cosets


def _oracle_bicoset_graph(elements, h_sub, k_sub, d):
    h_cosets = _oracle_right_cosets(elements, h_sub)
    k_cosets = _oracle_right_cosets(elements, k_sub)
    nh = len(h_cosets)
    rows = [0] * (nh + len(k_cosets))
    for a, hc in enumerate(h_cosets):
        xi = pinv(hc[0])
        for b, kc in enumerate(k_cosets):
            if pmul(kc[0], xi) in d:
                rows[a] |= 1 << (nh + b)
                rows[nh + b] |= 1 << a
    return LabeledGraph(tuple(rows))


def _assert_cosets_match_oracle(got, elements, sub):
    want = _oracle_right_cosets(elements, sub)
    assert [rep for rep, _ in got] == [c[0] for c in want]
    assert [sorted(c) for _, c in got] == [sorted(c) for c in want]


def test_cosets_match_oracle_on_block_stabilizers():
    cases = [([5], [1]), ([2, 4], [1, 4]), ([2, 4], [1, 2]), ([2, 2, 2], [1, 2, 4])]
    rng = random.Random(13)
    for factors, gens in cases:
        G = make_group(factors)
        S = connection_set(G, gens, symmetrize=True)
        n = G.order
        shuffled = b_group(S).elements()
        rng.shuffle(shuffled)
        nbhd0 = double_cover(cayley_graph(S)).rows[0]
        for elems in (b_group(S).elements(), shuffled):
            frame = BiCosetFrame(n, elems)
            h_sub, k_sub = _stabilizers(frame)
            h_cosets = _oracle_right_cosets(elems, h_sub)
            k_cosets = _oracle_right_cosets(elems, k_sub)
            assert list(frame.h_reps) == [c[0] for c in h_cosets]
            _assert_cosets_match_oracle(frame.k_cosets, elems, k_sub)
            # the orbit map sends (0+)^x to the H-coset of x, (0-)^x to its K-coset
            phi = frame.orbit_map
            assert [{phi[x[0]] for x in c} for c in h_cosets] == [{a} for a in range(n)]
            assert [{phi[x[n]] for x in c} for c in k_cosets] == [{n + b} for b in range(n)]
            y_sub = frozenset(x for x in elems if (nbhd0 >> x[n]) & 1)
            want = _oracle_bicoset_graph(elems, h_sub, k_sub, y_sub)
            assert bicoset_graph(frame, y_sub) == want


def test_cosets_match_oracle_on_sym4_subgroups():
    X = reference_group(4, [as_perm([1, 2, 3, 0]), as_perm([1, 0, 2, 3])])
    subgroups = [
        reference_group(4, [as_perm([1, 0, 2, 3])]),
        reference_group(4, [as_perm([1, 2, 3, 0])]),
        reference_group(4, [as_perm([1, 0, 3, 2]), as_perm([2, 3, 0, 1])]),
        reference_group(4, [as_perm([0, 2, 3, 1]), as_perm([0, 2, 1, 3])]),
    ]
    rng = random.Random(11)
    shuffled = X.elements()
    rng.shuffle(shuffled)
    for elems in (X.elements(), shuffled):
        for Hg in subgroups:
            sub = Hg.elements()
            _assert_cosets_match_oracle(_right_cosets(elems, sub), elems, sub)


def test_verify_bicoset_isomorphism_pentagon():
    C5 = make_group([5])
    S = ConnectionSet(C5, 0b10010)
    assert verify_bicoset_isomorphism(S, BiCosetFrame(5, b_group(S).elements()))


def _frame_rejects(G, S, listing):
    try:
        return not verify_bicoset_isomorphism(S, BiCosetFrame(G.order, listing))
    except DomainError:
        return True


def test_frame_from_listing_of_b_oracle():
    # every set of order <= 6 with |B(S)| <= 2000: a shuffled listing of
    # R B0 verifies; dropping one element, or adding a block-preserving
    # permutation that is no automorphism (a swap of two + vertices with
    # different rows), is refused
    rng = random.Random(21)
    cases = 0
    for G in all_abelian_groups(6):
        n = G.order
        lifts = group_context(G).translation_lifts
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            B0 = b0_group(S)
            if n * B0.order > 2000:
                continue
            cases += 1
            listing = [x for r in lifts for x in mul_each(B0.elements(), r)]
            rng.shuffle(listing)
            assert verify_bicoset_isomorphism(S, BiCosetFrame(n, listing))
            ident = listing.index(identity_perm(2 * n))
            for i in {ident, *rng.sample(range(len(listing)), min(3, len(listing)))}:
                assert _frame_rejects(G, S, listing[:i] + listing[i + 1 :])
            rows = double_cover(cayley_graph(S)).rows
            other = [v for v in range(n) if rows[v] != rows[0]]
            if not other:
                assert mask in (0, (1 << n) - 1)  # the empty and complete covers
                continue
            swap = list(range(2 * n))
            swap[0], swap[other[0]] = other[0], 0
            pos = rng.randrange(len(listing) + 1)
            assert _frame_rejects(G, S, listing[:pos] + [as_perm(swap)] + listing[pos:])
    assert cases == 52


def test_frame_refuses_a_frame_of_another_group():
    C5, C4 = make_group([5]), make_group([4])
    frame = BiCosetFrame(4, b_group(ConnectionSet(C4, 0b1010)).elements())
    with pytest.raises(DomainError):
        verify_bicoset_isomorphism(ConnectionSet(C5, 0b10010), frame)


def test_bicoset_check_catches_mispaired_sets(monkeypatch):
    # rotating the complements by one pair pairs each set with a
    # non-complement, whose B0 or bi-coset model differs
    real = verify.complement_pairs

    def mispaired(G):
        pairs = list(real(G))
        return [(S, Sc) for (S, _), (_, Sc) in zip(pairs, pairs[1:] + pairs[:1])]

    monkeypatch.setattr(verify, "complement_pairs", mispaired)
    res = verify.check_bicoset_model(4)
    assert not res.passed
    assert any("differs from that of" in f for f in res.failures)
