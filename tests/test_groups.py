"""Group arithmetic, subset machinery, and automorphisms against brute force."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_automorphisms, close_subgroup, subgroups
from stabcover.errors import CapExceededError, DomainError
from stabcover.groups import (
    ADDITION_TABLE_ORDER,
    DEFAULT_AUT_CAP,
    HOLOMORPH_CAP,
    AbelianGroup,
    all_abelian_groups,
    automorphism_count,
    automorphism_group_of_G,
    count_inverse_closed,
    holomorph,
    inverse_closed_masks,
    involution_set,
    make_group,
    negation_orbits,
    normalize_invariant_factors,
    parse_group_spec,
)


def test_normalize_invariant_factors():
    assert normalize_invariant_factors([2, 4]) == (2, 4)
    assert normalize_invariant_factors([6, 4]) == (2, 12)
    assert normalize_invariant_factors([2, 3]) == (6,)
    assert normalize_invariant_factors([2, 2, 9]) == (2, 18)
    assert normalize_invariant_factors([1, 1]) == ()
    with pytest.raises(DomainError):
        normalize_invariant_factors([0])


def test_basic_arithmetic():
    G = make_group([2, 4])
    assert G.order == 8
    assert G.exponent == 4
    assert G.rank == 2
    for i in G.elements():
        assert G.add(i, G.neg(i)) == 0
        assert G.index(G.coords(i)) == i
    # addition is coordinatewise mod the factors
    assert G.coords(G.add(G.index((1, 3)), G.index((1, 2)))) == (0, 1)


def _coordinate_sum(G, a, b):
    facs = G.invariant_factors
    return G.index(tuple((x + y) % d for x, y, d in zip(G.coords(a), G.coords(b), facs)))


def test_addition_table_matches_coordinates():
    for G in all_abelian_groups(64):
        assert all(
            G.add(a, b) == _coordinate_sum(G, a, b) for a in G.elements() for b in G.elements()
        ), G.spec()
    rng = random.Random(11)
    for facs in ([512], [2, 256]):
        G = make_group(facs)
        for a in [0, 1, G.order - 1] + rng.sample(range(G.order), 20):
            assert [G.add(a, b) for b in G.elements()] == [
                _coordinate_sum(G, a, b) for b in G.elements()
            ], (G.spec(), a)
    # above order 1024 no table is built
    assert make_group([1031]).addition_rows() is None


def test_generators_generate():
    for G in all_abelian_groups(12):
        assert close_subgroup(G, G.generators()) == (1 << G.order) - 1


def test_translate_mask_matches_elementwise_images():
    # one masked rotation per coordinate against the image of each member
    # under G.add: every group of order <= 32 with every translation, and
    # C2xC1024, whose order 2048 is past the addition table, with a sample
    rng = random.Random(11)
    for G in all_abelian_groups(32) + [make_group([2, 1024])]:
        n = G.order
        ts = range(n) if n <= 32 else [1, n - 1, *rng.sample(range(n), 8)]
        masks = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(4))]
        for t in ts:
            for mask in masks:
                want = 0
                for x in range(n):
                    if mask >> x & 1:
                        want |= 1 << G.add(x, t)
                assert G.translate_mask(mask, t) == want, (G.spec(), t, hex(mask))


def test_involutions_and_c_value():
    C4 = make_group([4])
    assert involution_set(C4) == 0b101
    V = make_group([2, 2])
    assert involution_set(V) == 0b1111
    C5 = make_group([5])
    # c(C5) = (5 + 1) / 2 = 3 negation orbits: {0}, {1, 4}, {2, 3}
    assert len(negation_orbits(C5)) == 3
    assert count_inverse_closed(C5) == 8
    assert count_inverse_closed(V) == 16


def test_negation_orbits_cover_group():
    for G in all_abelian_groups(12):
        orbits = negation_orbits(G)
        assert 1 << len(orbits) == count_inverse_closed(G)
        # disjoint bit masks whose union is G, ordered by least member
        union = 0
        for orbit in orbits:
            assert orbit and not orbit & union
            union |= orbit
        assert union == (1 << G.order) - 1
        assert orbits == sorted(orbits, key=lambda m: m & -m)


def test_inverse_closed_masks_brute():
    # every mask closed under negation appears exactly once
    for G in all_abelian_groups(8):
        brute = {
            m for m in range(1 << G.order) if G.neg_mask(m) == m
        }
        out = list(inverse_closed_masks(G))
        assert len(out) == len(set(out))
        assert set(out) == brute
        assert len(out) == count_inverse_closed(G)
        assert all(G.neg_mask(m) == m for m in out)


def test_inverse_closed_masks_pair_complements():
    # bit k of the counter selects the k-th negation orbit, so counters i
    # and total - 1 - i are bitwise complements, and so are their sets;
    # `verify.check_bicoset_model` walks the sets as these pairs
    for G in all_abelian_groups(16):
        full = (1 << G.order) - 1
        masks = list(inverse_closed_masks(G))
        assert len(masks) % 2 == 0
        assert all(masks[-1 - i] == full ^ m for i, m in enumerate(masks))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
def test_group_axioms_random(factors):
    G = make_group(factors)
    if G.order > 40:
        return
    for a in G.elements():
        for b in G.elements():
            assert G.add(a, b) == G.add(b, a)
            assert G.add(G.add(a, b), G.neg(b)) == a


def test_subgroup_lattice_c6():
    G = make_group([6])
    masks = sorted(s.mask for s in subgroups(G))
    assert masks == sorted([0b000001, 0b001001, 0b010101, 0b111111])


def test_subgroups_are_closed():
    for G in all_abelian_groups(12):
        for sub in subgroups(G):
            members = [x for x in G.elements() if sub.mask >> x & 1]
            assert close_subgroup(G, members) == sub.mask


def _brute_automorphism_count(G: AbelianGroup) -> int:
    n = G.order
    count = 0
    for img in itertools.permutations(range(n)):
        if img[0] != 0:
            continue
        if all(
            img[G.add(a, b)] == G.add(img[a], img[b])
            for a in range(n)
            for b in range(a, n)
        ):
            count += 1
    return count


def test_automorphism_group_matches_brute_force():
    for G in all_abelian_groups(8):
        auts = automorphism_group_of_G(G)
        assert len(set(auts)) == len(auts)
        assert len(auts) == _brute_automorphism_count(G)


def test_automorphism_tables_match_brute_product():
    # the backtrack lists the same tables, each once, as the brute product
    # over generator images; C2^4 (16^4 products) is left to the next test
    for G in all_abelian_groups(16):
        if G.invariant_factors == (2, 2, 2, 2):
            continue
        auts = automorphism_group_of_G(G)
        assert len(set(auts)) == len(auts)
        assert set(auts) == set(brute_automorphisms(G)), G.spec()


def test_automorphism_tables_of_larger_groups():
    # each table is a bijection with tau(x + e_i) = tau(x) + tau(e_i) for
    # every x and canonical generator e_i, so it is an automorphism, and
    # the counts are |GL(4, 2)| and the known orders of the others
    sizes = {(2, 2, 2, 2): 20160, (2, 2, 8): 384, (2, 4, 4): 1536, (2, 2, 2, 4): 21504}
    for facs, size in sizes.items():
        G = make_group(facs)
        elems = list(G.elements())
        add = [[G.add(a, b) for b in elems] for a in elems]
        auts = automorphism_group_of_G(G)
        assert len(set(auts)) == len(auts) == size
        for tau in auts:
            assert sorted(tau) == elems
            for e in G.generators():
                assert [tau[y] for y in add[e]] == [add[tau[e]][t] for t in tau]


def test_automorphism_group_known_orders():
    # verified against the brute-force count above at small orders
    sizes = {
        (5,): 4,
        (8,): 4,
        (2, 2): 6,
        (9,): 6,
        (3, 3): 48,
        (2, 4): 8,
    }
    for facs, size in sizes.items():
        assert len(automorphism_group_of_G(make_group(facs))) == size


def test_automorphism_count_matches_the_listing():
    # the closed form against the listing for every group of order <= 64
    # within the cap; above it are C2^5, C2^3xC6 and five groups of order 64
    refused = []
    for G in all_abelian_groups(64):
        count = automorphism_count(G)
        if count > DEFAULT_AUT_CAP:
            refused.append(G.spec())
            continue
        assert len(automorphism_group_of_G(G)) == count, G.spec()
    assert len(refused) == 7 and "C2xC2xC2xC2xC2" in refused
    # phi(r) for cyclic groups, past the listing's reach
    for r in (1, 2, 600, 1000, 1031, 4096):
        phi = sum(math.gcd(k, r) == 1 for k in range(r))
        assert automorphism_count(make_group([r])) == phi


def test_holomorph_size_and_action():
    for G in all_abelian_groups(8):
        hol = holomorph(G)
        assert len(hol) == G.order * len(automorphism_group_of_G(G))
        perms = {tuple(h[x] for x in G.elements()) for h in hol}
        assert len(perms) == len(hol)


def test_listing_caps_are_the_module_constants():
    # |Aut(C2^6)| = |GL(6, 2)| is refused before any listing, while C600,
    # past order 512, lists its phi(600) = 160; an order past the addition
    # table is refused; |Hol(C2^4)| = 16 * 20160 is refused once Aut(G) is
    # listed
    with pytest.raises(CapExceededError) as exc:
        automorphism_group_of_G(make_group([2] * 6))
    assert (exc.value.needed, exc.value.cap) == (20_158_709_760, DEFAULT_AUT_CAP)
    assert "|Aut(C2xC2xC2xC2xC2xC2)|" in str(exc.value)
    assert len(automorphism_group_of_G(make_group([600]))) == 160
    with pytest.raises(CapExceededError) as exc:
        automorphism_group_of_G(make_group([1031]))
    assert (exc.value.needed, exc.value.cap) == (1031, ADDITION_TABLE_ORDER)
    with pytest.raises(CapExceededError) as exc:
        holomorph(make_group([2, 2, 2, 2]))
    assert (exc.value.needed, exc.value.cap) == (322_560, HOLOMORPH_CAP)


def test_parse_group_spec():
    assert parse_group_spec("C5").invariant_factors == (5,)
    assert parse_group_spec("c2xc10").invariant_factors == (2, 10)
    assert parse_group_spec("C2XC10").invariant_factors == (2, 10)
    assert parse_group_spec("c2Xc2xC5").invariant_factors == (2, 10)
    assert parse_group_spec("C2xC2xC5").invariant_factors == (2, 10)
    with pytest.raises(DomainError):
        parse_group_spec("D4")
    with pytest.raises(DomainError):
        parse_group_spec("C")


def test_spec_roundtrip():
    for G in all_abelian_groups(16):
        assert parse_group_spec(G.spec()) == G


def test_all_abelian_groups_counts():
    gs = all_abelian_groups(16)
    assert len(gs) == 25
    assert len({g.invariant_factors for g in gs}) == 25
    by_order = {}
    for g in gs:
        by_order[g.order] = by_order.get(g.order, 0) + 1
    # the number of abelian groups of order p^k is the number of
    # partitions of k, multiplicative over prime powers
    assert by_order[8] == 3
    assert by_order[16] == 5
    assert by_order[12] == 2
