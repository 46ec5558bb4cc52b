"""Classification pipeline against independent brute-force oracles."""

from collections import Counter
from types import SimpleNamespace

import pytest

from stabcover import stability
from stabcover.autgrp import automorphism_group
from stabcover.errors import DomainError
from stabcover.graphs import (
    ConnectionSet,
    cayley_graph,
    connection_set,
    double_cover,
    is_bipartite,
    is_connected,
    is_twin_free,
)
from stabcover.groups import (
    all_abelian_groups,
    holomorph,
    inverse_closed_masks,
    make_group,
    subgroups,
)
from stabcover.perms import identity_perm, pinv, pmul, right_mul
from stabcover.stability import (
    TriState,
    b_group,
    base_inversion_perm,
    base_translation_perm,
    classify,
    cover_lift,
    factored_orders,
    group_context,
    make_sigma_context,
    psi_census,
    s4_s5_membership,
    sigma,
)

ORACLE_GROUPS = [(5,), (6,), (7,), (8,), (2, 4), (9,), (3, 3)]


def test_b_group_pentagon():
    C5 = make_group([5])
    S = ConnectionSet(C5, 0b10010)
    B = b_group(C5, S)
    assert B.order == 10
    for t in group_context(C5).translation_lifts:
        assert B.contains(t)
    assert B.contains(cover_lift(base_inversion_perm(C5)))


def test_classify_pentagon():
    C5 = make_group([5])
    rec = classify(C5, ConnectionSet(C5, 0b10010))
    assert (rec.aut_order, rec.cover_aut_order, rec.b_order) == (10, 20, 10)
    assert rec.stable and rec.in_s1 and rec.in_s2
    assert rec.in_s3 is False
    assert rec.in_s4 == TriState.NO and rec.in_s5 == TriState.NO
    assert not rec.trivially_unstable and not rec.nontrivially_unstable


def test_classify_complete_graph_k5():
    # K5 has B = Sym(5) acting diagonally: huge normalizer growth
    C5 = make_group([5])
    rec = classify(C5, ConnectionSet(C5, 0b11110))
    assert rec.b_order == 120
    assert rec.aut_order == 120
    assert rec.cover_aut_order == 240
    assert rec.stable
    assert rec.in_s1 and not rec.in_s2
    assert rec.in_s3 is True
    assert rec.in_s3prime


def test_classify_bipartite_square():
    C4 = make_group([4])
    rec = classify(C4, ConnectionSet(C4, 0b1010))
    assert rec.bipartite and not rec.stable and rec.trivially_unstable
    assert "bipartite-with-nontrivial-aut" in rec.trivial_instability_reasons
    assert "twins" in rec.trivial_instability_reasons


def test_factored_orders_against_search():
    # disconnected or bipartite graphs: closed forms vs unconstrained search
    for facs in [(4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]:
        G = make_group(facs)
        n = G.order
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(G, S)
            if is_connected(gam) and not is_bipartite(gam):
                continue
            aut, cover_aut, b = factored_orders(G, S, gam)
            assert aut == automorphism_group(gam).order
            full = automorphism_group(double_cover(gam))
            assert cover_aut == full.order
            assert b == b_group(G, S).order


# -- lattice oracle for the normalizer families -------------------------------


def _closure(degree, gens):
    ident = identity_perm(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _subgroups_above(degree, base_set, base_gens, elems):
    """Every subgroup between the base subgroup and the whole group."""
    subs = {base_set: list(base_gens)}
    frontier = [base_set]
    while frontier:
        nxt = []
        for Y in frontier:
            for c in elems:
                if c in Y:
                    continue
                Z = _closure(degree, subs[Y] + [c])
                if Z not in subs:
                    subs[Z] = subs[Y] + [c]
                    nxt.append(Z)
        frontier = nxt
    return list(subs)


def _normalizer_in(X, r_set):
    out = set()
    for d in X:
        di = pinv(d)
        if all(pmul(pmul(di, t), d) in r_set for t in r_set):
            out.add(d)
    return frozenset(out)


def _cover_translations(G):
    return frozenset(cover_lift(base_translation_perm(G, g)) for g in G.elements())


def _oracle_families(G, B):
    """(s3, s4, s5) from the subgroup lattice of B above the translations."""
    n = G.order
    degree = 2 * n
    r_set = _cover_translations(G)
    iota = cover_lift(base_inversion_perm(G))
    nor_set = frozenset(list(r_set) + [pmul(t, iota) for t in r_set])
    elems = B.elements(100_000)
    s3 = len(_normalizer_in(frozenset(elems), r_set)) > len(nor_set)
    r_gens = [cover_lift(base_translation_perm(G, g)) for g in G.generators()]
    subs = _subgroups_above(degree, r_set, r_gens, elems)
    s4 = s5 = False
    for X in subs:
        if len(X) == len(r_set):
            continue
        between = [Y for Y in subs if r_set < Y < X]
        nx = _normalizer_in(X, r_set)
        if not between and nx == r_set:
            s4 = True
        if nx == nor_set and nor_set < X and between == [nor_set]:
            s5 = True
    return s3, s4, s5


@pytest.mark.parametrize("facs", ORACLE_GROUPS)
def test_families_against_lattice_oracle(facs):
    G = make_group(facs)
    outside_s1 = 0
    for mask in inverse_closed_masks(G):
        S = ConnectionSet(G, mask)
        gam = cayley_graph(G, S)
        if not (is_connected(gam) and not is_bipartite(gam)):
            continue
        rec = classify(G, S)
        if rec.in_s1:
            B = b_group(G, S)
            if B.order > 300:
                continue
            exp3, exp4, exp5 = _oracle_families(G, B)
            assert rec.in_s3 == exp3
            assert rec.in_s4 == (TriState.YES if exp4 else TriState.NO)
            assert rec.in_s5 == (TriState.YES if exp5 else TriState.NO)
        else:
            # connected and non-bipartite with twins: S3 needs S1, even
            # though every such set here lies in S3'
            assert rec.in_s3 is False
            outside_s1 += 1
    assert outside_s1 > 0


def test_normalizer_order_identity():
    # |N_B(R)| = |G| * |Stab_Hol(S)| for every inverse-closed S, in S1 or
    # not: the normalizer by brute force over B(S), the stabilizer by
    # listing Hol(G)
    checked = 0
    for G in all_abelian_groups(10):
        r_set = _cover_translations(G)
        hol = holomorph(G)
        for mask in inverse_closed_masks(G):
            B = b_group(G, ConnectionSet(G, mask))
            if B.order > 20_000:
                continue
            normalizer = len(_normalizer_in(B.elements(20_000), r_set))
            stab = sum(1 for a in hol if a.apply_mask(mask) == mask)
            assert normalizer == G.order * stab, (G.spec(), hex(mask))
            checked += 1
    assert checked == 462  # of 554 sets; 203 of the 462 lie outside S1


def test_s4_s5_indeterminate_on_tiny_enum_cap():
    C5 = make_group([5])
    S = ConnectionSet(C5, 0b11110)
    B = b_group(C5, S)
    assert s4_s5_membership(C5, S, B, enum_cap=10) == (
        TriState.INDETERMINATE, TriState.INDETERMINATE
    )


# -- element-closure witness for the class-mask scan ---------------------------


def _element_closure_scan(G, B):
    """(S4, S5) with every candidate <R, c> listed element by element.

    One closure per R-double coset of B - R, compared as element sets.
    """
    degree = 2 * G.order
    r_list = list(_cover_translations(G))
    r_set = frozenset(r_list)
    r_gens = [cover_lift(base_translation_perm(G, g)) for g in G.generators()]
    iota = cover_lift(base_inversion_perm(G))
    nor_set = frozenset(r_list + [pmul(t, iota) for t in r_list])
    seen = set(r_set)
    classes = []
    for c in B.elements(20_000):
        if c in seen:
            continue
        ci = pinv(c)
        normalizes = all(pmul(pmul(ci, t), c) in r_set for t in r_gens)
        seen.update(pmul(pmul(a, c), b) for a in r_list for b in r_list)
        classes.append((c, _closure(degree, r_gens + [c]), normalizes))
    found4 = found5 = False
    for X in dict.fromkeys(cl for _, cl, _ in classes):
        reps_in = [(cl, nm) for rep, cl, nm in classes if rep in X]
        nor_is_r = all(not nm for _, nm in reps_in)
        nor_is_nor = iota in X and all(cl == nor_set for cl, nm in reps_in if nm)
        all_x = all(cl == X for cl, _ in reps_in)
        all_in = all(cl == X or cl == nor_set for cl, _ in reps_in)
        found4 = found4 or (all_x and nor_is_r)
        found5 = found5 or (
            nor_is_nor and nor_set != r_set and len(X) > len(nor_set) and all_in
        )
    return tuple(TriState.YES if f else TriState.NO for f in (found4, found5))


def _tuple_context(G):
    """Stand-in for `group_context(G)` with the cover tables as tuples."""
    ctx = group_context(G)
    return SimpleNamespace(
        cover_seeds=tuple(map(tuple, ctx.cover_seeds)),
        translation_lifts=tuple(map(tuple, ctx.translation_lifts)),
    )


def _class_count(G, B):
    """Number of R-double cosets in B - R, by brute force."""
    r_list = list(_cover_translations(G))
    seen = set(r_list)
    count = 0
    for c in B.elements():
        if c not in seen:
            count += 1
            seen.update(pmul(pmul(a, c), b) for a in r_list for b in r_list)
    return count


def test_s4_s5_matches_element_closure_scan(monkeypatch):
    # both branches run on every set: bytes, and tuple elements with tuple
    # tables, which production reaches only above 256 cover vertices. Each
    # must take one class per R-double coset: `right_mul` is called once
    # per class
    verdicts = Counter()
    for G in all_abelian_groups(10):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(G, S)
            if not (is_connected(gam) and not is_bipartite(gam) and is_twin_free(gam)):
                continue
            B = b_group(G, S)
            if B.order > 20_000:
                continue
            want = _element_closure_scan(G, B)
            # B = R extended by inversion is answered before any class
            s2 = B.order == (G.order if G.exponent <= 2 else 2 * G.order)
            classes = 0 if s2 else _class_count(G, B)
            elems = B.elements()
            for context, es in (
                (group_context, elems),
                (_tuple_context, [tuple(p) for p in elems]),
            ):
                reps = []
                with monkeypatch.context() as m:
                    m.setattr(stability, "group_context", context)
                    m.setattr(stability, "right_mul", lambda q: reps.append(q) or right_mul(q))
                    got = s4_s5_membership(G, S, B, elems=es)
                assert got == want, (G.spec(), hex(mask), type(es[0]))
                assert len(reps) == classes, (G.spec(), hex(mask), type(es[0]))
            verdicts[tuple(t.value for t in got)] += 1
    assert verdicts == {
        ("no", "no"): 222, ("no", "yes"): 21, ("yes", "no"): 14, ("yes", "yes"): 2
    }


@pytest.mark.parametrize(
    "n, elements, b_order, verdict",
    [
        (129, [1, 128, 44, 85], 516, (TriState.NO, TriState.NO)),
        (132, [1, 131, 22, 110, 66], 792, (TriState.YES, TriState.NO)),
    ],
    ids=["C129", "C132"],
)
def test_s4_s5_tuple_degree(n, elements, b_order, verdict):
    # more than 256 cover vertices: permutations are tuples, not bytes
    G = make_group([n])
    S = connection_set(G, elements)
    B = b_group(G, S)
    assert B.order == b_order
    assert isinstance(B.elements()[0], tuple)
    assert s4_s5_membership(G, S, B) == _element_closure_scan(G, B) == verdict


def test_classify_indeterminate_on_tiny_enum_cap():
    C5 = make_group([5])
    rec = classify(C5, ConnectionSet(C5, 0b11110), enum_cap=10)
    # S3 needs no enumeration of B(S); only the S4/S5 scan is capped
    assert rec.in_s3 is True
    assert rec.in_s4 == rec.in_s5 == TriState.INDETERMINATE
    assert rec.indeterminate
    # orders are still exact: they come from the stabilizer chain
    assert rec.b_order == 120


# -- coset statistics ----------------------------------------------------------


def test_sigma_context_and_sigma():
    G = make_group([12])
    N = next(s for s in subgroups(G) if s.mask.bit_count() == 4)
    ctx = make_sigma_context(G, N)
    assert ctx.b == 3
    # the coset masks partition the group
    assert sum(ctx.orbit_masks) == (1 << 12) - 1
    S = ConnectionSet(G, G.neg_mask(0b100110) | 0b100110)
    for j in range(ctx.b):
        piece = sigma(ctx, S, 1, j)
        assert piece & ~ctx.orbit_masks[j] == 0
        assert piece & ~S.mask == 0


def test_sigma_context_rejects_non_cyclic_quotient():
    G = make_group([2, 4])
    N = next(s for s in subgroups(G) if s.mask == 0b101)  # quotient by <(0,2)> is C2xC2
    with pytest.raises(DomainError):
        make_sigma_context(G, N)


def test_psi_census_bound():
    # the agreement-count bound, checked wherever it is not vacuous
    for order, size in [(6, 2), (8, 2), (9, 3), (10, 2), (12, 4)]:
        G = make_group([order])
        total = 1 << ((order + len([x for x in G.elements() if G.add(x, x) == 0])) // 2)
        N = next(s for s in subgroups(G) if s.mask.bit_count() == size)
        ctx = make_sigma_context(G, N)
        assert ctx.b >= 3
        oi = ctx.orbit_masks[1]
        members = [x for x in G.elements() if oi >> x & 1]
        u, v = members[0], members[1]
        count, bound = psi_census(ctx, 1, u, v)
        if bound < total:
            assert count <= bound
        else:
            assert bound >= total  # vacuous at this size, flagged not failed


def test_psi_census_validation():
    G = make_group([9])
    N = next(s for s in subgroups(G) if s.mask.bit_count() == 3)
    ctx = make_sigma_context(G, N)
    with pytest.raises(DomainError):
        psi_census(ctx, 0, 1, 2)
    with pytest.raises(DomainError):
        psi_census(ctx, 1, 1, 1)
