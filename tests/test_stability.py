"""Classification pipeline against independent brute-force oracles."""

import random
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from helpers import (
    b_group,
    close_subgroup,
    cyclic_oracle_sets,
    make_sigma_context,
    psi_census,
    reference_group,
    sigma,
    subgroups,
)
from stabcover import stability
from stabcover.autgrp import automorphism_group, preserves
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
    bit_indices,
    holomorph,
    inverse_closed_masks,
    make_group,
    map_mask,
)
from stabcover.perms import DEFAULT_ENUM_CAP, as_perm, identity_perm, left_mul, pinv, pmul
from stabcover.stability import (
    StabilityRecord,
    TriState,
    b0_group,
    classify,
    cover_lift,
    factored_orders,
    group_context,
    s4_s5_membership,
)

ORACLE_GROUPS = [(5,), (6,), (7,), (8,), (2, 4), (9,), (3, 3)]


def _translation(G, g):
    """x -> x + g, built from the group's addition."""
    return as_perm([G.add(v, g) for v in G.elements()])


def _inversion(G):
    """x -> -x, built from the group's negation."""
    return as_perm([G.neg(v) for v in G.elements()])


def test_b_group_pentagon():
    C5 = make_group([5])
    S = ConnectionSet(C5, 0b10010)
    B = b_group(S)
    assert B.order == 10
    for t in group_context(C5).translation_lifts:
        assert B.contains(t)
    assert B.contains(cover_lift(_inversion(C5)))


def test_b_group_from_point_stabilizer():
    # B(S) = R B0: the products of B0's elements with the translation
    # lifts, as `verify.check_bicoset_model` lists B(S), against generic
    # Schreier-Sims on the generators of a search of the whole + block
    # stabilizer; and the lifts, which `b0_group` and the S4/S5 scan trust
    # without a check, preserve the cover
    checked = 0
    for G in all_abelian_groups(8):
        n = G.order
        ctx = group_context(G)
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            cover = double_cover(cayley_graph(S))
            for t in (*ctx.translation_lifts, ctx.inversion_lift):
                assert preserves(cover, t)
            B0 = b0_group(S, cover)
            if n * B0.order > 20_000:
                continue
            b0_elems = B0.elements()
            assert all(x[0] == 0 for x in b0_elems)
            products = {pmul(x, r) for r in ctx.translation_lifts for x in b0_elems}
            assert len(products) == n * B0.order == n * len(set(b0_elems))
            ref = reference_group(2 * n, b_group(S, cover).generators)
            assert products == set(ref.elements()), (G.spec(), hex(mask))
            checked += 1
    assert checked == 366  # of 426 sets; the other 60 have |B| > 20 000


def test_classify_pentagon():
    C5 = make_group([5])
    rec = classify(ConnectionSet(C5, 0b10010))
    assert (rec.aut_order, rec.cover_aut_order, rec.b_order) == (10, 20, 10)
    assert rec.stable and rec.in_s1 and rec.in_s2
    assert rec.in_s3 is False
    assert rec.in_s4 == TriState.NO and rec.in_s5 == TriState.NO
    assert not rec.trivially_unstable


def test_classify_complete_graph_k5():
    # K5 has B = Sym(5) acting diagonally: huge normalizer growth
    C5 = make_group([5])
    rec = classify(ConnectionSet(C5, 0b11110))
    assert rec.b_order == 120
    assert rec.aut_order == 120
    assert rec.cover_aut_order == 240
    assert rec.stable
    assert rec.in_s1 and not rec.in_s2
    assert rec.in_s3 is True
    assert rec.in_s3prime


def test_classify_bipartite_square():
    C4 = make_group([4])
    rec = classify(ConnectionSet(C4, 0b1010))
    assert rec.bipartite and not rec.stable and rec.trivially_unstable
    assert "bipartite-with-nontrivial-aut" in rec.trivial_instability_reasons
    assert "twins" in rec.trivial_instability_reasons


FACTORED_GROUPS = [
    (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (10,), (12,), (2, 6),
]


def _factored(G, S, gam, enum_cap=DEFAULT_ENUM_CAP):
    """`factored_orders`, with H = <S> from `close_subgroup` and T from translating S."""
    component = close_subgroup(G, bit_indices(S.mask))
    twins = [t for t in bit_indices(component) if G.translate_mask(S.mask, t) == S.mask]
    return factored_orders(S, gam, component, twins, is_bipartite(gam), enum_cap)


def test_factored_orders_against_search():
    # every set, S1 (the trivial twin quotient) included: twin-quotient
    # orders vs unconstrained search
    kinds = Counter()
    for facs in FACTORED_GROUPS:
        G = make_group(facs)
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(S)
            aut, cover_aut, b, _ = _factored(G, S, gam)
            assert aut == automorphism_group(gam).order, (G.spec(), hex(mask))
            full = automorphism_group(double_cover(gam))
            assert cover_aut == full.order, (G.spec(), hex(mask))
            assert b == b_group(S).order, (G.spec(), hex(mask))
            if is_connected(gam) and not is_bipartite(gam):
                kinds["s1" if is_twin_free(gam) else "twins"] += 1
    assert kinds == {"s1": 529, "twins": 94}


def test_factored_orders_returns_b0_and_builds_no_quotient_for_s1(monkeypatch):
    # B0 is listed only for non-bipartite sets within the cap; for S1 sets
    # the listing is that of the group `b0_group` searches, since their
    # twin quotient is Cay(G, S) itself, so no quotient graph is built for
    # them, nor for any connected twin-free set
    built = []
    real = stability.LabeledGraph
    monkeypatch.setattr(stability, "LabeledGraph", lambda rows: built.append(len(rows)) or real(rows))
    kinds = Counter()
    for G in all_abelian_groups(8):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(S)
            built.clear()
            *_, b0_elems = _factored(G, S, gam)
            tag = (G.spec(), hex(mask))
            bipartite = is_bipartite(gam)
            if bipartite:
                assert b0_elems is None, tag
            trivial = is_connected(gam) and is_twin_free(gam)
            assert len(built) == (0 if trivial else 1), tag
            if trivial and not bipartite:
                want = b0_group(S)
                # listed exactly when |B(S)| = n |B0| is within the cap
                if G.order * want.order <= DEFAULT_ENUM_CAP:
                    assert set(b0_elems) == set(want.elements()), tag
                else:
                    assert b0_elems is None, tag
                kinds["s1"] += 1
            elif not bipartite:
                kinds["quotient"] += 1
    assert kinds == {"s1": 194, "quotient": 126}


def test_classify_seeds_are_proved_automorphisms(monkeypatch):
    # `classify` passes its seeds, the inversion of G or of a twin quotient
    # H/T and their cover lifts, to the search, which does not check them;
    # each must be an automorphism of the searched graph that preserves its
    # colors
    searches = []
    real = stability.automorphism_group

    def record(graph, colors=None, *, seeds=()):
        searches.append((G, graph, colors, seeds))
        return real(graph, colors, seeds=seeds)

    monkeypatch.setattr(stability, "automorphism_group", record)
    sets = 0
    for G in all_abelian_groups(12):
        for mask in inverse_closed_masks(G):
            stability.classify(ConnectionSet(G, mask))
            sets += 1
    assert (sets, len(searches)) == (1002, 1055)
    quotients = Counter()
    for G, graph, colors, seeds in searches:
        (s,) = seeds
        assert len(s) == graph.n and preserves(graph, s), (G.spec(), graph.n)
        assert all(colors[s[v]] == colors[v] for v in range(graph.n))
        if graph.n not in (G.order, 2 * G.order):
            quotients[max(colors)] += 1
    # proper twin quotients are searched both as Aut_0 (the point colored
    # 1) and as B0 (the point 1 and the rest of the + block 2)
    assert quotients[1] and quotients[2]


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
    return frozenset(cover_lift(_translation(G, g)) for g in G.elements())


def _oracle_families(G, B):
    """(s3, s4, s5) from the subgroup lattice of B above the translations."""
    n = G.order
    degree = 2 * n
    r_set = _cover_translations(G)
    iota = cover_lift(_inversion(G))
    nor_set = frozenset(list(r_set) + [pmul(t, iota) for t in r_set])
    elems = B.elements(100_000)
    s3 = len(_normalizer_in(frozenset(elems), r_set)) > len(nor_set)
    r_gens = [cover_lift(_translation(G, g)) for g in G.generators()]
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
        gam = cayley_graph(S)
        if not (is_connected(gam) and not is_bipartite(gam)):
            continue
        rec = classify(S)
        if rec.in_s1:
            B = b_group(S)
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
            B = b_group(ConnectionSet(G, mask))
            if B.order > 20_000:
                continue
            normalizer = len(_normalizer_in(B.elements(20_000), r_set))
            stab = sum(1 for a in hol if map_mask(mask, a) == mask)
            assert normalizer == G.order * stab, (G.spec(), hex(mask))
            checked += 1
    assert checked == 462  # of 554 sets; 203 of the 462 lie outside S1


def test_s3prime_from_rows_against_holomorph():
    # S3' read off the rows of Cay(G, S) against a scan of every element of
    # Hol(G) except the identity and the inversion
    checked = Counter()
    for G in all_abelian_groups(12):
        trivial = (identity_perm(G.order), _inversion(G))
        hol = [a for a in holomorph(G) if a not in trivial]
        for mask in inverse_closed_masks(G):
            want = any(map_mask(mask, a) == mask for a in hol)
            gam = cayley_graph(ConnectionSet(G, mask))
            twin_free = is_twin_free(gam)
            assert stability.s3prime_membership(G, gam, twin_free) == want, (G.spec(), hex(mask))
            checked[want, twin_free] += 1
    # every set with twins is in S3'; both verdicts occur on twin-free sets
    assert sum(checked.values()) == 1002
    assert checked[False, False] == 0
    assert checked[True, True] and checked[False, True]


def test_s2_sets_skip_the_s3prime_scan(monkeypatch):
    # `classify` decides S3' without the scan for S2 sets, where the
    # normalizer identity leaves Stab_Hol(S) = {1, -1}; the scan agrees
    # with the record on every set of order at most 12
    real = stability.s3prime_membership
    scanned = []

    def counted(G, gam, twin_free):
        scanned.append(gam.rows[0])
        return real(G, gam, twin_free)

    monkeypatch.setattr(stability, "s3prime_membership", counted)
    s2 = 0
    for G in all_abelian_groups(12):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            scanned.clear()
            rec = classify(S)
            assert scanned == ([] if rec.in_s2 else [mask]), (G.spec(), hex(mask))
            gam = cayley_graph(S)
            want = real(G, gam, is_twin_free(gam))
            assert rec.in_s3prime == want, (G.spec(), hex(mask))
            s2 += rec.in_s2
    assert s2 == 172


def test_complement_shares_the_classification():
    # B(S) depends on S only through the relation "v - u in S", which
    # G - S keeps; the two Cayley graphs, loops included, have the same
    # automorphisms and twins, and Stab_Hol(S) = Stab_Hol(G - S) (census
    # module docstring). So a complement pair of S1 sets has one record
    # apart from the set, and B0 is the same group for every pair
    seen = Counter()
    for G in all_abelian_groups(12):
        full = (1 << G.order) - 1
        recs = {mask: classify(ConnectionSet(G, mask)) for mask in inverse_closed_masks(G)}
        for mask, rec in recs.items():
            other = recs[full ^ mask]
            assert (rec.aut_order, rec.in_s3prime, rec.twin_free) == (
                other.aut_order, other.in_s3prime, other.twin_free
            ), (G.spec(), hex(mask))
            if rec.in_s1 and other.in_s1:
                assert replace(other, set=rec.set) == rec, (G.spec(), hex(mask))
                seen["s1"] += 1
            if G.order > 8 or mask > full ^ mask:
                continue
            B0, C0 = b0_group(rec.set), b0_group(other.set)
            if B0.order <= 5_000:
                assert set(B0.elements()) == set(C0.elements()), (G.spec(), hex(mask))
                seen["b0 elements"] += 1
            else:
                assert B0.order == C0.order, (G.spec(), hex(mask))
                seen["b0 order"] += 1
    # 408 S1 sets with an S1 complement; 183 of the 213 pairs at order 8 or
    # less have |B0| within 5 000
    assert seen == {"s1": 408, "b0 elements": 183, "b0 order": 30}


def test_classify_is_aut_g_equivariant_at_order_256():
    # x -> ax for a unit a is an automorphism of C256, and every field of
    # the record but the set is the same on an Aut(G)-orbit (`census`
    # module docstring)
    rng = random.Random(31)
    for S in cyclic_oracle_sets(256, seed=256):
        rec = classify(S)
        for a in rng.sample(range(3, 255, 2), 3):
            image = ConnectionSet(S.group, map_mask(S.mask, [a * x % 256 for x in range(256)]))
            assert replace(classify(image), set=S) == rec, (hex(S.mask), a)


def test_complements_share_b_twins_and_s3prime_at_orders_256_and_512():
    # the census module docstring's shared facts of S and G - S, on covers
    # that are dense where the other is sparse
    for r in (256, 512):
        full = (1 << r) - 1
        for S in cyclic_oracle_sets(r, seed=r):
            rec = classify(S)
            other = classify(ConnectionSet(S.group, full ^ S.mask))
            assert (other.b_order, other.twin_free, other.in_s3prime) == (
                rec.b_order, rec.twin_free, rec.in_s3prime
            ), (r, hex(S.mask))


# -- element-closure witness for the class-mask scan ---------------------------


def _element_closure_scan(G, B):
    """(S4, S5) with every candidate <R, c> listed element by element.

    One closure per R-double coset of B - R, compared as element sets.
    """
    degree = 2 * G.order
    r_list = list(_cover_translations(G))
    r_set = frozenset(r_list)
    r_gens = [cover_lift(_translation(G, g)) for g in G.generators()]
    iota = cover_lift(_inversion(G))
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
        inversion_lift=tuple(ctx.inversion_lift),
        translation_lifts=tuple(map(tuple, ctx.translation_lifts)),
        fix0_tables=tuple(map(tuple, ctx.fix0_tables)),
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
    # must take one class per R-double coset: `pinv` is called once per
    # class representative
    verdicts = Counter()
    for G in all_abelian_groups(10):
        n = G.order
        r_set = _cover_translations(G)
        fix0_tables = group_context(G).fix0_tables
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(S)
            if not (is_connected(gam) and not is_bipartite(gam) and is_twin_free(gam)):
                continue
            B = b_group(S)
            if B.order > 20_000:
                continue
            want = _element_closure_scan(G, B)
            # B = R extended by inversion is answered before any class
            s2 = B.order == (n if G.exponent <= 2 else 2 * n)
            classes = 0 if s2 else _class_count(G, B)
            elems = B.elements()
            # fix0(x) is the element of xR fixing 0+, and the diagonal
            # elements, which hold R, are n times those fixing 0+
            for x in elems:
                f = left_mul(x)(fix0_tables[x[0]])
                assert f[0] == 0 and pmul(pinv(x), f) in r_set
            stab0 = [x for x in elems if x[0] == 0]
            assert len(stab0) * n == len(elems)
            diagonal = stability._diagonal_count
            assert diagonal(elems, n) == n * diagonal(stab0, n)
            # the scan lists the searched B0, which is that stabilizer
            B0 = b0_group(S)
            b0_elems = B0.elements()
            assert set(b0_elems) == set(stab0)
            for context, es in (
                (group_context, b0_elems),
                (_tuple_context, [tuple(p) for p in b0_elems]),
            ):
                reps = []
                with monkeypatch.context() as m:
                    m.setattr(stability, "group_context", context)
                    m.setattr(stability, "pinv", lambda p: reps.append(p) or pinv(p))
                    got = s4_s5_membership(G, G.order * B0.order, elems=es)
                assert got == want, (G.spec(), hex(mask), type(es[0]))
                assert len(reps) == classes, (G.spec(), hex(mask), type(es[0]))
            verdicts[tuple(t.value for t in got)] += 1
    assert verdicts == {
        ("no", "no"): 222, ("no", "yes"): 21, ("yes", "no"): 14, ("yes", "yes"): 2
    }


def _brute_diagonal_count(elems, n):
    return sum(all(p[n + v] == p[v] + n for v in range(n)) for p in elems)


def test_diagonal_count_on_both_representations():
    # p is diagonal iff it commutes with the block swap; checked on bytes
    # elements and on tuple copies of them, against p[n+v] = p[v]+n
    checked = 0
    for G in all_abelian_groups(8):
        n = G.order
        for mask in inverse_closed_masks(G):
            B = b_group(ConnectionSet(G, mask))
            if B.order > 20_000:
                continue
            elems = B.elements()
            want = _brute_diagonal_count(elems, n)
            assert stability._diagonal_count(elems, n) == want
            assert stability._diagonal_count([tuple(p) for p in elems], n) == want
            checked += 1
    assert checked == 366  # of 426 sets; the other 60 have |B| > 20 000


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
    B = b_group(S)
    assert B.order == b_order
    elems = B.elements()
    assert isinstance(elems[0], tuple)
    B0 = b0_group(S)
    got = s4_s5_membership(G, G.order * B0.order, B0.elements())
    assert got == _element_closure_scan(G, B) == verdict
    assert stability._diagonal_count(elems, n) == _brute_diagonal_count(elems, n)


def test_record_takes_ten_facts_and_derives_its_verdicts():
    # no verdict can be passed in, and a changed fact re-derives them all
    assert [f.name for f in fields(StabilityRecord) if f.init] == [
        "set", "aut_order", "cover_aut_order", "b_order", "connected",
        "bipartite", "twin_free", "in_s3prime", "in_s4", "in_s5",
    ]
    C5 = make_group([5])
    rec = classify(ConnectionSet(C5, 0b10010))
    assert rec.stable and rec.in_s1 and rec.in_s2 and not rec.trivially_unstable
    with pytest.raises(ValueError):
        replace(rec, in_s1=False)
    moved = replace(rec, connected=False, cover_aut_order=4 * rec.aut_order)
    assert not (moved.stable or moved.in_s1 or moved.in_s2)
    assert moved.trivial_instability_reasons == ("disconnected",)


def test_classify_indeterminate_on_tiny_enum_cap():
    C5 = make_group([5])
    rec = classify(ConnectionSet(C5, 0b11110), enum_cap=10)
    # S3 needs no enumeration of B(S); only the S4/S5 scan is capped
    assert rec.in_s3 is True
    assert rec.in_s4 == rec.in_s5 == TriState.INDETERMINATE
    assert rec.indeterminate
    # orders are still exact: they come from the stabilizer chain
    assert rec.b_order == 120
    # the cap is on |B| = 120, not on the |B0| = 24 elements listed
    assert b0_group(ConnectionSet(C5, 0b11110)).order == 24
    assert classify(ConnectionSet(C5, 0b11110), enum_cap=119).indeterminate
    assert not classify(ConnectionSet(C5, 0b11110), enum_cap=120).indeterminate


def test_aut_order_over_the_enumeration_cap(monkeypatch):
    # every non-bipartite set, S1 or not: within the cap |Aut(Cay(G, S))|
    # is q times the diagonal elements of the twin quotient's B0, over it
    # (enum_cap = 0) q times the stabilizer of 0, searched with the
    # inversion as the only seed. Both against an unseeded search of the
    # whole group
    counted = []
    real = stability._diagonal_count
    monkeypatch.setattr(
        stability, "_diagonal_count", lambda elems, n: counted.append(n) or real(elems, n)
    )
    kinds = Counter()
    for G in all_abelian_groups(10):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            counted.clear()
            rec = classify(S)
            if rec.bipartite:
                continue
            kinds["s1" if rec.in_s1 else "other"] += 1
            kinds["diagonal"] += len(counted)
            want = automorphism_group(cayley_graph(S)).order
            assert rec.aut_order == want, (G.spec(), hex(mask))
            counted.clear()
            assert classify(S, enum_cap=0).aut_order == want, (G.spec(), hex(mask))
            assert counted == [], (G.spec(), hex(mask))
    # at the default cap the diagonal count serves 418 of the 438 sets
    assert kinds == {"s1": 279, "other": 159, "diagonal": 418}


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
