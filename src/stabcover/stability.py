"""Stability classification of connection sets.

For an inverse-closed S in an abelian group G, the double cover of
Cay(G, S) always admits the translations, the inversion, and the
block swap. B(S) is the subgroup of the cover's automorphism group
stabilizing the + block; the classification hierarchy is:

  S1: Cay(G, S) connected, non-bipartite, twin-free;
  S2: S1 with B(S) exactly the translations extended by inversion;
  S3: S1 with the B(S)-normalizer of the translations strictly larger;
  S3': S fixed setwise by some holomorph element besides 1 and inversion;
  S4: some X <= B(S) has the translations maximal and self-normalizing;
  S5: some X <= B(S) whose translation-normalizer is the unique
      subgroup strictly between the translations and X.

S3 is decided without enumerating B(S), by the identity

  |N_B(R)| = |G| * |Stab_Hol(S)|,

where R is the group of translations acting diagonally on the cover.
An element phi of B(S) normalizing R induces, on each block, a
permutation of G normalizing the regular translation action, so it acts
as x+ -> tau(x) + a and x- -> tau'(x) + b with tau, tau' in Aut(G). The
conjugate of the translation by g is a single element of R, acting as
tau(g) on + and tau'(g) on -, so tau = tau'. Since x+ ~ y- exactly when
y - x lies in S, phi preserves adjacency exactly when
tau(S) + (b - a) = S. Conversely every such map lies in B(S) and
normalizes R. So the normalizer has |G| choices of a for each holomorph
element x -> tau(x) + (b - a) fixing S setwise. That stabilizer always
holds 1 and the inversion, which coincide exactly when G has exponent
two, so the normalizer exceeds the translations extended by inversion
exactly when S is in S3': S3 is S1 and S3'. No S2 set is in S3', since
there N_B(R) <= B has order |G| |{1, -1}|, which forces
Stab_Hol(S) = {1, -1}; `classify` skips the S3' scan for S2 sets.

S3' is read off the rows S + h of Gamma = Cay(G, S), listing no
holomorph: x -> tau(x) + g fixes S exactly when tau(S) = S - g, a row.
For tau = 1 or -1, tau(S) = S, so the element is neither 1 nor the
inversion exactly when g is nonzero and S - g = S: Gamma has twins. So
S is in S3' exactly when Gamma has twins or tau(S) is a row of Gamma
for some tau in Aut(G) other than 1 and -1; since -tau maps S as tau
does, one of each pair is tried (`GroupContext.twists`).

Every group order here follows one rule. If a group of automorphisms
holds a subgroup R regular on a block of vertices, its order is |R|
times that of the stabilizer of one point of the block, and the
stabilizer is searched with the inversion, or its cover lift, as the
only seed. The inversion x -> -x fixes 0 and sends the row S + x to
-S - x = S + (-x), so it is an automorphism of Cay(G, S) because S = -S;
its lift fixes 0+ and each block. Both are proved, so the searches take
them unchecked (`autgrp.automorphism_group`). The translations of G are
regular on Cay(G, S), so |Aut(Cay(G, S))| = |G| |Aut_0|, and their lifts
lie in B(S) and are regular on the + block, so |B(S)| = |G| |B0|
(`b0_group`). Every set's orders come from `factored_orders`, through
the twin quotient of the component at 0, a Cayley graph of a quotient
group with its own translations; an S1 set is its own quotient, whose
B0 the S4/S5 scan lists.

Every per-group table (Aut(G), one of tau and -tau for each pair in it,
the inversion and its lift, the translation lifts and the fix0 tables
that reduce an element of B(S) to the stabilizer of 0+) lives in one
`GroupContext`, built once per group by `group_context`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import math

from .autgrp import automorphism_group
from .errors import DomainError
from .graphs import (
    ConnectionSet,
    LabeledGraph,
    cayley_graph,
    component_of,
    cover_lift,
    double_cover,
)
from .groups import AbelianGroup, automorphism_group_of_G, bit_indices, map_mask
from .perms import (
    DEFAULT_ENUM_CAP,
    PermutationGroup,
    as_perm,
    identity_perm,
    left_mul,
    mul_each,
    mul_table,
    pinv,
    pmul,
)


class TriState(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"

    def __bool__(self):  # guard against accidental truthiness
        raise TypeError("TriState is not a boolean; compare explicitly")


# -- per-group tables ----------------------------------------------------------


@dataclass(frozen=True)
class GroupContext:
    """The tables every classification of sets in one group reads.

    Aut(G) as permutation tables, for |Hol(G)|; one of tau and -tau for
    each pair, for the census's orbit list and the S3' test; the
    inversion, the seed of an Aut_0 search on Cay(G, S), and its lift,
    the one seed of every B0 search on the cover of Cay(G, S); the
    translation lifts and the fix0 tables of the S4/S5 scan. The scan
    lists the point stabilizer B0 of 0+, not B(S), though its enumeration
    cap is still on |B(S)| = |G| |B0|. Each field is built on first use,
    so a caller needing only a seed never lists Aut(G).
    """

    G: AbelianGroup

    @cached_property
    def automorphisms(self) -> list:
        """Aut(G), as the image tables of `automorphism_group_of_G`."""
        return automorphism_group_of_G(self.G)

    @cached_property
    def inversion(self):
        """x -> -x, the seed of an Aut_0 search on Cay(G, S)."""
        return as_perm([self.G.neg(v) for v in self.G.elements()])

    @cached_property
    def twists(self) -> tuple:
        """One of tau and -tau for each pair in Aut(G), the identity first.

        For an inverse-closed S, (-tau)(S) = tau(-S) = tau(S), so the
        other of each pair only repeats an image of S. At exponent two
        -tau = tau, and this is all of Aut(G).
        """
        ident, neg = identity_perm(self.G.order), self.inversion
        out, seen = [ident], {ident, neg}
        for tau in self.automorphisms:
            if tau not in seen:
                out.append(tau)
                seen.update((tau, pmul(tau, neg)))
        return tuple(out)

    @cached_property
    def inversion_lift(self):
        """Cover lift of the inversion: the one seed of every B0 search."""
        return cover_lift(self.inversion)

    @cached_property
    def translation_lifts(self) -> tuple:
        """Cover lifts of all |G| translations, by translation element.

        The translation by g is row g of the addition table, which exists up
        to order 1024, past the cover search's limit.
        """
        return tuple(map(cover_lift, self.G.addition_rows()))

    @cached_property
    def fix0_tables(self) -> tuple:
        """`mul_table` of the lift of the translation by -v, by + vertex v.

        For x fixing the + block, fix0(x) = left_mul(x)(fix0_tables[x[0]])
        is x times the translation by -x(0+): the one element of the
        coset xR that fixes 0+.
        """
        G, lifts = self.G, self.translation_lifts
        return tuple(mul_table(lifts[G.neg(v)]) for v in G.elements())


def minimal_b_order(G: AbelianGroup) -> int:
    """|G| |{1, -1}|: the translations extended by inversion, the least B(S)."""
    return G.order * (1 if G.exponent <= 2 else 2)


@lru_cache(maxsize=64)
def group_context(G: AbelianGroup) -> GroupContext:
    """The one `GroupContext` of G in this process."""
    return GroupContext(G)


# -- B(S) --------------------------------------------------------------------


def b0_group(S: ConnectionSet, cover: LabeledGraph | None = None) -> PermutationGroup:
    """B0, the stabilizer of the vertex 0+ in B(S), for G = S.group.

    The lifted translations are cover automorphisms unchecked, since
    `cayley_graph` builds row i as S + i and `double_cover` lifts rows.
    They form R, which fixes the + block and is regular on it, so B(S) =
    R B0 with R and B0 meeting in the identity, and |B(S)| = |G| |B0|:
    B(S) is never built, and its elements, where needed, are the products
    of B0's with the `GroupContext.translation_lifts`. A caller that has
    already built the double cover of Cay(G, S) passes it as `cover`.
    """
    if cover is None:
        cover = double_cover(cayley_graph(S))
    return _b0_search(cover, group_context(S.group).inversion_lift)


def _b0_search(cover: LabeledGraph, iota) -> PermutationGroup:
    """The stabilizer of 0+ in the + block stabilizer of a double cover.

    The cover is colored 1 at 0+, 2 on the rest of + and 0 on -; a map
    preserving the colors fixes 0+ and the + block setwise. iota, the
    lifted inversion, fixes 0+, is the search's only seed, and must lie
    in the result. It is an automorphism preserving the colors (see the
    module docstring), so it goes to the search unchecked.
    """
    half = cover.n // 2
    B0 = automorphism_group(cover, [1] + [2] * (half - 1) + [0] * half, seeds=[iota])
    if not B0.contains(iota):
        raise DomainError("inversion missing from the point stabilizer")
    return B0


# -- records -----------------------------------------------------------------


@dataclass(frozen=True)
class StabilityRecord:
    """The computed facts about one connection set, and the verdicts they decide.

    A record is built from its ten facts: the set, the orders |Aut|,
    |Aut of the cover| and |B|, whether Cay(G, S) is connected, bipartite
    and twin-free, the S3' verdict (Stab_Hol(S) holds more than 1 and -1)
    and the S4/S5 scan's verdicts. Every other verdict is derived from
    them here, once, in `__post_init__`, and nowhere else, so no record
    carries a verdict that contradicts its facts:

      stable: |Aut of the cover| = 2 |Aut|;
      in_s1: connected, non-bipartite and twin-free;
      in_s2: S1 with |B| = `minimal_b_order`;
      in_s3: S1 and S3' (see the module docstring);
      exponent_two: G has exponent at most two;
      trivial_instability_reasons: disconnected, bipartite with a
        nontrivial automorphism, twins.
    """

    set: ConnectionSet
    aut_order: int
    cover_aut_order: int
    b_order: int
    connected: bool
    bipartite: bool
    twin_free: bool
    in_s3prime: bool
    in_s4: TriState
    in_s5: TriState
    stable: bool = field(init=False)
    in_s1: bool = field(init=False)
    in_s2: bool = field(init=False)
    in_s3: bool = field(init=False)
    exponent_two: bool = field(init=False)
    trivial_instability_reasons: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        G = self.set.group
        in_s1 = self.connected and not self.bipartite and self.twin_free
        reasons = []
        if not self.connected:
            reasons.append("disconnected")
        if self.bipartite and self.aut_order > 1:
            reasons.append("bipartite-with-nontrivial-aut")
        if not self.twin_free:
            reasons.append("twins")
        # the fields are frozen, so the derived ones are set in __dict__
        self.__dict__.update(
            stable=self.cover_aut_order == 2 * self.aut_order,
            in_s1=in_s1,
            in_s2=in_s1 and self.b_order == minimal_b_order(G),
            in_s3=in_s1 and self.in_s3prime,
            exponent_two=G.exponent <= 2,
            trivial_instability_reasons=tuple(reasons),
        )

    @property
    def group(self) -> str:
        return self.set.group.spec()

    @property
    def trivially_unstable(self) -> bool:
        return bool(self.trivial_instability_reasons)

    @property
    def indeterminate(self) -> bool:
        """A capped S4/S5 scan left a family membership undecided."""
        return TriState.INDETERMINATE in (self.in_s4, self.in_s5)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "set": f"0x{self.set.mask:x}",
            "set_size": len(self.set),
            "aut_order": self.aut_order,
            "cover_aut_order": self.cover_aut_order,
            "b_order": self.b_order,
            "connected": self.connected,
            "bipartite": self.bipartite,
            "twin_free": self.twin_free,
            "stable": self.stable,
            "in_s1": self.in_s1,
            "in_s2": self.in_s2,
            "in_s3prime": self.in_s3prime,
            "exponent_two": self.exponent_two,
            "reasons": list(self.trivial_instability_reasons),
            "in_s3": self.in_s3,
            "in_s4": self.in_s4.value,
            "in_s5": self.in_s5.value,
        }

    def to_csv_dict(self) -> dict[str, str]:
        """`to_json_dict` without `set_size`, as CSV cells: bools as true/false, reasons joined by ;."""
        d = self.to_json_dict()
        del d["set_size"]

        def cell(v) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            return ";".join(v) if isinstance(v, list) else str(v)

        return {col: cell(v) for col, v in d.items()}


# -- the classification pipeline ---------------------------------------------


def classify(S: ConnectionSet, enum_cap: int = DEFAULT_ENUM_CAP) -> StabilityRecord:
    """Classify one connection set of G = S.group; caps yield indeterminate fields.

    One BFS (`component_of`) gives H = <S>, the component of 0, and
    whether it is bipartite. The translations are automorphisms of
    Cay(G, S), so every component is a translate g + H of it, and the
    graph is bipartite exactly when the component of 0 is. One row count
    gives the twins T of 0 in H (row t is S + t), and twin-freeness over
    all of G (for S empty every vertex is a twin): rows g and h are equal
    exactly when rows 0 and h - g are. `factored_orders` takes every order
    from this structure pass.

    Only facts are computed here; `StabilityRecord` derives the verdicts.
    A first record of the structure and the orders, with S3', S4 and S5
    left at no, says whether S is S2, which skips the S3' rows rule, and
    whether it is S1, which runs the S4/S5 scan.
    """
    if enum_cap < 0:
        raise DomainError("enumeration cap must be non-negative")
    G = S.group
    n = G.order
    gam = cayley_graph(S)
    rows = gam.rows
    component, bipartite = component_of(gam)
    twins = [t for t in bit_indices(component) if rows[t] == rows[0]]
    connected = component == (1 << n) - 1
    twin_free = rows.count(rows[0]) == 1

    aut_order, cover_aut_order, b_order, b0_elems = factored_orders(
        S, gam, component, twins, bipartite, enum_cap
    )
    facts = (S, aut_order, cover_aut_order, b_order, connected, bipartite, twin_free)
    first = StabilityRecord(*facts, False, TriState.NO, TriState.NO)
    # no S2 set is in S3' (see the module docstring)
    in_s3prime = not first.in_s2 and s3prime_membership(G, gam, twin_free)
    in_s4 = in_s5 = TriState.NO
    if first.in_s1:
        # the twin quotient is Cay(G, S) itself, and b0_elems lists its B0
        in_s4, in_s5 = s4_s5_membership(G, b_order, b0_elems)
    return StabilityRecord(*facts, in_s3prime, in_s4, in_s5)


def factored_orders(
    S: ConnectionSet, gam: LabeledGraph, component: int, twins: list[int],
    bipartite: bool, enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple:
    """(|Aut|, |Aut of cover|, |B|, B0's elements) for gam = Cay(G, S), G = S.group.

    component is the vertex mask of H = <S>, twins lists T (below), and
    bipartite says whether gam is, all from `classify`'s structure pass.

    The components of Cay(G, S) are the cosets of H, all isomorphic
    to the component Gamma_H at the identity, so every order factors
    through Gamma_H:

      Gamma_H non-bipartite: the cover splits into m connected covers,
        one per coset, giving (2 b_H)^m m! cover automorphisms, of which
        b_H^m m! preserve the + block (each component map must send +
        part to + part).
      Gamma_H bipartite with parts Q0, Q1: each component's cover is two
        fresh copies of Gamma_H, one meeting the + block in Q0, the other
        in Q1. For S nonempty the translation by any s in S is an
        automorphism of Gamma_H sending 0 to its neighbour s, so it swaps
        the two parts, which every automorphism of the connected
        bipartite Gamma_H keeps or swaps. So the automorphisms fixing Q0
        are a subgroup of index two, a_+ = a_H/2 of them; all 2m copies
        mix and each copy map has a_H/2 choices. For S empty Gamma_H is
        one vertex, a_H = 1, nothing swaps the parts, and the two
        families of m copies stay separate: B is Sym(m) x Sym(m).

    a_H and b_H come from the twin quotient of Gamma_H (the twin
    reduction of S. Wilson, JCTB 2008). Vertices g, h are twins when their
    rows, loop bit included, are equal: g + S = h + S, that is h - g lies
    in the subgroup T = {t in H : S + t = S}. For S nonempty this T holds
    every t with S + t = S, since s + t in S for s in S puts t in H. So the
    twin classes of Gamma_H are the cosets of T, q = |H|/|T| of them.
    Inside the class g + T, g ~ g + t exactly when t lies in S; if
    some t in T does, then 0 = t - t lies in S - t = S and T = 0 + T lies
    in S, so each class is a clique with loops (0 in S) or has no edge at
    all; between two classes every pair or none is adjacent.
    Write Gamma_H/T for the graph on the cosets and f = (|T|!)^q. Then

      a_H = f |Aut(Gamma_H/T)|: an automorphism maps twins to twins, so
        it permutes the classes by an automorphism of Gamma_H/T; the kernel
        is the product of Sym(class), and every automorphism of Gamma_H/T
        lifts by any bijections between the equal-sized classes;
      b_H = f^2 |B(Gamma_H/T)| when Gamma_H is not bipartite (so S is not
        empty): twins in the cover are the base twin classes taken on each
        block, the cover of Gamma_H/T is the cover of Gamma_H with those 2q
        classes contracted, and the kernel, two products of Sym(class),
        fixes both blocks.

    A connected twin-free set, S1 among them, has the trivial quotient:
    H = G, T = {0}, q = n, f = 1, m = 1, and Gamma_H/T is gam itself.

    Gamma_H/T is bipartite exactly when Gamma_H, or gam, is: a 2-coloring
    of either is constant on classes and a loop exists in both or in
    neither. It is the Cayley graph of H/T whose connection set is the
    image of S (S + T = S), so the translations of H/T are regular on its
    vertices, and their lifts on the + block of its cover. Both orders
    are then q times a point stabilizer (see the module docstring):
    |Aut(Gamma_H/T)| = q |Aut_0| and |B(Gamma_H/T)| = q |B0|, B0 searched
    by `_b0_search` from the projected inversion of H. The class of 0 is
    vertex 0. The projected inversion g + T -> -g + T is the inversion of
    H/T, and the image of S is inverse-closed, so it and its lift are the
    proved seeds of the module docstring, and both searches take them
    unchecked.

    B0, that of Gamma_H/T, is listed when Gamma_H is not bipartite and
    q |B0| is within enum_cap; otherwise the listing is None. The elements
    of B0 acting alike on both blocks are exactly the lifts of Aut_0, for
    any graph, so a listing gives |Aut_0| by `_diagonal_count`; otherwise
    Aut_0 is searched. For an S1 set the listing is that of its own B0,
    the input of the S4/S5 scan.
    """
    G = S.group
    n = G.order
    members = bit_indices(component)
    m = n // len(members)
    if m == 1 and len(twins) == 1:
        # the trivial quotient: gam itself, with G's inversion as the seed
        q, f, quot = n, 1, gam
        ctx = group_context(G)
        iota, cover_iota = ctx.inversion, ctx.inversion_lift
    else:
        # pos maps each member of H to the index of its twin class; the
        # class of g is represented by its least member
        reps: list[int] = []
        pos: dict[int, int] = {}
        for g in members:
            if g not in pos:
                for t in twins:
                    pos[G.add(g, t)] = len(reps)
                reps.append(g)
        q = len(reps)
        f = math.factorial(len(twins)) ** q
        # row g is S + g, inside H for g in H, so pos maps all of it
        quot = LabeledGraph(tuple(map_mask(gam.rows[g], pos) for g in reps))
        iota = as_perm([pos[G.neg(g)] for g in reps])
        cover_iota = cover_lift(iota)
    fm = math.factorial(m)
    b0_elems = None
    if not bipartite:
        B0 = _b0_search(double_cover(quot), cover_iota)
        if q * B0.order <= enum_cap:
            b0_elems = B0.elements(enum_cap)
    if b0_elems is None:
        aut0 = automorphism_group(quot, [1] + [0] * (q - 1), seeds=[iota]).order
    else:
        aut0 = _diagonal_count(b0_elems, q)
    a_h = f * q * aut0
    aut_order = a_h**m * fm
    if not bipartite:
        b_h = f * f * q * B0.order
        return aut_order, (2 * b_h) ** m * fm, b_h**m * fm, b0_elems
    f2m = math.factorial(2 * m)
    b_order = (a_h // 2) ** (2 * m) * f2m if S.mask else fm**2
    return aut_order, a_h ** (2 * m) * f2m, b_order, None


def s3prime_membership(G: AbelianGroup, gam: LabeledGraph, twin_free: bool) -> bool:
    """True iff some holomorph element besides 1 and inversion fixes S setwise.

    gam is Cay(G, S), whose row 0 is S, and twin_free says whether its
    rows are distinct; the rows rule is proved in the module docstring.
    """
    if not twin_free:
        return True
    rows = set(gam.rows)
    mask = gam.rows[0]
    # twists[0] is the identity, and the inversion is its pair
    return any(map_mask(mask, tau) in rows for tau in group_context(G).twists[1:])


# -- S4 / S5 -----------------------------------------------------------------


def _diagonal_count(elems, n: int) -> int:
    """Elements acting identically on both cover blocks.

    An element p fixing the blocks is diagonal, p(v-) = p(v+) + n, exactly
    when it commutes with the block swap sigma: p sigma = sigma p.
    """
    swap = mul_table(as_perm([*range(n, 2 * n), *range(n)]))
    return sum(left_mul(p)(swap) == p[n:] + p[:n] for p in elems)


def s4_s5_membership(G: AbelianGroup, b_order: int, elems) -> tuple[TriState, TriState]:
    """Scan subgroups between the translations and B(S) for S4/S5 witnesses.

    b_order is |B(S)| for an S1 set S, and elems the listing of B0, the
    stabilizer of 0+ in B(S), from `factored_orders`, or None when B0 is
    not listed. This is the one rule for the two answers that need no
    scan: no and no when |B(S)| is minimal, whatever elems is, and
    otherwise indeterminate when B0 is not listed.

    Every witness X is generated over the translations R by a single
    element: for S4, R is maximal in X, so adjoining any element of X - R
    gives X; for S5, the unique-intermediate property forces the same.
    Adjoining c or any element of its R-double coset ("class") R c R gives
    the same subgroup, so the candidates are X_i = <R, c_i>, one per class
    of B - R.

    Each X_i contains R, so it is R plus a union of classes and is fixed by
    the bitmask of the classes it meets. Since R c_p R c_i R is the union
    over r in R of R (c_p r c_i) R, that mask is the least set of classes
    holding i and, with each class p, the class of every product
    c_p r c_i not in R.

    The scan runs on the point stabilizer B0 = {x in B : x fixes 0+}. R is
    regular on the + block, which B fixes, so B = R B0; write fix0(x) for
    x times the translation by -x(0+), the one element of xR in B0
    (`GroupContext.fix0_tables`). Three identities carry the scan:

      classes: R c R meets B0 in {fix0(a c) : a in R}, and x lies in the
        class of fix0(x). So the representatives come from B0 - {1}, and
        class i marks the n elements fix0(a c_i) of B0;
      closure: c_p in B0 fixes 0+, so fix0(c_p r c_i) = c_p fix0(r c_i),
        and the classes met by c_p R c_i are those of c_p times the marked
        elements of class i, products that already lie in B0;
      Aut: the diagonal elements of B contain R, so |Aut(Cay(G, S))| is n
        times the diagonal elements of B0 (used by `factored_orders`).

    B0 is searched and listed directly, never filtered out of a list of B,
    but `factored_orders` still compares the cap with |B| = n |B0|: every
    verdict, `indeterminate` included, is that of a scan over all of B, and
    exact whenever |B| is within the cap.
    """
    if b_order == minimal_b_order(G):
        # B is the translations extended by inversion; the only candidate
        # X is B itself, whose translation-normalizer is all of X
        return TriState.NO, TriState.NO
    if elems is None:
        return TriState.INDETERMINATE, TriState.INDETERMINATE
    ctx = group_context(G)
    r_list = ctx.translation_lifts
    r_gens = [r_list[g] for g in G.generators()]
    iota_p = ctx.inversion_lift
    r_set = frozenset(r_list)
    fix0 = ctx.fix0_tables
    # cls maps each element of B0 - {1} to the index of its class; class i
    # keeps left multiplication by its representative and the tables of
    # its marked elements
    cls: dict = {}
    lefts = []
    tables = []
    norm_mask = 0
    for c in elems:
        if c in cls or c in r_set:
            continue
        i = len(tables)
        ci = pinv(c)
        # normalizing R is a class invariant: conjugating t by a*c*b with
        # a, b in the abelian R gives b^-1 (c^-1 t c) b, in R iff c^-1 t c is
        if all(pmul(pmul(ci, t), c) in r_set for t in r_gens):
            norm_mask |= 1 << i
        marked = dict.fromkeys(
            [left_mul(ac)(fix0[ac[0]]) for ac in mul_each(r_list, c)], i
        )
        cls.update(marked)
        lefts.append(left_mul(c))
        tables.append(list(map(mul_table, marked)))
    # R . iota is one class, the normalizer's; with exponent two iota is in R
    nor_mask = 1 << cls[iota_p] if iota_p in cls else 0

    masks = []
    for i, tabs in enumerate(tables):
        m = 1 << i
        todo = [i]
        while todo:
            for q in map(cls.get, map(lefts[todo.pop()], tabs)):
                if q is not None and not m >> q & 1:
                    m |= 1 << q
                    todo.append(q)
        masks.append(m)

    found4 = found5 = False
    for mx in dict.fromkeys(masks):
        reps_in = [j for j in range(len(masks)) if mx >> j & 1]
        # the normalizer of R in X is R plus the normalizing classes in X
        nor_x = mx & norm_mask
        found4 = found4 or (not nor_x and all(masks[j] == mx for j in reps_in))
        # S5 needs the normalizer R . iota strictly between R and X, and
        # as the unique intermediate subgroup: any Y with R < Y < X is a
        # union of one-element closures, all of which must then equal the
        # normalizer, which itself has none strictly above R
        found5 = found5 or bool(
            mx & nor_mask
            and mx & ~nor_mask
            and all(masks[j] == nor_mask for j in reps_in if nor_x >> j & 1)
            and all(masks[j] in (mx, nor_mask) for j in reps_in)
        )
        if found4 and found5:
            break
    s4 = TriState.YES if found4 else TriState.NO
    s5 = TriState.YES if found5 else TriState.NO
    return s4, s5
