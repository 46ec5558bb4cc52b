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
exactly when S is in S3': S3 is S1 and S3'.

Every per-group table (Aut(G), the holomorph pairs of the S3' scan, the
automorphism seeds and the translation lifts) lives in one
`GroupContext`, built once per group by `group_context`.

Also implements the sigma statistics on cosets of a subgroup with
cyclic quotient, and the Psi coincidence census.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import math

from .autgrp import automorphism_group
from .errors import CapExceededError, DomainError
from .graphs import (
    ConnectionSet,
    LabeledGraph,
    cayley_graph,
    double_cover,
    is_bipartite,
    is_connected,
    is_twin_free,
)
from .groups import (
    HOLOMORPH_CAP,
    AbelianGroup,
    GroupAutomorphism,
    Subgroup,
    automorphism_group_of_G,
    c_value,
    close_subgroup,
    inverse_closed_masks,
)
from .perms import (
    DEFAULT_ENUM_CAP,
    PermutationGroup,
    as_perm,
    pad_table,
    pinv,
    pmul,
    right_mul,
)


class TriState(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"

    def __bool__(self):  # guard against accidental truthiness
        raise TypeError("TriState is not a boolean; compare explicitly")


# -- permutations realizing the always-present cover symmetries --------------


def base_translation_perm(G: AbelianGroup, g: int):
    return as_perm([G.add(v, g) for v in range(G.order)])


def base_inversion_perm(G: AbelianGroup):
    return as_perm([G.neg(v) for v in range(G.order)])


def cover_lift(perm):
    """Diagonal action on the 2n cover vertices of a permutation of n."""
    n = len(perm)
    return as_perm(list(perm) + [n + perm[v] for v in range(n)])


# -- per-group tables ----------------------------------------------------------


@dataclass(frozen=True)
class GroupContext:
    """The tables every classification of sets in one group reads.

    Each field is built on first use, so a caller needing only the seeds
    (`b_group`) never lists Aut(G) or meets the holomorph cap.
    """

    G: AbelianGroup

    @cached_property
    def automorphisms(self) -> list[GroupAutomorphism]:
        return automorphism_group_of_G(self.G)

    @cached_property
    def s3prime_pairs(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(twist table, translation) of each holomorph element x -> tau(x + g).

        The identity and the inversion, which fix every inverse-closed
        set, are left out. Raises CapExceededError when Hol(G) has more
        than HOLOMORPH_CAP elements, as `groups.holomorph` does.
        """
        G = self.G
        size = G.order * len(self.automorphisms)
        if size > HOLOMORPH_CAP:
            raise CapExceededError("holomorph enumeration", size, HOLOMORPH_CAP)
        neg = tuple(G.neg(x) for x in G.elements())
        return tuple(
            (tau.perm, g)
            for tau in self.automorphisms
            for g in G.elements()
            if g or not (tau.is_identity() or tau.perm == neg)
        )

    @cached_property
    def base_seeds(self) -> tuple:
        """Translations by the canonical generators, then the inversion."""
        G = self.G
        gens = tuple(base_translation_perm(G, g) for g in G.generators())
        return gens + (base_inversion_perm(G),)

    @cached_property
    def cover_seeds(self) -> tuple:
        """Cover lifts of `base_seeds`: translation generators, then inversion."""
        return tuple(cover_lift(p) for p in self.base_seeds)

    @cached_property
    def translation_lifts(self) -> tuple:
        """Cover lifts of all |G| translations, by translation element."""
        G = self.G
        return tuple(cover_lift(base_translation_perm(G, g)) for g in G.elements())


@lru_cache(maxsize=64)
def group_context(G: AbelianGroup) -> GroupContext:
    """The one `GroupContext` of G in this process."""
    return GroupContext(G)


# -- B(S) --------------------------------------------------------------------


def b_group(
    G: AbelianGroup, S: ConnectionSet, cover: LabeledGraph | None = None
) -> PermutationGroup:
    """Setwise stabilizer of the + block in the cover's automorphism group.

    Computed as the color-respecting automorphism group of the cover with
    the two blocks colored apart: stabilizing the + block setwise forces
    the complement - block setwise, so this is exactly B(S). A caller that
    has already built the double cover of Cay(G, S) passes it as `cover`.
    """
    n = G.order
    seeds = group_context(G).cover_seeds
    if cover is None:
        cover = double_cover(cayley_graph(G, S))
    B = automorphism_group(
        cover,
        fixed_blocks=[list(range(n))],
        known_automorphisms=seeds,
    )
    for p in seeds:
        if not B.contains(p):
            raise DomainError("translations or inversion missing from the block stabilizer")
    return B


# -- records -----------------------------------------------------------------


@dataclass(frozen=True)
class StabilityRecord:
    """Full classification verdict for one connection set."""

    set: ConnectionSet
    aut_order: int
    cover_aut_order: int
    b_order: int
    connected: bool
    bipartite: bool
    twin_free: bool
    stable: bool
    in_s1: bool
    in_s2: bool
    in_s3: bool
    in_s3prime: bool
    in_s4: TriState
    in_s5: TriState
    exponent_two: bool
    trivial_instability_reasons: tuple[str, ...]

    CSV_COLUMNS = (
        "group",
        "set",
        "aut_order",
        "cover_aut_order",
        "b_order",
        "connected",
        "bipartite",
        "twin_free",
        "stable",
        "in_s1",
        "in_s2",
        "in_s3prime",
        "exponent_two",
        "reasons",
        "in_s3",
        "in_s4",
        "in_s5",
    )

    @property
    def group(self) -> str:
        return self.set.group.spec()

    @property
    def trivially_unstable(self) -> bool:
        return bool(self.trivial_instability_reasons)

    @property
    def nontrivially_unstable(self) -> bool:
        return not self.stable and not self.trivially_unstable

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

    def to_csv_row(self) -> list[str]:
        def b(x: bool) -> str:
            return "true" if x else "false"

        return [
            self.group,
            f"0x{self.set.mask:x}",
            str(self.aut_order),
            str(self.cover_aut_order),
            str(self.b_order),
            b(self.connected),
            b(self.bipartite),
            b(self.twin_free),
            b(self.stable),
            b(self.in_s1),
            b(self.in_s2),
            b(self.in_s3prime),
            b(self.exponent_two),
            ";".join(self.trivial_instability_reasons),
            b(self.in_s3),
            self.in_s4.value,
            self.in_s5.value,
        ]


# -- the classification pipeline ---------------------------------------------


def classify(
    G: AbelianGroup,
    S: ConnectionSet,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> StabilityRecord:
    """Classify one connection set; caps yield indeterminate fields, not errors."""
    n = G.order
    gam = cayley_graph(G, S)
    connected = is_connected(gam)
    bipartite = is_bipartite(gam)
    twin_free = is_twin_free(gam)
    exponent_two = G.exponent <= 2
    target = n if exponent_two else 2 * n

    if connected and not bipartite:
        B = b_group(G, S, double_cover(gam))
        b_order = B.order
        # the cover is connected, its full group splits off the block swap
        cover_aut_order = 2 * b_order
        try:
            b_elems = B.elements(enum_cap)
        except CapExceededError:
            b_elems = None
        if b_elems is None:
            aut_order = automorphism_group(
                gam, known_automorphisms=group_context(G).base_seeds
            ).order
        else:
            # base automorphisms are exactly the diagonal elements of B
            aut_order = _diagonal_count(b_elems, n)
    else:
        # disconnected or bipartite graphs factor through one component
        B = None
        aut_order, cover_aut_order, b_order = factored_orders(G, S, gam)
    stable = cover_aut_order == 2 * aut_order

    reasons = []
    if not connected:
        reasons.append("disconnected")
    if bipartite and aut_order > 1:
        reasons.append("bipartite-with-nontrivial-aut")
    if not twin_free:
        reasons.append("twins")

    in_s1 = connected and not bipartite and twin_free
    in_s2 = in_s1 and b_order == target
    in_s3prime = s3prime_membership(G, S)
    # |N_B(R)| = n |Stab_Hol(S)| (see the module docstring)
    in_s3 = in_s1 and in_s3prime

    if B is None or not in_s1:
        in_s4, in_s5 = TriState.NO, TriState.NO
    else:
        in_s4, in_s5 = s4_s5_membership(G, S, B, enum_cap, elems=b_elems)

    return StabilityRecord(
        set=S,
        aut_order=aut_order,
        cover_aut_order=cover_aut_order,
        b_order=b_order,
        connected=connected,
        bipartite=bipartite,
        twin_free=twin_free,
        stable=stable,
        in_s1=in_s1,
        in_s2=in_s2,
        in_s3=in_s3,
        in_s3prime=in_s3prime,
        in_s4=in_s4,
        in_s5=in_s5,
        exponent_two=exponent_two,
        trivial_instability_reasons=tuple(reasons),
    )


def factored_orders(G: AbelianGroup, S: ConnectionSet, gam: LabeledGraph) -> tuple[int, int, int]:
    """(|Aut|, |Aut of cover|, |B|) for a disconnected or bipartite Cayley graph.

    The components of Cay(G, S) are the cosets of H = <S>, all isomorphic
    to the component Gamma_H at the identity, so every order factors
    through Gamma_H:

      Gamma_H non-bipartite: the cover splits into m connected covers,
        one per coset, giving (2 b_H)^m m! cover automorphisms, of which
        b_H^m m! preserve the + block (each component map must send +
        part to + part).
      Gamma_H bipartite with parts Q0, Q1: each component's cover is two
        fresh copies of Gamma_H, one meeting the + block in Q0, the other
        in Q1. With a part-swapping automorphism all 2m copies mix and
        each copy map has a_H/2 choices; without one, the two families of
        m copies stay separate.
    """
    n = G.order
    h_mask = close_subgroup(G, S.members())
    members = []
    mm = h_mask
    while mm:
        low = mm & -mm
        members.append(low.bit_length() - 1)
        mm ^= low
    k = len(members)
    m = n // k
    pos = {g: i for i, g in enumerate(members)}
    rows = []
    for g in members:
        row = 0
        full = gam.rows[g]
        for h in members:
            if full >> h & 1:
                row |= 1 << pos[h]
        rows.append(row)
    comp = LabeledGraph(k, rows)
    seeds = [as_perm([pos[G.add(g, t)] for g in members]) for t in members]
    seeds.append(as_perm([pos[G.neg(g)] for g in members]))
    a_h = automorphism_group(comp, known_automorphisms=seeds).order
    fm = math.factorial(m)
    if not is_bipartite(comp):
        comp_cover = double_cover(comp)
        cover_seeds = [cover_lift(s) for s in seeds]
        b_h = automorphism_group(
            comp_cover,
            fixed_blocks=[list(range(k))],
            known_automorphisms=cover_seeds,
        ).order
        return a_h**m * fm, (2 * b_h) ** m * fm, b_h**m * fm
    q0 = _part_of_zero(comp, pos[0])
    part_seeds = [s for s in seeds if {s[v] for v in q0} == set(q0)]
    a_plus = automorphism_group(
        comp, fixed_blocks=[q0], known_automorphisms=part_seeds
    ).order
    aut_order = a_h**m * fm
    cover_aut_order = a_h ** (2 * m) * math.factorial(2 * m)
    if a_plus < a_h:
        b_order = a_plus ** (2 * m) * math.factorial(2 * m)
    else:
        b_order = a_h ** (2 * m) * fm**2
    return aut_order, cover_aut_order, b_order


def _part_of_zero(comp: LabeledGraph, v0: int) -> list[int]:
    """The bipartition class of v0 in a connected loop-free bipartite graph."""
    color = [-1] * comp.n
    color[v0] = 0
    stack = [v0]
    while stack:
        v = stack.pop()
        for u in comp.neighbors(v):
            if color[u] == -1:
                color[u] = 1 - color[v]
                stack.append(u)
    return [v for v in range(comp.n) if color[v] == 0]


def s3prime_membership(G: AbelianGroup, S: ConnectionSet | int) -> bool:
    """True iff some holomorph element besides 1 and inversion fixes S setwise."""
    mask = S.mask if isinstance(S, ConnectionSet) else S
    members = []
    m = mask
    while m:
        low = m & -m
        members.append(low.bit_length() - 1)
        m ^= low
    add = G.add
    for tp, g in group_context(G).s3prime_pairs:
        for s in members:
            if not mask >> tp[add(s, g)] & 1:
                break
        else:
            return True
    return False


# -- S4 / S5 -----------------------------------------------------------------


def _diagonal_count(elems, n: int) -> int:
    """Elements acting identically on both cover blocks."""
    cnt = 0
    if elems and isinstance(elems[0], bytes):
        # p is diagonal iff shifting its + half by n reproduces its - half
        shift = bytes(min(i + n, 255) for i in range(256))
        for p in elems:
            if p[:n].translate(shift) == p[n:]:
                cnt += 1
        return cnt
    for p in elems:
        for v in range(n):
            if p[n + v] != p[v] + n:
                break
        else:
            cnt += 1
    return cnt


def s4_s5_membership(
    G: AbelianGroup,
    S: ConnectionSet,
    B: PermutationGroup,
    enum_cap: int = DEFAULT_ENUM_CAP,
    elems=None,
) -> tuple[TriState, TriState]:
    """Scan subgroups between the translations and B(S) for S4/S5 witnesses.

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
    c_p r c_i not in R. The scan lists B once and no candidate's elements,
    so it is exact whenever |B| is within the enumeration cap.
    """
    n = G.order
    if B.order == (n if G.exponent <= 2 else 2 * n):
        # B is the translations extended by inversion; the only candidate
        # X is B itself, whose translation-normalizer is all of X
        return TriState.NO, TriState.NO
    if elems is None:
        try:
            elems = B.elements(enum_cap)
        except CapExceededError:
            return TriState.INDETERMINATE, TriState.INDETERMINATE
    ctx = group_context(G)
    *r_gens, iota_p = ctx.cover_seeds
    r_list = ctx.translation_lifts
    r_set = frozenset(r_list)
    # cls maps each element of B - R to the index of its class; class i
    # keeps its representative's right multiplication and the coset c_i R
    cls: dict = {}
    rights = []
    cosets = []
    norm_mask = 0
    bytes_mode = isinstance(iota_p, bytes)
    if bytes_mode:
        r_tabs = [pad_table(b2) for b2 in r_list]
        t_tabs = [pad_table(t) for t in r_gens]
    for c in elems:
        if c in cls or c in r_set:
            continue
        i = len(cosets)
        ci = pinv(c)
        # normalizing R is a class invariant: conjugating t by a*c*b with
        # a, b in the abelian R gives b^-1 (c^-1 t c) b, in R iff c^-1 t c is
        if bytes_mode:
            c_tab = pad_table(c)
            normalizes = all(ci.translate(t).translate(c_tab) in r_set for t in t_tabs)
            for a in r_list:
                ac = a.translate(c_tab)
                cls.update(dict.fromkeys([ac.translate(bt) for bt in r_tabs], i))
            cosets.append([c.translate(bt) for bt in r_tabs])
        else:
            normalizes = all(pmul(pmul(ci, t), c) in r_set for t in r_gens)
            for a in r_list:
                ac = pmul(a, c)
                cls.update(dict.fromkeys([pmul(ac, b2) for b2 in r_list], i))
            cosets.append([pmul(c, b2) for b2 in r_list])
        rights.append(right_mul(c))
        if normalizes:
            norm_mask |= 1 << i
    # R . iota is one class, the normalizer's; with exponent two iota is in R
    nor_mask = 1 << cls[iota_p] if iota_p in cls else 0

    masks = []
    for i, right in enumerate(rights):
        m = 1 << i
        todo = [i]
        while todo:
            for q in map(cls.get, map(right, cosets[todo.pop()])):
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


# -- sigma statistics ---------------------------------------------------------


@dataclass(frozen=True)
class SigmaContext:
    """Cosets of a subgroup N with cyclic quotient of order b >= 2.

    gamma[i] is the least-index representative of the i-th power coset,
    so gamma[i] + gamma[j] always lies in the (i+j mod b)-th coset.
    """

    G: AbelianGroup
    N: Subgroup
    b: int
    gammas: tuple[int, ...]
    orbit_masks: tuple[int, ...]


def make_sigma_context(G: AbelianGroup, N: Subgroup) -> SigmaContext:
    if N.parent != G:
        raise DomainError("subgroup belongs to a different group")
    b = G.order // N.order
    if b < 2:
        raise DomainError("quotient must have order at least 2")
    gen = None
    for g in G.elements():
        k = 1
        x = g
        while not N.contains(x):
            x = G.add(x, g)
            k += 1
        if k == b:
            gen = g
            break
    if gen is None:
        raise DomainError("quotient is not cyclic")
    gammas = []
    masks = []
    cur = 0
    for _ in range(b):
        coset = G.translate_mask(N.mask, cur)
        gammas.append((coset & -coset).bit_length() - 1)
        masks.append(coset)
        cur = G.add(cur, gen)
    return SigmaContext(G, N, b, tuple(gammas), tuple(masks))


def sigma(ctx: SigmaContext, S: ConnectionSet | int, u: int, j: int) -> int:
    """Bitmask of S intersected with S+u and the j-th coset."""
    if not 0 <= j < ctx.b:
        raise DomainError(f"coset index {j} out of range")
    mask = S.mask if isinstance(S, ConnectionSet) else S
    return mask & ctx.G.translate_mask(mask, u) & ctx.orbit_masks[j]


def psi_census(
    ctx: SigmaContext, i: int, u: int, v: int, cap: int = 1 << 22
) -> tuple[int, float]:
    """Count inverse-closed S whose sigma sizes at u and v agree off {0, i}.

    Returns (count, bound) with bound = 2^(c(G) - 2b/25 + 1); the bound can
    exceed the total number of sets at small b, in which case it is vacuous.
    """
    G = ctx.G
    if i % ctx.b == 0:
        raise DomainError("i must be nonzero mod b")
    if u == v:
        raise DomainError("u and v must be distinct")
    oi = ctx.orbit_masks[i % ctx.b]
    if not (oi >> u & 1 and oi >> v & 1):
        raise DomainError("u and v must lie in the i-th coset")
    js = [j for j in range(ctx.b) if j != 0 and j != i % ctx.b]
    count = 0
    for mask in inverse_closed_masks(G, cap):
        su = G.translate_mask(mask, u)
        sv = G.translate_mask(mask, v)
        for j in js:
            oj = ctx.orbit_masks[j]
            if (mask & su & oj).bit_count() != (mask & sv & oj).bit_count():
                break
        else:
            count += 1
    full = (1 << G.order) - 1
    bound = 2.0 ** (c_value(G, full) - 2 * ctx.b / 25 + 1)
    return count, bound
