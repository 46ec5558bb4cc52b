"""Helpers shared by the tests; the package has no use for them.

Besides a graph helper, this holds the reference implementations the
tests compare against: deterministic Schreier-Sims, the whole block
stabilizer B(S) by one search, Aut(G) by brute force, the subgroup
lattice and the per-set census records. It also
holds the sigma statistics on cosets of a subgroup with cyclic quotient
and the Psi coincidence census, which the acceptance and stability
tests check against the agreement-count bound.
"""

import itertools
from dataclasses import dataclass, replace

from stabcover.autgrp import automorphism_group
from stabcover.errors import DomainError
from stabcover.graphs import ConnectionSet, cayley_graph, double_cover
from stabcover.groups import (
    AbelianGroup,
    c_value,
    close_subgroup,
    inverse_closed_masks,
)
from stabcover.perms import PermutationGroup, as_perm, identity_perm, pinv, pmul
from stabcover.stability import group_context


def has_edge(g, u: int, v: int) -> bool:
    """Whether u ~ v in the LabeledGraph g (u == v asks for a loop)."""
    return bool((g.rows[u] >> v) & 1)


# -- reference implementations ------------------------------------------------


def schreier_sims(degree: int, generators) -> tuple[list, list[int]]:
    """A strong generating set and a base of the group the generators generate.

    Deterministic Schreier-Sims. A generator sifted from level k stops at
    level j with a residue fixing base[:j]. A residue other than the
    identity joins the generators of levels k to j, opening a new level at
    its least moved point when j is past the last, and those levels'
    orbits are closed again, deepest first, each Schreier generator of
    level m sifted from level m + 1. At the end the generators of level i
    fix base[:i] and generate its pointwise stabilizer, so all of them
    together are strong for the base, as `PermutationGroup` requires.
    """
    ident = identity_perm(degree)
    base: list[int] = []
    level_gens: list[list] = []
    # per level: image -> transversal element u with base point^u = image
    orbits: list[dict] = []

    def sift(g, start):
        for i in range(start, len(base)):
            u = orbits[i].get(g[base[i]])
            if u is None:
                return g, i
            g = pmul(g, pinv(u))
        return g, len(base)

    def incorporate(g, level):
        h, j = sift(g, level)
        if h == ident:
            return
        if j == len(base):
            point = min(p for p in range(degree) if h[p] != p)
            base.append(point)
            level_gens.append([])
            orbits.append({point: ident})
        for m in range(level, j + 1):
            level_gens[m].append(h)
        for m in range(j, level - 1, -1):
            close(m)

    def close(m):
        orbit = orbits[m]
        pts = list(orbit)
        for pt in pts:
            for s in level_gens[m]:
                img = s[pt]
                v = pmul(orbit[pt], s)
                if img not in orbit:
                    orbit[img] = v
                    pts.append(img)
                else:
                    incorporate(pmul(v, pinv(orbit[img])), m + 1)

    for g in generators:
        incorporate(as_perm(g, degree), 0)
    strong = list(dict.fromkeys(s for gens in level_gens for s in gens))
    return strong, base


def reference_group(degree: int, generators) -> PermutationGroup:
    """The group the generators generate, its chain read off `schreier_sims`."""
    return PermutationGroup(degree, *schreier_sims(degree, generators))


def b_group(G: AbelianGroup, S: ConnectionSet, cover=None) -> PermutationGroup:
    """B(S), the + block stabilizer of the cover, searched whole.

    The cover is colored by block and seeded with the lifted translations
    by G's generators and the lifted inversion. The package never builds
    B(S): it searches B0 and takes B(S) = R B0, which this checks. A
    caller that has already built the double cover passes it as `cover`.
    """
    ctx = group_context(G)
    if cover is None:
        cover = double_cover(cayley_graph(G, S))
    seeds = [ctx.translation_lifts[g] for g in G.generators()] + [ctx.inversion_lift]
    return automorphism_group(
        cover, fixed_blocks=[list(range(G.order))], known_automorphisms=seeds
    )


def brute_automorphisms(G: AbelianGroup) -> list:
    """Aut(G) as `as_perm` tables, by brute force over generator images.

    The image of the i-th canonical generator must have order dividing
    d_i; every such tuple of candidates is extended linearly and kept when
    the extension is a bijection.
    """
    candidates = [
        [x for x in G.elements() if G.scalar_mul(d, x) == 0] for d in G.invariant_factors
    ]
    out = []
    for images in itertools.product(*candidates):
        table = []
        for i in G.elements():
            y = 0
            for c, img in zip(G.coords(i), images):
                y = G.add(y, G.scalar_mul(c, img))
            table.append(y)
        if len(set(table)) == G.order:
            out.append(as_perm(table))
    return out


def set_records(report):
    """One record per set of an exhaustive census, in the order of
    `inverse_closed_masks`, each member of an orbit given its orbit's
    record with its own connection set; none for a Monte-Carlo report.
    The reference for `CensusReport.record_lines`.
    """
    if not report.orbit_records:
        return
    G = report.orbit_records[0][1].set.group
    by_mask = {mask: rec for orbit, rec in report.orbit_records for mask in orbit}
    for mask in inverse_closed_masks(G):
        rec = by_mask[mask]
        yield rec if rec.set.mask == mask else replace(rec, set=ConnectionSet(G, mask))


@dataclass(frozen=True)
class Subgroup:
    parent: AbelianGroup
    mask: int
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)


def subgroups(G: AbelianGroup) -> list[Subgroup]:
    """All subgroups of G, each exactly once.

    Closure-adjoin BFS: repeatedly extend known subgroups by one element.
    """
    seen: dict[int, tuple[int, ...]] = {1: ()}
    frontier = [(1, ())]
    while frontier:
        nxt = []
        for mask, gens in frontier:
            for x in G.elements():
                if mask >> x & 1:
                    continue
                new_gens = gens + (x,)
                new_mask = close_subgroup(G, new_gens)
                if new_mask not in seen:
                    seen[new_mask] = new_gens
                    nxt.append((new_mask, new_gens))
        frontier = nxt
    out = [Subgroup(G, m, g) for m, g in seen.items()]
    out.sort(key=lambda s: (s.order, s.mask))
    return out


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
