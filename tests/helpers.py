"""Helpers shared by the tests; the package has no use for them.

Besides a graph helper, this holds two reference implementations the
tests compare against, Aut(G) by brute force and the subgroup lattice,
and the sigma statistics on cosets of a subgroup with cyclic quotient and
the Psi coincidence census, which the acceptance and stability tests
check against the agreement-count bound.
"""

import itertools
from dataclasses import dataclass

from stabcover.errors import DomainError
from stabcover.graphs import ConnectionSet
from stabcover.groups import (
    AbelianGroup,
    c_value,
    close_subgroup,
    inverse_closed_masks,
)
from stabcover.perms import as_perm


def has_edge(g, u: int, v: int) -> bool:
    """Whether u ~ v in the LabeledGraph g (u == v asks for a loop)."""
    return bool((g.rows[u] >> v) & 1)


# -- reference implementations ------------------------------------------------


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
