"""Finite abelian groups in invariant-factor form.

Groups are additive. Elements are identified with indices 0..r-1,
lexicographic on coordinate tuples, so index 0 is the identity. Subsets of
the group are passed around as integer bitmasks over element indices.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import CapExceededError, DomainError
from .perms import as_perm, pmul

# most automorphisms `automorphism_group_of_G` lists: C16xC32 lists its
# 32 768 in 2.5 s and 146 MB
DEFAULT_AUT_CAP = 32_768
# most elements `holomorph` lists
HOLOMORPH_CAP = 32_768
# largest order with an addition table
ADDITION_TABLE_ORDER = 1024
# most inverse-closed sets a census or an enumeration walks through
DEFAULT_SET_CAP = 1 << 30


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def normalize_invariant_factors(factors: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Reduce an arbitrary list of cyclic factors to the invariant-factor chain.

    Elementary-divisor merging: split every factor into prime powers, then
    recombine taking the largest power of each prime into the last invariant
    factor, the second largest into the one before, and so on.
    """
    for d in factors:
        if d <= 0:
            raise DomainError(f"cyclic factor must be positive, got {d}")
    by_prime: dict[int, list[int]] = {}
    for d in factors:
        if d == 1:
            continue
        for p, e in _prime_factorization(d).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max(len(v) for v in by_prime.values())
    chain = []
    for i in range(depth):
        d = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class AbelianGroup:
    """An abelian group ``C_{d1} x ... x C_{dk}`` with ``d_i | d_{i+1}``.

    Instances are immutable. The coordinate and negation tables are built
    on construction; the addition table and the masks of `translate_mask`
    on first use (the addition table only up to order 1024). Use
    :func:`make_group` rather than the constructor so arbitrary factor
    lists get normalized first.
    """

    invariant_factors: tuple[int, ...]
    _coords: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())
    _neg: tuple[int, ...] = field(repr=False, compare=False, default=())
    _sum: list | None = field(repr=False, compare=False, default=None)
    _low_masks: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        facs = self.invariant_factors
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise DomainError(f"not a divisibility chain: {facs}")
        coords = tuple(itertools.product(*[range(d) for d in facs])) if facs else ((),)
        object.__setattr__(self, "_coords", coords)
        neg = tuple(self.index(tuple((-c) % d for c, d in zip(t, facs))) for t in coords)
        object.__setattr__(self, "_neg", neg)

    @property
    def order(self) -> int:
        return len(self._coords)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def coords(self, i: int) -> tuple[int, ...]:
        return self._coords[i]

    def index(self, coords: tuple[int, ...]) -> int:
        idx = 0
        for c, d in zip(coords, self.invariant_factors):
            idx = idx * d + (c % d)
        return idx

    def add(self, i: int, j: int) -> int:
        return (self._sum or self.addition_rows())[i][j]

    def addition_rows(self) -> list[list[int]]:
        """The addition table, row a listing a + x for every x; refused above order 1024."""
        if self._sum is None:
            if self.order > ADDITION_TABLE_ORDER:
                raise CapExceededError("addition table, |G|", self.order, ADDITION_TABLE_ORDER)
            object.__setattr__(self, "_sum", self._addition_table())
        return self._sum

    def _addition_table(self) -> list[list[int]]:
        """Row a lists a + x for every x; built once, for small groups.

        The row of each canonical generator e comes from coordinates; the
        row of a + e is then the row of a read through the row of e, since
        (a + x) + e = a + e + x, so a breadth-first walk from 0 along the
        generators reaches every row with one `map` each.
        """
        idx, coords = self.index, self._coords
        gen_rows = []
        for pos in range(self.rank):
            gen_rows.append(
                [idx(c[:pos] + (c[pos] + 1,) + c[pos + 1:]) for c in coords]
            )
        tab: list = [None] * self.order
        tab[0] = list(range(self.order))
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                row_a = tab[a]
                for row_e in gen_rows:
                    b = row_e[a]
                    if tab[b] is None:
                        tab[b] = list(map(row_e.__getitem__, row_a))
                        nxt.append(b)
            frontier = nxt
        return tab

    def neg(self, i: int) -> int:
        return self._neg[i]

    def scalar_mul(self, k: int, i: int) -> int:
        return self.index(tuple(k * c for c in self._coords[i]))

    def generators(self) -> tuple[int, ...]:
        """One canonical generator per invariant factor (the unit vectors)."""
        k = self.rank
        gens = []
        for pos in range(k):
            t = tuple(1 if j == pos else 0 for j in range(k))
            gens.append(self.index(t))
        return tuple(gens)

    def elements(self) -> range:
        return range(self.order)

    def translate_mask(self, mask: int, t: int) -> int:
        """Image of a subset under x -> x + t.

        Index x has coordinate c_i at stride s_i, the product of the
        factors after d_i. Adding t_i to coordinate i rotates the blocks
        of s_i bits inside each run of d_i s_i bits by t_i places: the bits
        with c_i < d_i - t_i move up by t_i s_i, the others down by
        (d_i - t_i) s_i. So the image is one masked rotation per nonzero
        coordinate of t.
        """
        facs = self.invariant_factors
        stride = self.order
        for d, c in zip(facs, self._coords[t]):
            stride //= d
            if c:
                low = self._low_mask(d, stride, d - c)
                mask = (mask & low) << (c * stride) | (mask & ~low) >> ((d - c) * stride)
        return mask

    def _low_mask(self, d: int, stride: int, k: int) -> int:
        """Indices whose coordinate at (factor d, stride) is below k.

        Within each run of d * stride indices these are the k * stride
        lowest; the runs repeat at that period, so the mask is the block
        (1 << k * stride) - 1 times the repunit with one bit per run.
        Built on first use and kept.
        """
        key = (d, stride, k)
        mask = self._low_masks.get(key)
        if mask is None:
            period = d * stride
            repunit = ((1 << self.order) - 1) // ((1 << period) - 1)
            mask = self._low_masks[key] = ((1 << (k * stride)) - 1) * repunit
        return mask

    def neg_mask(self, mask: int) -> int:
        return map_mask(mask, self._neg)

    def spec(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{d}" for d in self.invariant_factors)

    def __str__(self) -> str:
        return self.spec()


def make_group(invariant_factors: list[int] | tuple[int, ...]) -> AbelianGroup:
    """Build an abelian group from any list of cyclic factors."""
    return AbelianGroup(normalize_invariant_factors(invariant_factors))


_SPEC_RE = re.compile(r"^c(\d+)$", re.IGNORECASE)


def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse the ``C<n>`` / ``C<n>xC<m>`` grammar (case-insensitive)."""
    parts = re.split("[xX]", spec.strip())
    factors = []
    for part in parts:
        m = _SPEC_RE.match(part.strip())
        if not m:
            raise DomainError(f"bad group spec {spec!r}: cannot parse {part!r}")
        factors.append(int(m.group(1)))
    return make_group(factors)


def _partitions(n: int, largest: int | None = None):
    """All descending partitions of n."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for k in range(top, 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def all_abelian_groups(max_order: int) -> list[AbelianGroup]:
    """One group per isomorphism type, every order from 1 to max_order.

    For each prime power p^e in the order, an abelian group picks a
    partition of e; the groups of order n are all combinations of such
    picks across the primes dividing n.
    """
    if max_order < 1:
        raise DomainError("max_order must be at least 1")
    out = []
    for n in range(1, max_order + 1):
        choices = [
            [tuple(p**part for part in parts) for parts in _partitions(e)]
            for p, e in sorted(_prime_factorization(n).items())
        ]
        for combo in itertools.product(*choices):
            out.append(make_group([q for block in combo for q in block]))
    return out


def involution_set(G: AbelianGroup) -> int:
    """Bitmask of all x with 2x = 0, identity included: those with x = -x."""
    return sum(1 << x for x in G.elements() if G.neg(x) == x)


def count_inverse_closed(G: AbelianGroup) -> int:
    """2^{c(G)}, the number of inverse-closed subsets of G.

    c(G) = (|G| + |I(G)|) / 2 counts the orbits of x -> -x: the
    involutions and 0 are fixed, every other element pairs with its
    negative.
    """
    return 1 << (G.order + involution_set(G).bit_count()) // 2


def negation_orbits(G: AbelianGroup) -> list[int]:
    """Orbits of x -> -x on G, as bit masks.

    Singletons for involutions (and 0), else pairs, ordered by smallest
    member; their count is c(G).
    """
    orbits = []
    seen = 0
    for x in G.elements():
        if seen >> x & 1:
            continue
        orbit = (1 << x) | (1 << G.neg(x))
        orbits.append(orbit)
        seen |= orbit
    return orbits


def inverse_closed_masks(G: AbelianGroup, cap: int = DEFAULT_SET_CAP):
    """All inverse-closed subsets as bitmasks, exactly once, in a fixed order.

    Subsets correspond to independent binary choices over negation orbits;
    bit k of the counter selects the k-th orbit.
    """
    orbits = negation_orbits(G)
    total = 1 << len(orbits)
    if total > cap:
        raise CapExceededError("inverse-closed enumeration", total, cap)
    for idx in range(total):
        yield mask_union(orbits, idx)


def mask_union(masks: list[int], selector: int) -> int:
    """Union of masks[k] over the set bits k of selector."""
    out = 0
    while selector:
        low = selector & -selector
        out |= masks[low.bit_length() - 1]
        selector ^= low
    return out


def map_mask(mask: int, image) -> int:
    """Image of a subset under the map x -> image[x]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << image[low.bit_length() - 1]
        mask ^= low
    return out


def bit_indices(mask: int) -> list[int]:
    """The set bits of mask, in increasing order: a subset's members."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def automorphism_count(G: AbelianGroup) -> int:
    """|Aut(G)| in closed form, listing nothing.

    Aut(G) is the product of the Aut(G_p) over the Sylow subgroups G_p
    (C. J. Hillar and D. L. Rhea, *Automorphisms of finite abelian
    groups*, Amer. Math. Monthly 114, 2007). For G_p = C_{p^e_1} x ... x
    C_{p^e_k} with e_1 <= ... <= e_k, let d_j be the largest and c_j the
    smallest l with e_l = e_j. Then

      |Aut(G_p)| = prod_j (p^d_j - p^(j-1))
                   * prod_j p^(e_j (k - d_j))
                   * prod_j p^((e_j - 1) (k - c_j + 1)),

    products over j = 1..k. A cyclic C_r gets phi(r), and C_p^k gets
    |GL(k, p)|. Each invariant factor splits into prime powers, and along
    the divisibility chain each prime's exponents do not decrease.
    """
    exps: dict[int, list[int]] = {}
    for d in G.invariant_factors:
        for p, e in _prime_factorization(d).items():
            exps.setdefault(p, []).append(e)
    count = 1
    for p, es in exps.items():
        k = len(es)
        for j, e in enumerate(es, 1):
            d, c = k - es[::-1].index(e), es.index(e) + 1
            count *= (p**d - p ** (j - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
    return count


def automorphism_group_of_G(G: AbelianGroup) -> list:
    """All automorphisms of G, as `perms.as_perm` image tables.

    |Aut(G)| is capped before any listing, by `automorphism_count`: the
    listing costs |Aut(G)| tables of |G| entries, and C2^6, with
    2.0 10^10 automorphisms, is refused at once, and `addition_rows`
    refuses an order past the addition table.

    A backtrack over the images of the canonical generators e_1, ..., e_k,
    from the last up; the image of e_i must have order dividing d_i.
    Indices are lexicographic, so the subgroup <e_i, ..., e_k> is the first
    d_i * ... * d_k indices, and its table is d_i copies of the table of
    <e_{i+1}, ..., e_k>: the c-th copy is the one before read through the
    addition row of tau(e_i), that is shifted by c tau(e_i). The copies are
    cosets of the image H of the smaller table, so a value first repeats
    at the start of a copy, and a candidate is rejected when some
    c tau(e_i) with 0 < c < d_i lies in H. Each leaf is then an injective
    homomorphism on G, a bijection, and every automorphism is one leaf.
    """
    count = automorphism_count(G)
    if count > DEFAULT_AUT_CAP:
        raise CapExceededError(
            f"automorphism enumeration, |Aut({G.spec()})|", count, DEFAULT_AUT_CAP
        )
    rows = G.addition_rows()
    facs = G.invariant_factors
    candidates = [[x for x in G.elements() if G.scalar_mul(d, x) == 0] for d in facs]
    out = []

    def extend(i: int, table: list[int]) -> None:
        if i < 0:
            out.append(as_perm(table))
            return
        image = set(table)
        for img in candidates[i]:
            row = rows[img]
            shift, grown, block = img, list(table), table
            for _ in range(facs[i] - 1):
                if shift in image:
                    break
                block = [row[t] for t in block]
                grown += block
                shift = row[shift]
            else:
                extend(i - 1, grown)

    extend(G.rank - 1, [0])
    return out


def holomorph(G: AbelianGroup) -> list:
    """All elements of Hol(G) = R(G) x| Aut(G): the tables of x -> tau(x + g)."""
    auts = automorphism_group_of_G(G)
    size = G.order * len(auts)
    if size > HOLOMORPH_CAP:
        raise CapExceededError("holomorph enumeration", size, HOLOMORPH_CAP)
    shifts = [as_perm(row) for row in G.addition_rows()]
    return [pmul(shift, tau) for tau in auts for shift in shifts]
