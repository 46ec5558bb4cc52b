"""Permutations on indexed points and permutation groups.

Permutations are stored as image arrays: `bytes` up to degree 256, so
products compile down to `bytes.translate`, and tuples above that. Only
`as_perm` and `identity_perm` choose the representation, and only the
product primitives `pmul`, `pinv`, `mul_each`, `mul_table` and
`left_mul` read it (`pad_table` is their helper). Every other piece of
code, `PermutationGroup` included, multiplies through these primitives
and runs unchanged on either representation.

`mul_each(ps, q)` is the one right product of a whole sequence by a
fixed q: `map(bytes.translate, ps, repeat(table))` with q's table padded
once, so each product is one C call with no Python frame. Mapping a
method caller of `translate` over ps instead costs more than twice as
much per product, since every call looks `translate` up by name and
builds a bound method.

Groups carry a lazily-built stabilizer chain giving order, membership,
and bounded element enumeration. A group is always built from a base
relative to which its generators are strong; in the package only
`autgrp.automorphism_group` builds one, from its search's first path.
Each level of the chain is then one orbit enumeration, with no Schreier
generator sifted; deterministic Schreier-Sims survives only as the
tests' reference, whose strong generating set and base this class takes
like any other. The chain, and so the enumeration order, is reproducible
for a fixed generator list and base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .errors import CapExceededError, DomainError

DEFAULT_ENUM_CAP = 20_000

Perm = bytes  # degree <= 256; tuples are used transparently above that


def as_perm(images, degree: int | None = None):
    """Validate and pack an image array."""
    n = len(images)
    if degree is not None and n != degree:
        raise DomainError(f"degree mismatch: got {n}, expected {degree}")
    if set(images) != set(range(n)):
        raise DomainError("images are not a bijection")
    if n <= 256:
        return bytes(images)
    return tuple(images)


_ID_CACHE: dict[int, Perm] = {}


def identity_perm(n: int):
    p = _ID_CACHE.get(n)
    if p is None:
        p = _ID_CACHE[n] = as_perm(range(n))
    return p


_IDENT256 = bytes(range(256))
_TAILS = {256: b""}


def pad_table(q: bytes) -> bytes:
    """Full 256-entry translate table acting as q on its own points."""
    tail = _TAILS.get(len(q))
    if tail is None:
        tail = _TAILS.setdefault(len(q), _IDENT256[len(q):])
    return q + tail


def pmul(p, q):
    """Apply p first, then q: (x^(pq)) = (x^p)^q."""
    if isinstance(p, bytes):
        return p.translate(pad_table(q))
    return tuple(q[i] for i in p)


def pinv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return bytes(out) if isinstance(p, bytes) else tuple(out)


def mul_each(ps, q):
    """The products pmul(p, q) for p in ps, in order, as an iterator.

    For bytes, q's translate table is padded once and the products run as
    one `map(bytes.translate, ...)` (see the module docstring).
    """
    if isinstance(q, bytes):
        return map(bytes.translate, ps, repeat(pad_table(q)))
    image = q.__getitem__
    return (tuple(map(image, p)) for p in ps)


def mul_table(q):
    """q prepared as the argument of `left_mul`: padded to 256 when bytes."""
    return pad_table(q) if isinstance(q, bytes) else q


def left_mul(p):
    """The map mul_table(q) -> pmul(p, q), for one fixed p on the left.

    For loops that multiply one p by many q whose tables are built once:
    `map(left_mul(p), tables)` is one `bytes.translate` per product.
    """
    if isinstance(p, bytes):
        return p.translate
    return lambda q: tuple(map(q.__getitem__, p))


@dataclass
class _Level:
    point: int
    orbit: dict[int, Perm]  # image -> transversal u with point^u = image


class PermutationGroup:
    """Permutation group with a stabilizer chain (see the module docstring).

    The caller guarantees that the generators are strong for base: for
    every i the generators fixing base[:i] pointwise generate the
    pointwise stabilizer of base[:i], and only the identity fixes all of
    base. The chain is then read off by orbit enumeration alone.
    """

    def __init__(self, degree: int, generators, base):
        self.degree = degree
        self.generators: list[Perm] = []
        for g in generators:
            g = as_perm(g, degree)
            if g != identity_perm(degree) and g not in self.generators:
                self.generators.append(g)
        self._base = list(base)
        self._chain: list[_Level] | None = None
        self._order: int | None = None

    # -- chain construction -------------------------------------------------

    def _build(self) -> list[_Level]:
        """One level per base point with a nontrivial orbit, by orbit BFS.

        The transversal of level i is built from the generators fixing
        base[:i] pointwise; by the strong generating property they reach
        the whole orbit of base[i] under the stabilizer of base[:i].
        """
        if self._chain is not None:
            return self._chain
        levels = self._chain = []
        ident = identity_perm(self.degree)
        # (generator, its table) for the generators fixing the base points
        # passed so far
        gens = [(s, mul_table(s)) for s in self.generators]
        for point in self._base:
            if not gens:
                break
            orbit = {point: ident}
            pts = [point]
            for pt in pts:
                u_mul = left_mul(orbit[pt])
                for s, st in gens:
                    img = s[pt]
                    if img in orbit:
                        continue
                    orbit[img] = u_mul(st)
                    pts.append(img)
            if len(orbit) > 1:
                levels.append(_Level(point, orbit))
            gens = [g for g in gens if g[0][point] == point]
        self._order = math.prod(len(lvl.orbit) for lvl in levels)
        return levels

    def _sift(self, g: Perm) -> Perm:
        for lvl in self._build():
            img = g[lvl.point]
            if img == lvl.point:
                continue
            u = lvl.orbit.get(img)
            if u is None:
                return g
            g = pmul(g, pinv(u))
        return g

    # -- queries ------------------------------------------------------------

    @property
    def order(self) -> int:
        self._build()
        assert self._order is not None
        return self._order

    def contains(self, p) -> bool:
        return self._sift(as_perm(p, self.degree)) == identity_perm(self.degree)

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> list[Perm]:
        """All elements via transversal products, each exactly once."""
        if self.order > cap:
            raise CapExceededError("group enumeration", self.order, cap)
        out = [identity_perm(self.degree)]
        for lvl in reversed(self._build()):
            transversal = [lvl.orbit[pt] for pt in sorted(lvl.orbit)]
            out = list(chain.from_iterable(mul_each(out, t) for t in transversal))
        return out

