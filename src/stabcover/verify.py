"""Exhaustive small-order verification of the structural counting facts.

Each check sweeps every abelian group up to an order limit and compares a
claimed identity or inclusion against brute force. The checks are shared
by the `check-lemmas` CLI subcommand and the test suite; a failure means
either a bug in the library or a miscounted claim, so failures carry the
offending group and certificate.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .autgrp import automorphism_group
from .census import check_record
from .errors import DomainError, StabcoverError
from .graphs import (
    BiCosetFrame,
    ConnectionSet,
    cayley_graph,
    component_of,
    double_cover,
    verify_bicoset_isomorphism,
)
from .groups import (
    AbelianGroup,
    all_abelian_groups,
    automorphism_group_of_G,
    count_inverse_closed,
    inverse_closed_masks,
    involution_set,
)
from .stability import b0_group, classify, group_context
from .perms import DEFAULT_ENUM_CAP, mul_each


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: case count and failure certificates."""

    name: str
    cases: int
    failures: tuple[str, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def complement_pairs(G: AbelianGroup) -> Iterator[tuple[int, int]]:
    """(S, G - S) as masks, for each inverse-closed S without 0, in turn.

    G - S is inverse-closed with S, and exactly one of the two holds 0,
    so every inverse-closed set lies in exactly one pair.
    """
    full = (1 << G.order) - 1
    return ((mask, full ^ mask) for mask in inverse_closed_masks(G) if not mask & 1)


def check_subset_count(max_order: int = 16) -> CheckResult:
    """Brute-force inverse-closed subset count equals 2^{c(G)}."""
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        cases += 1
        brute = sum(1 for _ in inverse_closed_masks(G))
        if brute != count_inverse_closed(G):
            failures.append(f"{G.spec()}: {brute} != {count_inverse_closed(G)}")
    return CheckResult("inverse-closed-count", cases, tuple(failures))


def stabilized_count(G: AbelianGroup, z: int) -> tuple[int, int | float]:
    """Subsets of G invariant under both translation by z and negation.

    Returns (exact count, 2^(r/4 + |I(G)|/2)): the invariant subsets are
    the unions of orbits of the group generated by x -> x + z and x -> -x.
    The two agree exactly when z is a square in G; otherwise the second
    value is only an upper bound (and can be a non-integer power of 2),
    because no subset orbit pairs x with xz = -x.
    """
    if z == 0 or G.add(z, z) != 0:
        raise DomainError("z must be an involution")
    n = G.order
    # invariant subsets are exactly the unions of orbits of <x+z, -x>
    seen = 0
    orbits = 0
    for x in G.elements():
        if seen >> x & 1:
            continue
        orbits += 1
        frontier = [x]
        seen |= 1 << x
        while frontier:
            y = frontier.pop()
            for w in (G.add(y, z), G.neg(y)):
                if not seen >> w & 1:
                    seen |= 1 << w
                    frontier.append(w)
    count = 1 << orbits
    quarters = n + 2 * involution_set(G).bit_count()
    if quarters % 4 == 0:
        return count, 1 << (quarters // 4)
    return count, 2.0 ** (quarters / 4)


def check_stabilized_counts(max_order: int = 16) -> CheckResult:
    """Translation-and-negation stabilized subsets: formula bounds brute force.

    For each involution z != 0 the brute count must never exceed the
    closed-form 2^{r/4 + |I(G)|/2}, with equality exactly when z has a
    square root in G (the formula's derivation picks such a root, and
    without one the true count is strictly smaller).
    """
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        squares = {G.add(x, x) for x in G.elements()}
        for z in G.elements():
            if z == 0 or G.add(z, z) != 0:
                continue
            cases += 1
            brute, formula = stabilized_count(G, z)
            if brute > formula:
                failures.append(f"{G.spec()} z={z}: {brute} > {formula}")
            if (brute == formula) != (z in squares):
                failures.append(
                    f"{G.spec()} z={z}: equality {brute == formula}, square {z in squares}"
                )
    return CheckResult("stabilized-subset-bound", cases, tuple(failures))


def check_fixed_point_cosets(max_order: int = 12) -> CheckResult:
    """Fixed points of x -> tau(x + g) form a coset of the fixed points of tau.

    One case per holomorph element: every tau in Aut(G) with every g in G.
    A set is always a coset of itself, so this alone cannot tell the fixed
    points of x -> tau(x + g) from those of tau. For each tau the fixed
    point counts must also add up to |G| over g: x is fixed exactly for
    g = tau^-1(x) - x, one g per x.
    """
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        for tau in automorphism_group_of_G(G):
            fix_tau = sum(1 << x for x in G.elements() if tau[x] == x)
            fixed_total = 0
            for g in G.elements():
                cases += 1
                fix = sum(1 << x for x in G.elements() if tau[G.add(x, g)] == x)
                fixed_total += fix.bit_count()
                if fix == 0:
                    continue
                x0 = (fix & -fix).bit_length() - 1
                if G.translate_mask(fix_tau, x0) != fix:
                    failures.append(
                        f"{G.spec()} g={g}: 0x{fix:x} not a coset of 0x{fix_tau:x}"
                    )
            if fixed_total != G.order:
                failures.append(
                    f"{G.spec()} tau={list(tau)}: {fixed_total} fixed points "
                    f"over all g, not {G.order}"
                )
    return CheckResult("fixed-point-cosets", cases, tuple(failures))


def check_cover_decomposition(max_order: int = 10) -> CheckResult:
    """Cover automorphisms split over the block stabilizer.

    For connected non-bipartite graphs the cover is connected and the
    full cover group is exactly twice the block stabilizer B(S), of order
    |G| |B0| (`b0_group`); the cover group here comes from an
    unconstrained search, independent of how the classifier derives it.
    Connectivity and bipartiteness come from one BFS of the component
    of 0, and twin-freeness from a count of row 0, as in `classify`.
    The sets are walked as `complement_pairs`, and B0 is searched at most
    once per pair, since B(S) = B(G - S): the complement's own
    unconstrained search is still compared with it. For twin-free graphs
    no non-identity element of B(S) fixes the + block pointwise: the
    cover automorphisms fixing each + vertex are exactly those elements,
    so a search with every + vertex colored apart must find only the
    identity.
    """
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        n = G.order
        vertices = (1 << n) - 1
        plus_apart = list(range(1, n + 1)) + [0] * n
        for pair in complement_pairs(G):
            b_order = None
            for mask in pair:
                S = ConnectionSet(G, mask)
                gam = cayley_graph(S)
                cover = double_cover(gam)
                tag = f"{G.spec()} 0x{mask:x}"
                component, bipartite = component_of(gam)
                if component == vertices and not bipartite:
                    cases += 1
                    if b_order is None:
                        b_order = n * b0_group(S, cover).order
                    full = automorphism_group(cover)
                    if component_of(cover)[0] != (1 << 2 * n) - 1:
                        failures.append(f"{tag}: cover disconnected")
                    if full.order != 2 * b_order:
                        failures.append(f"{tag}: |Aut(D)|={full.order}, 2|B|={2 * b_order}")
                if gam.rows.count(gam.rows[0]) == 1:
                    cases += 1
                    if automorphism_group(cover, plus_apart).order != 1:
                        failures.append(f"{tag}: non-identity element acts trivially on +")
    return CheckResult("cover-block-stabilizer", cases, tuple(failures))


def check_bicoset_model(max_order: int = 8) -> CheckResult:
    """The cover is the bi-coset graph of (B, H, K, Y) via the orbit map.

    The sets are walked as `complement_pairs`. B(S) = B(G - S) (proved in
    the `census` docstring), and this is checked here, not assumed: B0 is
    searched for both sets and the two must be the same group, with equal
    orders and each generator of the first inside the second, so they have
    the same element set. A mismatch is a failure line. B = R B0 is listed
    as the products of B0's elements with the translation lifts, and one
    `BiCosetFrame` of that listing (X, H, K, their coset representatives
    and the orbit map) serves both sets; only Y and what reads it are built
    per set. The frame is freed before the next pair's searches. Pairs
    with |B| over `DEFAULT_ENUM_CAP` are skipped. A set whose listing or Y
    the model's validation refuses (`DomainError`) is a failure line with
    the refusal.
    """
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        n = G.order
        lifts = group_context(G).translation_lifts
        for masks in complement_pairs(G):
            pair = [ConnectionSet(G, mask) for mask in masks]
            tags = [f"{G.spec()} 0x{S.mask:x}" for S in pair]
            B0, B0c = map(b0_group, pair)
            if B0.order != B0c.order or not all(map(B0c.contains, B0.generators)):
                failures.append(f"{tags[0]}: B0 differs from that of {tags[1]}")
                continue
            if n * B0.order > DEFAULT_ENUM_CAP:
                continue
            cases += 2
            b0_elems = B0.elements()
            try:
                frame = BiCosetFrame(
                    n, tuple(chain.from_iterable(mul_each(b0_elems, r) for r in lifts))
                )
            except DomainError as e:
                failures.extend(f"{tag}: {e}" for tag in tags)
                continue
            for S, tag in zip(pair, tags):
                try:
                    if not verify_bicoset_isomorphism(S, frame):
                        failures.append(tag)
                except DomainError as e:
                    failures.append(f"{tag}: {e}")
            del frame
    return CheckResult("bicoset-model", cases, tuple(failures))


def check_hierarchy(max_order: int = 10) -> CheckResult:
    """Per-record invariants of the classification hierarchy.

    Runs the full classifier over every set of every group of exponent
    greater than two up to the order limit and applies the per-record
    consistency checks (subset inclusions, order identities, and the
    covering of nontrivial instability by the named families).
    """
    failures = []
    cases = 0
    indeterminate = 0
    for G in all_abelian_groups(max_order):
        if G.exponent <= 2:
            continue
        for mask in inverse_closed_masks(G):
            cases += 1
            rec = classify(ConnectionSet(G, mask))
            try:
                check_record(rec)
            except StabcoverError as e:
                failures.append(f"{G.spec()} 0x{mask:x}: {e}")
            if rec.indeterminate:
                indeterminate += 1
    if cases and indeterminate / cases >= 0.05:
        failures.append(f"indeterminate fraction {indeterminate}/{cases} is 5% or more")
    return CheckResult(
        "hierarchy-inclusions",
        cases,
        tuple(failures),
        note=f"indeterminate {indeterminate}/{cases}",
    )


ALL_CHECKS = (
    ("inverse-closed-count", check_subset_count, 16),
    ("stabilized-subset-bound", check_stabilized_counts, 16),
    ("fixed-point-cosets", check_fixed_point_cosets, 12),
    ("cover-block-stabilizer", check_cover_decomposition, 10),
    ("bicoset-model", check_bicoset_model, 8),
    ("hierarchy-inclusions", check_hierarchy, 10),
)


def run_all_checks(order_limit: int = 16) -> list[CheckResult]:
    """Run every check, capping each at min(order_limit, its own ceiling)."""
    return [fn(min(order_limit, cap)) for _, fn, cap in ALL_CHECKS]
