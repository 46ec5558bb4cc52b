"""Exhaustive small-order verification of the structural counting facts.

Each check sweeps every abelian group up to an order limit and compares a
claimed identity or inclusion against brute force. The checks are shared
by the `check-lemmas` CLI subcommand and the test suite; a failure means
either a bug in the library or a miscounted claim, so failures carry the
offending group and certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgrp import automorphism_group
from .census import check_record, stabilized_count
from .errors import StabcoverError
from .graphs import (
    ConnectionSet,
    cayley_graph,
    double_cover,
    is_bipartite,
    is_connected,
    is_twin_free,
    verify_bicoset_isomorphism,
)
from .groups import (
    AbelianGroup,
    all_abelian_groups,
    count_inverse_closed,
    fixed_points,
    holomorph,
    inverse_closed_masks,
)
from .stability import b_group, classify
from .perms import DEFAULT_ENUM_CAP


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
    """Fixed points of x -> tau(x + g) form a coset of the fixed points of tau."""
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        for alpha in holomorph(G):
            cases += 1
            fix = fixed_points(G, alpha)
            if fix == 0:
                continue
            tau_only = type(alpha)(G, 0, alpha.twist)
            fix_tau = fixed_points(G, tau_only)
            x0 = (fix & -fix).bit_length() - 1
            if G.translate_mask(fix_tau, x0) != fix:
                failures.append(
                    f"{G.spec()} g={alpha.translation}: 0x{fix:x} not a coset of 0x{fix_tau:x}"
                )
    return CheckResult("fixed-point-cosets", cases, tuple(failures))


def check_cover_decomposition(max_order: int = 10) -> CheckResult:
    """Cover automorphisms split over the block stabilizer.

    For connected non-bipartite graphs the cover is connected and the
    full cover group is exactly twice the block stabilizer B(S); the
    cover group here comes from an unconstrained search, independent of
    how the classifier derives it. For twin-free graphs no non-identity
    element of B(S) fixes the + block pointwise: the cover automorphisms
    fixing each + vertex are exactly those elements, so a search with
    every + vertex colored apart must find only the identity.
    """
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        n = G.order
        plus_points = [[v] for v in range(n)]
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            gam = cayley_graph(G, S)
            conn, bip = is_connected(gam), is_bipartite(gam)
            cover = double_cover(gam)
            B = b_group(G, S, cover)
            tag = f"{G.spec()} 0x{mask:x}"
            if conn and not bip:
                cases += 1
                full = automorphism_group(cover)
                if not is_connected(cover):
                    failures.append(f"{tag}: cover disconnected")
                if full.order != 2 * B.order:
                    failures.append(f"{tag}: |Aut(D)|={full.order}, 2|B|={2 * B.order}")
            if is_twin_free(gam):
                cases += 1
                if automorphism_group(cover, fixed_blocks=plus_points).order != 1:
                    failures.append(f"{tag}: non-identity element acts trivially on +")
    return CheckResult("cover-block-stabilizer", cases, tuple(failures))


def check_bicoset_model(
    max_order: int = 8, b_cap: int = 20_000
) -> CheckResult:
    """The cover is the bi-coset graph of (B, H, K, Y) via the orbit map."""
    failures = []
    cases = 0
    for G in all_abelian_groups(max_order):
        for mask in inverse_closed_masks(G):
            S = ConnectionSet(G, mask)
            B = b_group(G, S)
            if B.order > b_cap:
                continue
            cases += 1
            if not verify_bicoset_isomorphism(G, S, B, cap=b_cap):
                failures.append(f"{G.spec()} 0x{mask:x}")
    return CheckResult("bicoset-model", cases, tuple(failures))


def check_hierarchy(
    max_order: int = 10,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> CheckResult:
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
            rec = classify(G, ConnectionSet(G, mask), enum_cap)
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
