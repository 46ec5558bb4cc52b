"""End-to-end acceptance checks, one per headline property of the library.

Each test prints a single numbered pass/fail line (visible with -s or in
the captured output). The stabilized-subset identity (criterion 2) is a
strict expected failure: the exact count formula only holds when the
chosen involution has a square root, and the honest counterexample is
printed instead of hidden.
"""

import time

import pytest

from helpers import make_sigma_context, psi_census, set_records, subgroups
from stabcover.bounds import default_grid, h_delta_terms, lemma_bound_table
from stabcover.census import exhaustive_census, unlabeled_census
from stabcover.groups import all_abelian_groups, make_group
from stabcover.verify import (
    check_bicoset_model,
    check_cover_decomposition,
    check_fixed_point_cosets,
    check_hierarchy,
    check_subset_count,
    stabilized_count,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _finish(num: int, res) -> None:
    detail = f"{res.name}, {res.cases} cases"
    if res.note:
        detail += f", {res.note}"
    if res.failures:
        detail += f"; first failure: {res.failures[0]}"
    _report(num, res.passed, detail)
    assert res.passed, res.failures


def test_inverse_closed_count_identity():
    _finish(1, check_subset_count(16))


@pytest.mark.xfail(
    strict=True,
    reason="the exact stabilized-subset count only holds for involutions "
    "with a square root; others fall strictly below the formula",
)
def test_stabilized_subset_exact_identity():
    mismatches = []
    cases = 0
    for G in all_abelian_groups(16):
        for z in G.elements():
            if z == 0 or G.add(z, z) != 0:
                continue
            cases += 1
            brute, formula = stabilized_count(G, z)
            if brute != formula:
                mismatches.append(f"{G.spec()} z={z}: {brute} != {formula}")
    _report(
        2,
        not mismatches,
        f"exact stabilized count, {cases} cases; "
        f"{len(mismatches)} mismatches, first: {mismatches[0] if mismatches else '-'}",
    )
    assert not mismatches


def test_cover_group_splits_over_block_stabilizer():
    _finish(3, check_cover_decomposition(10))


def test_cover_matches_bicoset_graph():
    _finish(4, check_bicoset_model(8))


def test_hierarchy_inclusions_exhaustive():
    _finish(5, check_hierarchy(10))


def test_odd_order_groups_have_no_nontrivially_unstable_sets():
    # the stable flag is exact even when the family tri-states are capped,
    # so check it record by record rather than through the outcome buckets
    bad = []
    total = 0
    for facs in [(5,), (7,), (9,), (3, 3), (11,), (13,), (15,)]:
        records = list(set_records(exhaustive_census(make_group(facs))))
        total += len(records)
        bad += [f"{r.group} {r.set.mask:#x}" for r in records
                if not r.stable and not r.trivially_unstable]
    _report(6, not bad, f"7 odd-order censuses, {total} sets; offenders: {bad or '-'}")
    assert not bad


def test_holomorph_fixed_points_form_cosets():
    _finish(7, check_fixed_point_cosets(12))


def test_agreement_count_bound():
    failures = []
    cases = vacuous = 0
    for order in range(3, 13):
        G = make_group([order])
        total = 1 << ((order + sum(1 for x in G.elements() if G.add(x, x) == 0)) // 2)
        for N in subgroups(G):
            size = N.mask.bit_count()
            if size == 0 or order // size < 3 or size == order:
                continue
            ctx = make_sigma_context(G, N)
            for i in range(1, ctx.b):
                members = [x for x in G.elements() if ctx.orbit_masks[i] >> x & 1]
                for a in range(len(members)):
                    for b in range(a + 1, len(members)):
                        cases += 1
                        count, bound = psi_census(ctx, i, members[a], members[b])
                        if bound >= total:
                            vacuous += 1
                        elif count > bound:
                            failures.append(
                                f"C{order} |N|={size} i={i}: {count} > {bound}"
                            )
    _report(
        8,
        not failures,
        f"agreement-count bound, {cases} cases ({vacuous} vacuous, flagged only); "
        f"failures: {failures or '-'}",
    )
    assert not failures


def test_bound_terms_and_assembly():
    failures = []
    for r in (50_000, 100_000, 1_000_000):
        first, second = h_delta_terms(r, 0.001)
        if not first < second:
            failures.append(f"terms at r={r}")
    grid = default_grid()
    for r, delta in grid:
        if not lemma_bound_table(r, delta).component_sum_le_h:
            failures.append(f"component sum at r={r} delta={delta}")
    _report(
        9,
        not failures,
        f"term comparison at 3 points, component sum on {len(grid)} grid points; "
        f"failures: {failures or '-'}",
    )
    assert not failures


def test_unlabeled_counts_bounded_by_holomorph_orbits():
    bad = []
    cases = 0
    for G in all_abelian_groups(10):
        if G.exponent <= 2:
            continue
        cases += 1
        rep = unlabeled_census(exhaustive_census(G))
        if not (rep.lower_bound_holds and rep.good_classes_are_hol_orbits):
            bad.append(rep.group)
    _report(10, not bad, f"unlabeled censuses of {cases} groups; offenders: {bad or '-'}")
    assert not bad


def test_census_is_deterministic_across_workers():
    G = make_group([2, 10])
    t0 = time.monotonic()
    base = exhaustive_census(G, workers=1)
    wall = time.monotonic() - t0
    sigs = {base.signature()}
    for w in (4, 8):
        sigs.add(exhaustive_census(G, workers=w).signature())
    ok = len(sigs) == 1 and base.total == 4096 and wall < 60
    _report(
        11,
        ok,
        f"C2xC10 census of {base.total} sets, {len(sigs)} distinct signature(s) "
        f"over workers 1/4/8, single-threaded wall {wall:.1f}s",
    )
    assert ok
