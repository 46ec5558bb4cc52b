"""Census tallies, sampling determinism, and unlabeled counting."""

import dataclasses
import math

import pytest

from stabcover import census, groups, stability
from stabcover.census import (
    BUCKETS,
    CensusReport,
    _tally,
    check_record,
    exhaustive_census,
    hol_orbits,
    monte_carlo_census,
    stabilized_count,
    unlabeled_census,
)
from stabcover.errors import DomainError, StabcoverError
from stabcover.graphs import ConnectionSet
from stabcover.groups import (
    all_abelian_groups,
    count_inverse_closed,
    inverse_closed_masks,
    make_group,
)
from stabcover.stability import classify, group_context

# tallies confirmed by the per-set classifications tested against the
# subgroup-lattice and automorphism brute-force oracles
C5_COUNTS = {
    "disconnected": 2,
    "connected-bipartite": 0,
    "not-twin-free": 2,
    "s1": 5,
    "s2": 4,
    "s3": 1,
    "s3prime": 4,
    "s4": 0,
    "s5": 1,
    "stable": 5,
    "trivially-unstable": 3,
    "nontrivially-unstable": 0,
    "indeterminate": 0,
}
C7_COUNTS = {
    "disconnected": 2,
    "connected-bipartite": 0,
    "not-twin-free": 2,
    "s1": 13,
    "s2": 12,
    "s3": 1,
    "s3prime": 4,
    "s4": 0,
    "s5": 0,
    "stable": 13,
    "trivially-unstable": 3,
    "nontrivially-unstable": 0,
    "indeterminate": 0,
}

C2XC2XC4_COUNTS = {
    "disconnected": 512,
    "connected-bipartite": 203,
    "not-twin-free": 512,
    "s1": 3080,
    "s2": 0,
    "s3": 3080,
    "s3prime": 4096,
    "s4": 0,
    "s5": 1344,
    "stable": 272,
    "trivially-unstable": 1016,
    "nontrivially-unstable": 2112,
    "indeterminate": 696,
}


def _brute_stabilized(G, z):
    count = 0
    for m in range(1 << G.order):
        if G.translate_mask(m, z) == m and G.neg_mask(m) == m:
            count += 1
    return count


def test_stabilized_count_values():
    cases = [
        ((4,), 2, 4, 4),
        ((2, 2), 1, 4, 8),
        ((8,), 4, 8, 8),
    ]
    for facs, z, want_brute, want_formula in cases:
        G = make_group(facs)
        brute, formula = stabilized_count(G, z)
        assert brute == want_brute and formula == want_formula
        assert brute == _brute_stabilized(G, z)
    # non-integer formula exponent: strict bound, no equality possible
    C6 = make_group([6])
    brute, formula = stabilized_count(C6, 3)
    assert brute == 4 == _brute_stabilized(C6, 3)
    assert formula == 2.0 ** 2.5


def test_stabilized_count_validation():
    G = make_group([6])
    with pytest.raises(DomainError):
        stabilized_count(G, 0)
    with pytest.raises(DomainError):
        stabilized_count(G, 1)


def test_exhaustive_census_c5_c7():
    r5 = exhaustive_census(make_group([5]))
    assert r5.total == r5.examined == 8
    assert r5.counts == C5_COUNTS
    r7 = exhaustive_census(make_group([7]))
    assert r7.counts == C7_COUNTS
    assert r7.proportion("stable") == 13 / 16


def test_exhaustive_census_worker_independence():
    # C2xC6 has a nontrivial Aut(G), so the orbit list spans many shards
    for facs in ([7], [2, 6]):
        G = make_group(facs)
        reps = [exhaustive_census(G, workers=w) for w in (1, 2, 3)]
        assert len({(r.signature(), r.classified) for r in reps}) == 1


def _per_set_oracle(G, **caps):
    """Plain `classify` on every set: records by mask and their tally."""
    records, counts = {}, {k: 0 for k in BUCKETS}
    for mask in inverse_closed_masks(G):
        rec = classify(G, ConnectionSet(G, mask), **caps)
        check_record(rec)
        _tally(counts, rec)
        records[mask] = rec
    return records, counts


def _orbit_census_against_oracle(G, **caps):
    records = []
    report = exhaustive_census(G, record_sink=records.append, **caps)
    oracle, oracle_counts = _per_set_oracle(G, **caps)
    assert [rec.set.mask for rec in records] == list(oracle)
    for rec in records:
        assert rec == oracle[rec.set.mask], (G.spec(), hex(rec.set.mask))
    return report, oracle_counts


def test_orbit_census_matches_per_set_oracle():
    for G in all_abelian_groups(12):
        report, oracle_counts = _orbit_census_against_oracle(G)
        assert report.counts == oracle_counts, G.spec()
        assert report.classified == len(hol_orbits(G)), G.spec()


@pytest.mark.parametrize(
    "facs, indeterminate", [((2, 6), 136), ((12,), 32)], ids=["C2xC6", "C12"]
)
def test_orbit_census_under_enum_cap(facs, indeterminate):
    # the enumeration cap on |B(S)| is an orbit invariant, so a capped
    # census still classifies each orbit once and matches every member
    G = make_group(facs)
    report, oracle_counts = _orbit_census_against_oracle(G, enum_cap=100)
    assert report.counts == oracle_counts
    assert report.classified == len(hol_orbits(G))
    assert report.counts["indeterminate"] == indeterminate


def test_exhaustive_census_order_16():
    report = exhaustive_census(make_group([2, 2, 4]))
    assert report.counts == C2XC2XC4_COUNTS
    assert report.classified == 252


def test_exhaustive_census_builds_aut_g_once(monkeypatch):
    # the orbit list and the S3' scan share one Aut(G) through the context
    real = groups.automorphism_group_of_G
    calls = []

    def counted(G, *args, **kwargs):
        calls.append(G.spec())
        return real(G, *args, **kwargs)

    for mod in (groups, stability, census):
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, counted)
    group_context.cache_clear()
    try:
        exhaustive_census(make_group([2, 6]))
    finally:
        group_context.cache_clear()
    assert calls == ["C2xC6"]


def test_exhaustive_census_record_sink():
    G = make_group([5])
    records = []
    exhaustive_census(G, record_sink=records.append)
    assert len(records) == 8
    with pytest.raises(DomainError):
        exhaustive_census(G, workers=2, record_sink=records.append)


def test_monte_carlo_determinism_and_worker_independence():
    G = make_group([7])
    a = monte_carlo_census(G, samples=64, seed=42, workers=1)
    b = monte_carlo_census(G, samples=64, seed=42, workers=4)
    assert a.signature() == b.signature()
    c = monte_carlo_census(G, samples=64, seed=43, workers=1)
    assert c.signature() != a.signature()
    assert a.mode == "monte-carlo" and a.examined == a.classified == 64
    p = a.counts["stable"] / 64
    assert a.ci_half_width == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 64))


def test_monte_carlo_is_unbiased():
    # mean stable frequency over many seeds close to the exhaustive value;
    # seeds are spaced past the shard count so the xor substreams never
    # collide between runs and the draws stay independent
    G = make_group([5])
    truth = 5 / 8
    samples, seeds = 32, 50
    hits = sum(
        monte_carlo_census(G, samples=samples, seed=1000 + 64 * s).counts["stable"]
        for s in range(seeds)
    )
    n = samples * seeds
    se = math.sqrt(truth * (1 - truth) / n)
    assert abs(hits / n - truth) < 3 * se


def test_census_report_check_rejects_tampering():
    rep = exhaustive_census(make_group([5]))
    bad = dict(rep.counts)
    bad["stable"] += 1
    broken = dataclasses.replace(rep, counts=bad)
    with pytest.raises(StabcoverError):
        broken.check()


def test_census_report_serialization():
    rep = exhaustive_census(make_group([5]))
    d = rep.to_json_dict()
    assert d["group"] == "C5"
    assert set(d["counts"]) == set(BUCKETS)
    assert d["classified"] == rep.classified == len(hol_orbits(make_group([5])))
    rows = rep.to_csv_rows()
    assert len(rows) == len(BUCKETS)
    assert all(len(r) == len(CensusReport.CSV_HEADER) for r in rows)


def test_check_record_rejects_inconsistency():
    G = make_group([5])
    rec = classify(G, ConnectionSet(G, 0b10010))
    check_record(rec)
    broken = dataclasses.replace(rec, in_s2=True, in_s1=False)
    with pytest.raises(StabcoverError):
        check_record(broken)


def test_hol_orbit_counts():
    assert len(hol_orbits(make_group([1]))) == 2
    assert len(hol_orbits(make_group([3]))) == 4
    assert len(hol_orbits(make_group([5]))) == 6
    # orbits partition the inverse-closed sets
    orbs = hol_orbits(make_group([8]))
    flat = [m for orb in orbs for m in orb]
    assert len(flat) == len(set(flat)) == count_inverse_closed(make_group([8]))


def test_unlabeled_census_c5():
    rep = unlabeled_census(make_group([5]))
    assert rep.total == 8
    assert rep.hol_order == 20
    assert rep.unlabeled_count == 6
    assert rep.good_set_count == 4
    assert rep.good_class_count == 2
    assert rep.hol_orbit_count == 6
    assert rep.good_hol_orbit_count == 2
    assert rep.lower_bound_holds
    assert rep.good_classes_are_hol_orbits
    d = rep.to_json_dict()
    assert d["unlabeled_count"] == 6


@pytest.mark.parametrize(
    "facs, unlabeled, hol_orbits_n, good_classes",
    [([2, 4], 20, 36, 0), ([10], 40, 40, 10), ([12], 96, 96, 20)],
    ids=["C2xC4", "C10", "C12"],
)
def test_unlabeled_census_class_counts(facs, unlabeled, hol_orbits_n, good_classes):
    # canonical forms depend on the search's cell order, class counts do not
    rep = unlabeled_census(make_group(facs))
    assert rep.unlabeled_count == unlabeled
    assert rep.hol_orbit_count == hol_orbits_n
    assert rep.good_class_count == rep.good_hol_orbit_count == good_classes
    assert rep.good_classes_are_hol_orbits


def test_unlabeled_census_exponent_two_group():
    # no good sets at exponent two, the comparisons still hold vacuously
    rep = unlabeled_census(make_group([2, 2]))
    assert rep.good_set_count == 0
    assert rep.lower_bound_holds
    assert rep.good_classes_are_hol_orbits
