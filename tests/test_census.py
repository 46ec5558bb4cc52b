"""Census tallies, sampling determinism, and unlabeled counting."""

import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import pytest

from helpers import set_records
from stabcover import census, cli, groups, stability
from stabcover.census import (
    BUCKETS,
    CensusReport,
    UnlabeledReport,
    _tally,
    check_record,
    exhaustive_census,
    hol_orbits,
    monte_carlo_census,
    unlabeled_census,
)
from stabcover.errors import DomainError, StabcoverError
from stabcover.graphs import ConnectionSet, cayley_graph
from stabcover.groups import (
    all_abelian_groups,
    automorphism_group_of_G,
    count_inverse_closed,
    inverse_closed_masks,
    make_group,
)
from stabcover.stability import classify, group_context
from stabcover.verify import stabilized_count

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


def _unlabeled_json(rep):
    """The unlabeled report's JSON without its elapsed time."""
    d = rep.to_json_dict()
    del d["elapsed"]
    return d


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
    # C2xC6, C2xC8 and C2xC10 have a nontrivial Aut(G), so the orbit list
    # spans many shards; the records come back from the workers, so the
    # per-set records and the unlabeled report must not depend on their
    # number. At C2xC10, 224 complement pairs have a derived record, and
    # the workers must find them too: `classified` counts their calls
    for facs, classified in (([7], 6), ([2, 6], 58), ([2, 8], 204), ([2, 10], 312)):
        G = make_group(facs)
        reps = [exhaustive_census(G, workers=w) for w in (1, 2, 3)]
        assert {(r.signature(), r.classified) for r in reps} == {
            (reps[0].signature(), classified)
        }, G.spec()
        records = list(set_records(reps[0]))
        unlabeled = _unlabeled_json(unlabeled_census(reps[0]))
        for r in reps[1:]:
            assert list(set_records(r)) == records, (G.spec(), r)
            assert _unlabeled_json(unlabeled_census(r)) == unlabeled, G.spec()


def _per_set_oracle(G, **caps):
    """Plain `classify` on every set: records by mask and their tally."""
    records, counts = {}, {k: 0 for k in BUCKETS}
    for mask in inverse_closed_masks(G):
        rec = classify(ConnectionSet(G, mask), **caps)
        check_record(rec)
        _tally(counts, rec)
        records[mask] = rec
    return records, counts


def _counted_census(monkeypatch, G, seen=None, **kwargs):
    """An exhaustive census of G and the `classify` calls it made here.

    The mask of each call is appended to `seen`, when given.
    """
    calls = [] if seen is None else seen

    def counted(S, *args, **kw):
        calls.append(S.mask)
        return classify(S, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(census, "classify", counted)
        report = exhaustive_census(G, **kwargs)
    return report, len(calls)


def _orbit_census_against_oracle(monkeypatch, G, seen=None, **caps):
    report, calls = _counted_census(monkeypatch, G, seen, **caps)
    assert report.classified == calls, G.spec()
    records = list(set_records(report))
    oracle, oracle_counts = _per_set_oracle(G, **caps)
    assert [rec.set.mask for rec in records] == list(oracle)
    for rec in records:
        assert rec == oracle[rec.set.mask], (G.spec(), hex(rec.set.mask))
    return report, oracle_counts


def test_orbit_census_matches_per_set_oracle(monkeypatch):
    classified = {}
    for G in all_abelian_groups(12):
        report, oracle_counts = _orbit_census_against_oracle(monkeypatch, G)
        assert report.counts == oracle_counts, G.spec()
        classified[G.spec()] = report.classified
    # one call per Aut(G)-orbit, less one per derived complement partner
    assert (classified["C7"], classified["C12"]) == (6, 67)


def test_orbit_census_derives_s1_partners_over_the_cap(monkeypatch):
    # at enum_cap 0 every |B| is over the cap, so the S1 partner of every
    # twin-free first orbit is derived, S2 partners of non-S1 orbits among
    # them; at the default cap 2n is within the cap and none of those is
    derived_s2 = 0
    for G in all_abelian_groups(12):
        seen = []
        report, oracle_counts = _orbit_census_against_oracle(monkeypatch, G, seen, enum_cap=0)
        assert report.counts == oracle_counts, G.spec()
        records = [rec for _, rec in report.orbit_records]
        derived = 0
        # hol_orbits lists each complement pair as orbits 2k and 2k + 1
        for first, rec in zip(records[::2], records[1::2]):
            if rec.in_s1 and first.twin_free:
                assert rec.set.mask not in seen, (G.spec(), hex(rec.set.mask))
                derived += 1
                derived_s2 += rec.in_s2 and not first.in_s1
        assert report.classified == len(records) - derived, G.spec()
    assert derived_s2 > 0


@pytest.mark.parametrize(
    "facs, indeterminate", [((2, 6), 136), ((12,), 32)], ids=["C2xC6", "C12"]
)
def test_orbit_census_under_enum_cap(monkeypatch, facs, indeterminate):
    # the enumeration cap on |B(S)| is an orbit invariant, so a capped
    # census still classifies each orbit at most once and matches every
    # member
    G = make_group(facs)
    report, oracle_counts = _orbit_census_against_oracle(monkeypatch, G, enum_cap=100)
    assert report.counts == oracle_counts
    assert report.counts["indeterminate"] == indeterminate


def test_exhaustive_census_order_16(monkeypatch):
    report, calls = _counted_census(monkeypatch, make_group([2, 2, 4]))
    assert report.counts == C2XC2XC4_COUNTS
    assert report.classified == calls == 163
    report, calls = _counted_census(monkeypatch, make_group([4, 4]))
    assert report.classified == calls == 77


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


def test_exhaustive_census_set_records():
    G = make_group([5])
    records = list(set_records(exhaustive_census(G)))
    assert [rec.set.mask for rec in records] == list(inverse_closed_masks(G))
    assert list(set_records(exhaustive_census(G, workers=2))) == records
    assert list(set_records(monte_carlo_census(G, samples=4, seed=1))) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_record_lines_match_set_records(workers):
    # the per-orbit line templates reproduce `set_records` serialised one
    # by one, byte for byte
    for G in [*all_abelian_groups(12), make_group([2, 10])]:
        report = exhaustive_census(G, workers=workers)
        want = "".join(json.dumps(r.to_json_dict()) + "\n" for r in set_records(report))
        assert "".join(report.record_lines()) == want, G.spec()
    mc = monte_carlo_census(make_group([2, 10]), samples=5, seed=1, workers=workers)
    assert list(mc.record_lines()) == []


def test_monte_carlo_determinism_and_worker_independence():
    # five samples leave most of the 32 shard ranges empty
    G = make_group([7])
    for samples in (0, 5, 64):
        a = monte_carlo_census(G, samples=samples, seed=42, workers=1)
        for workers in (2, 3):
            b = monte_carlo_census(G, samples=samples, seed=42, workers=workers)
            assert b.signature() == a.signature(), (samples, workers)
        c = monte_carlo_census(G, samples=samples, seed=43, workers=1)
        assert c.signature() != a.signature()
        assert a.mode == "monte-carlo" and a.examined == a.classified == samples
        if samples == 0:
            assert a.ci_half_width is None
            assert set(a.counts.values()) == {0}
            continue
        p = a.counts["stable"] / samples
        assert a.ci_half_width == pytest.approx(1.96 * math.sqrt(p * (1 - p) / samples))


def test_monte_carlo_memory_is_bounded_per_shard(monkeypatch):
    # Each shard's masks are drawn as its job is submitted, and at most
    # `workers` shards are in flight, so the caller never holds every
    # sample or every record: with `classify` stubbed to one record, the
    # caller's traced peak at 10^5 samples of C2xC10 stays far below the
    # 3.6 MB its masks alone would take. An inline pool, which runs each
    # job on submit, stands in for the process pool so that its memory is
    # traced too, and counts the results submitted and not yet read.
    waiting = [0]
    peak = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            out = fn(*args)
            waiting[0] += 1
            peak.append(waiting[0])

            def result():
                waiting[0] -= 1
                return out

            return SimpleNamespace(result=result)

    G = make_group([2, 10])
    rec = classify(ConnectionSet(G, (1 << G.order) - 1))
    monkeypatch.setattr(census, "classify", lambda S, enum_cap: rec)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    tracemalloc.start()
    try:
        report = monte_carlo_census(G, samples=100_000, seed=1, workers=2)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced_peak < 1_000_000
    assert report.classified == 100_000 == report.counts["not-twin-free"]
    assert (max(peak), len(peak), waiting[0]) == (2, 32, 0)


def test_monte_carlo_is_unbiased():
    # mean stable frequency over many seeds close to the exhaustive value
    G = make_group([5])
    truth = 5 / 8
    samples, seeds = 32, 50
    hits = sum(
        monte_carlo_census(G, samples=samples, seed=s).counts["stable"]
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


def test_census_report_serialization(monkeypatch):
    rep, calls = _counted_census(monkeypatch, make_group([5]))
    d = rep.to_json_dict()
    assert d["group"] == "C5"
    assert set(d["counts"]) == set(BUCKETS)
    assert d["classified"] == rep.classified == calls == 5
    rows = rep.to_csv_rows()
    assert len(rows) == len(BUCKETS)
    assert all(len(r) == len(CensusReport.CSV_HEADER) for r in rows)


def test_check_record_rejects_inconsistency():
    G = make_group([5])
    rec = classify(ConnectionSet(G, 0b10010))
    check_record(rec)
    # verdicts are derived from the facts, so break a fact: an S2 set
    # with a cover order that is not twice the minimal B, or with a
    # holomorph symmetry, which would also put it in S3
    assert rec.in_s2
    for broken in (dataclasses.replace(rec, cover_aut_order=2 * rec.cover_aut_order),
                   dataclasses.replace(rec, in_s3prime=True)):
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


def test_hol_orbits_come_in_complement_pairs():
    # orbits 2k and 2k + 1 are exchanged by S -> G - S, exactly one of them
    # holds 0, the first is the one inverse_closed_masks meets first, and
    # together the orbits partition the inverse-closed sets
    for G in all_abelian_groups(16):
        full = (1 << G.order) - 1
        position = {m: i for i, m in enumerate(inverse_closed_masks(G))}
        orbits = hol_orbits(G)
        assert sorted(m for orbit in orbits for m in orbit) == sorted(position), G.spec()
        for k in range(0, len(orbits), 2):
            first, second = orbits[k], orbits[k + 1]
            assert second == [full ^ m for m in reversed(first)], (G.spec(), k)
            assert (first[0] & 1) + (second[0] & 1) == 1, (G.spec(), k)
            assert min(map(position.get, first)) < min(map(position.get, second))


def test_unlabeled_census_c5():
    rep = unlabeled_census(exhaustive_census(make_group([5])))
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
    assert d["elapsed"] == rep.elapsed >= 0
    with pytest.raises(DomainError):
        unlabeled_census(monte_carlo_census(make_group([5]), samples=4, seed=1))


@pytest.mark.parametrize(
    "facs, unlabeled, hol_orbits_n, good_classes",
    [([2, 4], 20, 36, 0), ([10], 40, 40, 10), ([12], 96, 96, 20)],
    ids=["C2xC4", "C10", "C12"],
)
def test_unlabeled_census_class_counts(facs, unlabeled, hol_orbits_n, good_classes):
    # canonical forms depend on the search's cell order, class counts do not
    rep = unlabeled_census(exhaustive_census(make_group(facs)))
    assert rep.unlabeled_count == unlabeled
    assert rep.hol_orbit_count == hol_orbits_n
    assert rep.good_class_count == rep.good_hol_orbit_count == good_classes
    assert rep.good_classes_are_hol_orbits


def _per_set_unlabeled(G):
    """The unlabeled census without orbits: classify and label every set.

    Calls `classify` and `canonical_form` through the census module, so a
    test that patches them there changes the oracle the same way.
    """
    target = G.order if G.exponent <= 2 else 2 * G.order
    hol_order = G.order * len(automorphism_group_of_G(G))
    classes = {}
    good_masks = set()
    for mask in inverse_closed_masks(G):
        S = ConnectionSet(G, mask)
        rec = census.classify(S)
        key = census.canonical_form(census.cayley_graph(S)).bytes
        classes.setdefault(key, []).append(mask)
        if rec.cover_aut_order == 2 * target:
            good_masks.add(mask)
    orbits = hol_orbits(G)
    good_classes = [ms for ms in classes.values() if set(ms) <= good_masks]
    good_class_masks = {frozenset(ms) for ms in classes.values() if set(ms) & good_masks}
    good_orbit_masks = {frozenset(orb) for orb in orbits if set(orb) & good_masks}
    if len(good_classes) != len(good_class_masks):
        raise StabcoverError("a canonical class mixes good and non-good sets")
    return UnlabeledReport(
        group=G.spec(),
        total=count_inverse_closed(G),
        hol_order=hol_order,
        unlabeled_count=len(classes),
        good_set_count=len(good_masks),
        good_class_count=len(good_class_masks),
        hol_orbit_count=len(orbits),
        good_hol_orbit_count=len(good_orbit_masks),
        lower_bound_holds=len(good_class_masks) * hol_order >= len(good_masks),
        good_classes_are_hol_orbits=good_class_masks == good_orbit_masks,
        elapsed=0.0,
    )


def test_unlabeled_census_matches_per_set_oracle():
    for G in all_abelian_groups(12):
        oracle = _unlabeled_json(_per_set_unlabeled(G))
        assert _unlabeled_json(unlabeled_census(exhaustive_census(G))) == oracle, G.spec()


def test_unlabeled_census_classifies_once_per_orbit(monkeypatch, tmp_path):
    # `census --unlabeled` reads goodness off the labeled pass's records:
    # one orbit listing and at most one `classify` call per orbit in all,
    # none for a derived complement partner
    calls = {"classify": 0, "hol_orbits": 0}

    def counted(name):
        real = getattr(census, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(census, name, wrapper)

    counted("classify")
    counted("hol_orbits")
    out = tmp_path / "report.jsonl"
    assert cli.main(["census", "C2xC8", "--unlabeled", "--format", "jsonl",
                     "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text().splitlines()[1])["hol_orbit_count"] == 304
    assert calls == {"classify": 204, "hol_orbits": 1}  # of 304 orbits, 1 024 sets


@pytest.mark.parametrize("mixed", [False, True], ids=["two-good", "good-and-not"])
def test_unlabeled_census_merged_classes(monkeypatch, mixed):
    # Merging two canonical classes keeps every class a union of orbits.
    # Two good classes merged are no longer one orbit each; a good class
    # merged with a non-good one must be refused. Both paths see the merge.
    G = make_group([10])
    target = 2 * G.order
    good, bad = [], []
    for orbit in hol_orbits(G):
        S = ConnectionSet(G, orbit[0])
        key = census.canonical_form(cayley_graph(S)).bytes
        is_good = classify(S).cover_aut_order == 2 * target
        (good if is_good else bad).append(key)
    merge = {good[1] if not mixed else bad[0]: good[0]}
    real = census.canonical_form

    def merged(graph):
        key = real(graph).bytes
        return SimpleNamespace(bytes=merge.get(key, key))

    monkeypatch.setattr(census, "canonical_form", merged)
    report = exhaustive_census(G)
    if mixed:
        with pytest.raises(StabcoverError, match="mixes good and non-good"):
            unlabeled_census(report)
        with pytest.raises(StabcoverError, match="mixes good and non-good"):
            _per_set_unlabeled(G)
        return
    rep = unlabeled_census(report)
    assert _unlabeled_json(rep) == _unlabeled_json(_per_set_unlabeled(G))
    assert rep.good_class_count == 9 and rep.good_hol_orbit_count == 10
    assert not rep.good_classes_are_hol_orbits


def test_unlabeled_census_exponent_two_group():
    # no good sets at exponent two, the comparisons still hold vacuously
    rep = unlabeled_census(exhaustive_census(make_group([2, 2])))
    assert rep.good_set_count == 0
    assert rep.lower_bound_holds
    assert rep.good_classes_are_hol_orbits
