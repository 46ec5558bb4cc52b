"""Exhaustive and Monte-Carlo censuses over inverse-closed connection sets.

A census classifies every (or a sampled family of) inverse-closed subset
of a group and tallies the classification buckets. Both modes classify
through one path, which cuts the census's units of work into a fixed
number of index ranges (shards) and returns each shard's records in
order, so every report is identical for any worker count.

An exhaustive census classifies one set per Aut(G)-orbit, the orbit's
least mask, and tallies its record once per orbit member: an
automorphism tau of G carries Cay(G,S) isomorphically onto Cay(G,tau S),
conjugates B(S) onto B(tau S) while normalizing the translations and
commuting with inversion, so every field of the record is the same on
the whole orbit, and each canonical-form class of Cayley graphs is a
union of orbits: the unlabeled census labels one set per orbit and reads
its goodness off the exhaustive census's record for that orbit.
The only cap that can leave a field indeterminate, the enumeration cap
on |B(S)|, is an orbit invariant too, so no orbit needs a second look.

A complement pair of orbits is classified once when both halves are S1.
Write S^c = G - S, inverse-closed with S. In the cover x+ ~ y- exactly
when y - x lies in S, so the cover of S^c is that of S with every pair
between the blocks complemented; a permutation fixing both blocks keeps
a relation between them exactly when it keeps its complement, so
B(S) = B(S^c) as permutation groups, holding the same translations R and
the same inversion. The rows of Cay(G, S^c), loops included, are the
complements G - (S + g) of those of Cay(G, S), so the two graphs have
the same automorphisms and the same twins; and tau(S) + g = S exactly
when tau(S^c) + g = S^c, so Stab_Hol(S) = Stab_Hol(S^c). Connectivity
and bipartiteness are not shared: the complement of S = G - {0} is {0}.
S1 is connected, non-bipartite and twin-free, so when S is in S1 and
Cay(G, S^c) is connected and non-bipartite, S^c is in S1 too, and every
field of its record but the set is one of the shared objects: |Aut|,
|B|, the cover order 2|B|, stability, S2, S3' and S3 (from
Stab_Hol), S4 and S5 (a scan of the subgroups of B over R, under the
same cap on |B|), and no trivial-instability reason. Complementation
commutes with Aut(G), so it carries each orbit O onto an orbit O^c with
least mask min(G - S for S in O). The census classifies the earlier
orbit of each pair {O, O^c}, in orbit order; if its record is S1 and
the graph of O^c's least mask is connected and non-bipartite, O^c's
record is that record with O^c's least mask, and otherwise O^c is
classified too. `check_record` runs on every record.
`CensusReport.classified` counts the `classify` calls a census made.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from .autgrp import canonical_form
from .errors import CapExceededError, DomainError, StabcoverError
from .graphs import ConnectionSet, cayley_graph, component_of
from .groups import (
    DEFAULT_SET_CAP,
    AbelianGroup,
    count_inverse_closed,
    inverse_closed_masks,
    involution_set,
    make_group,
    map_mask,
    mask_union,
    negation_orbits,
)
from .perms import DEFAULT_ENUM_CAP
from .stability import StabilityRecord, TriState, classify, group_context

FIXED_SHARD_COUNT = 32

BUCKETS = (
    "disconnected",
    "connected-bipartite",
    "not-twin-free",
    "s1",
    "s2",
    "s3",
    "s3prime",
    "s4",
    "s5",
    "stable",
    "trivially-unstable",
    "nontrivially-unstable",
    "indeterminate",
)


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


@dataclass(frozen=True)
class CensusReport:
    """Bucket tallies for one census run.

    A record is determinate when neither its S4 nor its S5 field is
    indeterminate; only determinate records are tallied as stable or
    unstable, so the four outcome buckets always add up to `examined`.
    `classified` is the number of `classify` calls behind the tallies:
    for an exhaustive census one per Aut(G)-orbit, less one per
    complement pair of S1 orbits; `examined` for a Monte-Carlo one. It
    is left out of `signature()`. An exhaustive
    census keeps each orbit, as its masks, with its record in
    `orbit_records`, the input of `record_lines` and `unlabeled_census`;
    that field is left out of the JSON, the signature and equality.
    """

    group: str
    total: int
    examined: int
    classified: int
    counts: dict[str, int]
    mode: str
    samples: int | None
    seed: int | None
    ci_half_width: float | None
    elapsed: float
    orbit_records: tuple[tuple[list[int], StabilityRecord], ...] = field(
        default=(), compare=False, repr=False
    )

    def proportion(self, bucket: str) -> float:
        if self.examined == 0:
            return 0.0
        return self.counts[bucket] / self.examined

    def signature(self) -> tuple:
        """Everything except the elapsed time, for determinism comparisons."""
        return (
            self.group,
            self.total,
            self.examined,
            tuple(self.counts[k] for k in BUCKETS),
            self.mode,
            self.samples,
            self.seed,
            self.ci_half_width,
        )

    def check(self) -> None:
        c = self.counts
        if set(c) != set(BUCKETS):
            raise StabcoverError("census bucket keys are wrong")
        if c["s2"] > c["s1"] or c["s1"] > self.examined:
            raise StabcoverError("bucket counts violate s2 <= s1 <= examined")
        outcome = (
            c["stable"]
            + c["trivially-unstable"]
            + c["nontrivially-unstable"]
            + c["indeterminate"]
        )
        if outcome != self.examined:
            raise StabcoverError("outcome buckets do not add up to examined")
        for k in BUCKETS:
            if c[k] < 0 or c[k] > self.examined:
                raise StabcoverError(f"bucket {k} out of range")
        if not 0 <= self.classified <= self.examined:
            raise StabcoverError("classified count out of range")

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "total": self.total,
            "examined": self.examined,
            "classified": self.classified,
            "counts": dict(self.counts),
            "proportions": {k: self.proportion(k) for k in BUCKETS},
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "ci_half_width": self.ci_half_width,
            "elapsed": self.elapsed,
        }

    def record_lines(self) -> Iterator[str]:
        """One JSON record line per set, in the order of `inverse_closed_masks`.

        Each member of an orbit gets its orbit's record with its own mask
        as the `"set"` value. Members differ only in that value (their size
        is an orbit invariant too), so each orbit's record is dumped once
        and split around it; every member's line is the head, its own mask
        and the tail. Empty for a Monte-Carlo report.
        """
        if not self.orbit_records:
            return
        G = self.orbit_records[0][1].set.group
        by_mask = {}
        for orbit, rec in self.orbit_records:
            line = json.dumps(rec.to_json_dict())
            value = json.dumps(f"0x{rec.set.mask:x}")
            cut = line.index('"set": ' + value) + len('"set": ')
            parts = (line[:cut], line[cut + len(value):] + "\n")
            by_mask.update(dict.fromkeys(orbit, parts))
        for mask in inverse_closed_masks(G):
            head, tail = by_mask[mask]
            yield f'{head}"0x{mask:x}"{tail}'

    CSV_HEADER = ("group", "bucket", "count", "proportion")

    def to_csv_rows(self) -> list[list[str]]:
        rows = []
        for k in BUCKETS:
            rows.append([self.group, k, str(self.counts[k]), repr(self.proportion(k))])
        return rows


def _empty_counts() -> dict[str, int]:
    return {k: 0 for k in BUCKETS}


def _tally(counts: dict[str, int], rec: StabilityRecord, weight: int = 1) -> None:
    if not rec.connected:
        counts["disconnected"] += weight
    if rec.connected and rec.bipartite:
        counts["connected-bipartite"] += weight
    if not rec.twin_free:
        counts["not-twin-free"] += weight
    if rec.in_s1:
        counts["s1"] += weight
    if rec.in_s2:
        counts["s2"] += weight
    if rec.in_s3:
        counts["s3"] += weight
    if rec.in_s3prime:
        counts["s3prime"] += weight
    if rec.in_s4 == TriState.YES:
        counts["s4"] += weight
    if rec.in_s5 == TriState.YES:
        counts["s5"] += weight
    if rec.indeterminate:
        counts["indeterminate"] += weight
    elif rec.stable:
        counts["stable"] += weight
    elif rec.trivially_unstable:
        counts["trivially-unstable"] += weight
    else:
        counts["nontrivially-unstable"] += weight


def check_record(rec: StabilityRecord) -> None:
    """Structural cross-checks every classification record must satisfy."""
    target = rec.set.group.order if rec.exponent_two else 2 * rec.set.group.order
    checks = [
        (rec.in_s1 == (rec.connected and not rec.bipartite and rec.twin_free),
         "s1 must match its defining properties"),
        (not rec.in_s2 or rec.in_s1, "s2 is contained in s1"),
        (not rec.in_s2 or rec.stable, "s2 members are stable"),
        (not rec.in_s2 or rec.cover_aut_order == 2 * target,
         "s2 members have the minimal cover group"),
        (rec.aut_order % target == 0, "translations and inversion act on the base"),
        (rec.b_order % target == 0, "translations and inversion sit inside B"),
        (rec.b_order % rec.aut_order == 0, "base automorphisms embed in B"),
        (not (rec.connected and not rec.bipartite)
         or rec.cover_aut_order == 2 * rec.b_order,
         "connected non-bipartite cover group is twice B"),
        (not rec.in_s3 or rec.in_s1, "s3 is contained in s1"),
        (rec.in_s4 != TriState.YES or rec.in_s1, "s4 is contained in s1"),
        (rec.in_s5 != TriState.YES or rec.in_s1, "s5 is contained in s1"),
        (not rec.in_s3 or not rec.in_s2, "s3 excludes s2"),
    ]
    if not rec.exponent_two:
        checks.append(
            (not rec.in_s3 or rec.in_s3prime,
             "s3 members carry a holomorph symmetry")
        )
        if not rec.indeterminate and rec.in_s1 and not rec.in_s2 and not rec.in_s3:
            checks.append(
                (rec.in_s4 == TriState.YES or rec.in_s5 == TriState.YES,
                 "s1 minus s2 minus s3 lies in s4 or s5")
            )
    for ok, msg in checks:
        if not ok:
            raise StabcoverError(
                f"record for {rec.group} set 0x{rec.set.mask:x} violates: {msg}"
            )


def _units_shard(G: AbelianGroup, units, enum_cap: int) -> tuple[list[StabilityRecord], int]:
    """Checked records of each unit of work in turn, and the `classify` calls made.

    A unit is one mask, or a complement pair: the least masks of two
    orbits O, O^c, the earlier first. The second record of a pair is
    derived from the first when both sets are S1 (see the module
    docstring), and classified otherwise.
    """
    full = (1 << G.order) - 1
    records, calls = [], 0
    for first_mask, *partner in units:
        first = classify(G, ConnectionSet(G, first_mask), enum_cap=enum_cap)
        records.append(first)
        calls += 1
        for mask in partner:
            S = ConnectionSet(G, mask)
            if first.in_s1 and component_of(cayley_graph(G, S)) == (full, False):
                records.append(replace(first, set=S))
            else:
                records.append(classify(G, S, enum_cap=enum_cap))
                calls += 1
    for rec in records:
        check_record(rec)
    return records, calls


def _samples_shard(
    G: AbelianGroup, count: int, seed: int, shard: int, enum_cap: int
) -> tuple[list[StabilityRecord], int]:
    """Records of `count` uniform samples from the substream seed xor shard.

    One fair bit per negation orbit gives the exact uniform distribution.
    """
    orbit_masks = [sum(1 << x for x in orb) for orb in negation_orbits(G)]
    rng = random.Random(seed ^ shard)
    units = ((mask_union(orbit_masks, rng.getrandbits(len(orbit_masks))),) for _ in range(count))
    return _units_shard(G, units, enum_cap)


def _run_shards(G: AbelianGroup, shard, jobs: list[tuple], workers: int) -> Iterator:
    """`shard(G, *job)` for each job, in job order.

    With one worker every job runs in this process. Otherwise a process
    pool runs them, with at most `workers` jobs submitted and not yet
    returned, so no more than that many shards' records ever wait here.
    """
    if workers == 1:
        for job in jobs:
            yield shard(G, *job)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for job in jobs:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_rebuild_and_run, shard, G.invariant_factors, job))
        while pending:
            yield pending.popleft().result()


def _rebuild_and_run(shard, factors: tuple[int, ...], job: tuple):
    return shard(make_group(factors), *job)


def _shard_ranges(total: int) -> list[tuple[int, int]]:
    ranges = []
    for s in range(FIXED_SHARD_COUNT):
        lo = total * s // FIXED_SHARD_COUNT
        hi = total * (s + 1) // FIXED_SHARD_COUNT
        ranges.append((lo, hi))
    return ranges


def exhaustive_census(
    G: AbelianGroup,
    enum_cap: int = DEFAULT_ENUM_CAP,
    workers: int = 1,
) -> CensusReport:
    """Classify every inverse-closed subset of G and tally the buckets.

    One set per Aut(G)-orbit is classified, or one per complement pair
    of orbits when both are S1 (see the module docstring); the report
    keeps each orbit with its record in `orbit_records`.
    """
    start = time.monotonic()
    total = count_inverse_closed(G)
    if total > DEFAULT_SET_CAP:
        raise CapExceededError("census set count", total, DEFAULT_SET_CAP)
    if workers < 1:
        raise DomainError("worker count must be at least 1")
    orbits = hol_orbits(G)
    units = _complement_units(G, orbits)
    jobs = [
        ([tuple(orbits[i][0] for i in unit) for unit in units[lo:hi]], enum_cap)
        for lo, hi in _shard_ranges(len(units))
    ]
    records: list = [None] * len(orbits)
    order = (i for unit in units for i in unit)
    classified = 0
    for part, calls in _run_shards(G, _units_shard, jobs, workers):
        for rec in part:
            records[next(order)] = rec
        classified += calls
    counts = _empty_counts()
    for orbit, rec in zip(orbits, records):
        _tally(counts, rec, len(orbit))
    report = CensusReport(
        group=G.spec(),
        total=total,
        examined=total,
        classified=classified,
        counts=counts,
        mode="exhaustive",
        samples=None,
        seed=None,
        ci_half_width=None,
        elapsed=time.monotonic() - start,
        orbit_records=tuple(zip(orbits, records)),
    )
    report.check()
    return report


def monte_carlo_census(
    G: AbelianGroup,
    samples: int,
    seed: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
    workers: int = 1,
) -> CensusReport:
    """Classify uniform samples over inverse-closed subsets.

    Each of the fixed shard ranges of the samples is drawn, where it is
    classified, from its own substream (master seed xor shard index), so
    the sample list does not depend on the worker count, and neither does
    the report. Each shard's records are tallied as they arrive; none is
    kept.
    """
    start = time.monotonic()
    if samples < 0:
        raise DomainError("sample count must be non-negative")
    if workers < 1:
        raise DomainError("worker count must be at least 1")
    jobs = [
        (hi - lo, seed, shard, enum_cap)
        for shard, (lo, hi) in enumerate(_shard_ranges(samples))
    ]
    counts = _empty_counts()
    classified = 0
    for part, calls in _run_shards(G, _samples_shard, jobs, workers):
        for rec in part:
            _tally(counts, rec)
        classified += calls
    if samples > 0:
        p = counts["stable"] / samples
        half_width = 1.96 * math.sqrt(p * (1.0 - p) / samples)
    else:
        half_width = None
    report = CensusReport(
        group=G.spec(),
        total=count_inverse_closed(G),
        examined=samples,
        classified=classified,
        counts=counts,
        mode="monte-carlo",
        samples=samples,
        seed=seed,
        ci_half_width=half_width,
        elapsed=time.monotonic() - start,
    )
    report.check()
    return report


# -- unlabeled census ---------------------------------------------------------


@dataclass(frozen=True)
class UnlabeledReport:
    """Canonical-form classes of Cayley graphs versus holomorph orbits.

    A set is good when its cover automorphism group is as small as
    possible (twice the translations extended by inversion); good graphs
    determine their connection set up to holomorph conjugacy. Each class
    is a union of Aut(G)-orbits, all good or none, so good classes are
    holomorph orbits exactly when there are as many good orbits as good
    classes: the CI-type question of Babai's lemma (Acta Math. Acad. Sci.
    Hungar. 29, 1977). `elapsed` is the time of `unlabeled_census` alone,
    without the exhaustive census it reads.
    """

    group: str
    total: int
    hol_order: int
    unlabeled_count: int
    good_set_count: int
    good_class_count: int
    hol_orbit_count: int
    good_hol_orbit_count: int
    lower_bound_holds: bool
    good_classes_are_hol_orbits: bool
    elapsed: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def hol_orbits(G: AbelianGroup) -> list[list[int]]:
    """Conjugacy classes of connection sets under the holomorph, as mask lists.

    A holomorph element conjugates the set of translations {R(s)} by
    acting with its automorphism part only (translations centralize each
    other), so the classes are the Aut(G)-orbits: each is the set of
    images of one inverse-closed mask through the tables of
    `GroupContext.automorphisms`, sorted, and the orbits come in the order
    `inverse_closed_masks` first meets them.
    """
    auts = group_context(G).automorphisms
    orbits = []
    seen: set[int] = set()
    for mask in inverse_closed_masks(G):
        if mask in seen:
            continue
        orbit = sorted({map_mask(mask, tau) for tau in auts})
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _complement_units(G: AbelianGroup, orbits: list[list[int]]) -> list[tuple[int, ...]]:
    """The census's units of work, as indices into `orbits`, in orbit order.

    Complementation maps the orbit O onto the orbit O^c whose least mask
    is the least G - S over O (see the module docstring). Each orbit is
    sorted and S -> G - S reverses the order of masks, so that least mask
    is the complement of O's greatest, its last. A unit is (i,) for an
    orbit that is its own complement's, or (i, j) with i < j for a
    complement pair. Orbits are looked up by least mask only, not by every
    mask.
    """
    full = (1 << G.order) - 1
    index = {orbit[0]: i for i, orbit in enumerate(orbits)}
    units = []
    paired: set[int] = set()
    for i, orbit in enumerate(orbits):
        if i in paired:
            continue
        j = index[full ^ orbit[-1]]
        paired.add(j)
        units.append((i,) if j == i else (i, j))
    return units


def unlabeled_census(report: CensusReport) -> UnlabeledReport:
    """Group the orbits of an exhaustive census by the canonical form of their graph.

    Each orbit is labeled by its least mask, and its goodness is read off
    its record.
    """
    start = time.monotonic()
    if not report.orbit_records:
        raise DomainError("the unlabeled census needs an exhaustive census report")
    G = report.orbit_records[0][1].set.group
    target = G.order if G.exponent <= 2 else 2 * G.order
    hol_order = G.order * len(group_context(G).automorphisms)
    classes: dict[bytes, set[bool]] = {}
    good_sizes = []
    for orbit, rec in report.orbit_records:
        good = rec.cover_aut_order == 2 * target
        classes.setdefault(canonical_form(cayley_graph(G, rec.set)).bytes, set()).add(good)
        if good:
            good_sizes.append(len(orbit))
    if {True, False} in classes.values():
        raise StabcoverError("a canonical class mixes good and non-good orbits")
    good_class_count = list(classes.values()).count({True})
    good_set_count = sum(good_sizes)
    return UnlabeledReport(
        group=report.group,
        total=report.total,
        hol_order=hol_order,
        unlabeled_count=len(classes),
        good_set_count=good_set_count,
        good_class_count=good_class_count,
        hol_orbit_count=len(report.orbit_records),
        good_hol_orbit_count=len(good_sizes),
        lower_bound_holds=good_class_count * hol_order >= good_set_count,
        good_classes_are_hol_orbits=len(good_sizes) == good_class_count,
        elapsed=time.monotonic() - start,
    )
