"""Permutation arithmetic and the stabilizer chain against brute force."""

import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabcover
from helpers import reference_group
from stabcover.errors import CapExceededError, DomainError
from stabcover.perms import (
    as_perm,
    identity_perm,
    left_mul,
    mul_each,
    mul_table,
    pinv,
    pmul,
)


def test_as_perm_validation():
    assert as_perm([1, 0, 2]) == bytes([1, 0, 2])
    with pytest.raises(DomainError):
        as_perm([0, 0, 1])
    with pytest.raises(DomainError):
        as_perm([0, 1], degree=3)


def test_composition_convention():
    # pmul(p, q) applies p first
    p = as_perm([1, 2, 0])
    q = as_perm([0, 2, 1])
    pq = pmul(p, q)
    assert all(pq[x] == q[p[x]] for x in range(3))


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
def test_group_identities_random(a, b):
    p, q = as_perm(a), as_perm(b)
    ident = identity_perm(7)
    assert pmul(p, pinv(p)) == ident
    assert pinv(pmul(p, q)) == pmul(pinv(q), pinv(p))


def _brute_closure(degree, gens):
    ident = identity_perm(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_order_against_brute_closure_random():
    rng = random.Random(1234)
    for _ in range(40):
        degree = rng.randint(2, 7)
        gens = [
            as_perm(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))
        ]
        G = reference_group(degree, gens)
        brute = _brute_closure(degree, gens)
        assert G.order == len(brute)
        assert sorted(G.elements(10_000)) == sorted(brute)
        for p in itertools.permutations(range(degree)):
            assert G.contains(as_perm(p)) == (as_perm(p) in brute)


def test_symmetric_and_cyclic_orders():
    n = 8
    cyc = as_perm(list(range(1, n)) + [0])
    swap = as_perm([1, 0] + list(range(2, n)))
    assert reference_group(n, [cyc]).order == n
    assert reference_group(n, [cyc, swap]).order == math.factorial(n)


def test_elements_cap():
    n = 8
    cyc = as_perm(list(range(1, n)) + [0])
    swap = as_perm([1, 0] + list(range(2, n)))
    G = reference_group(n, [cyc, swap])
    with pytest.raises(CapExceededError):
        G.elements(100)


def test_elements_deterministic():
    n = 6
    cyc = as_perm(list(range(1, n)) + [0])
    swap = as_perm([1, 0] + list(range(2, n)))
    a = reference_group(n, [cyc, swap]).elements()
    b = reference_group(n, [cyc, swap]).elements()
    assert a == b


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([7, 256, 300]),
    st.integers(min_value=0, max_value=5),
    st.randoms(use_true_random=False),
)
def test_mul_each_matches_pmul(degree, count, rng):
    # bytes perms up to degree 256, tuple perms above; count 0 is the
    # empty input
    ps = [as_perm(rng.sample(range(degree), degree)) for _ in range(count)]
    q = as_perm(rng.sample(range(degree), degree))
    assert isinstance(q, bytes) == (degree <= 256)
    got = list(mul_each(ps, q))
    assert got == [pmul(p, q) for p in ps]
    assert all(type(x) is type(q) for x in got)
    # the same products with p fixed on the left, over q's table
    assert [left_mul(p)(mul_table(q)) for p in ps] == got


def test_elements_tuple_degree():
    # a 260-cycle: degree above 256 takes the tuple path
    n = 260
    cyc = as_perm(list(range(1, n)) + [0])
    assert isinstance(cyc, tuple)
    elems = reference_group(n, [cyc]).elements()
    assert len(elems) == n == len(set(elems))
    assert set(elems) == _brute_closure(n, [cyc])


def test_schreier_sims_tuple_degree_matches_bytes():
    # the same groups on 6 points and spread over 300: one chain code
    # path, two representations, the same orders, members and elements
    spots = [0, 57, 120, 199, 256, 299]
    rest = [x for x in range(300) if x not in spots]

    def lift(p):
        images = list(range(300))
        for i, j in enumerate(p):
            images[spots[i]] = spots[j]
        return as_perm(images)

    rng = random.Random(4321)
    for _ in range(10):
        gens = [as_perm(rng.sample(range(6), 6)) for _ in range(rng.randint(1, 3))]
        small = reference_group(6, gens)
        big = reference_group(300, [lift(g) for g in gens])
        assert isinstance(big.generators[0], tuple)
        assert big.order == small.order
        assert {lift(p) for p in small.elements()} == set(big.elements())
        for _ in range(10):
            p = as_perm(rng.sample(range(6), 6))
            assert big.contains(lift(p)) == small.contains(p)
        moved = list(range(300))
        moved[rest[0]], moved[rest[1]] = rest[1], rest[0]
        assert not big.contains(moved)


def test_representation_is_chosen_only_in_perms():
    # only `perms` tells bytes from tuples; every other module multiplies
    # through its primitives
    pattern = re.compile(r"isinstance\([^)]*\bbytes\b|[<>]=?\s*25[56]\b")
    offenders = []
    for path in sorted(Path(stabcover.__file__).parent.glob("*.py")):
        if path.name == "perms.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.name}:{no}: {line.strip()}")
    assert offenders == []
