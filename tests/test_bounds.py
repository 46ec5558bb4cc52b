"""High-precision bound evaluation: domains, vacuity, and the assembly sum."""

import mpmath as mp
import pytest

from stabcover import bounds
from stabcover.bounds import (
    BOUND_NAMES,
    GRID_DELTA,
    GRID_R,
    DEFAULT_PRECISION_BITS,
    default_grid,
    h_delta_terms,
    lemma_bound_table,
)
from stabcover.errors import DomainError


def h_of(r, delta, precision_bits=DEFAULT_PRECISION_BITS):
    """h_delta at one point, as the bound table reports it."""
    return lemma_bound_table(r, delta, precision_bits).h


def test_domain_validation():
    for r, delta in ((1, 0.1), (100, 0.0), (100, 0.5), (100, 0.7)):
        with pytest.raises(DomainError):
            lemma_bound_table(r, delta)
        with pytest.raises(DomainError):
            h_delta_terms(r, delta)


@pytest.mark.parametrize("bits", [-5, 0, 1, 8, 52])
def test_precision_below_a_double_is_refused(bits):
    # at 8 bits h(1024, 0.1) printed 1.128e+366 against 4.443e+364 at 256
    # bits: the rounding of exponents near r/24 moves the value by factors
    with pytest.raises(DomainError, match="53 bits"):
        h_delta_terms(1024, 0.1, precision_bits=bits)
    with pytest.raises(DomainError, match="53 bits"):
        lemma_bound_table(1024, 0.1, precision_bits=bits)
    assert mp.almosteq(
        h_of(1024, 0.1, precision_bits=53),
        h_of(1024, 0.1),
        rel_eps=mp.mpf(2) ** -20,
    )


def test_term_comparison_small_delta():
    # at delta = 0.001 the fast-decaying first term is already below the
    # second at fifty thousand
    for r in (50_000, 100_000, 1_000_000):
        first, second = h_delta_terms(r, 0.001)
        assert first < second


def test_vacuous_at_small_r():
    assert h_of(100, 0.1) > 1
    profile = lemma_bound_table(64, 0.1)
    # every family bound except the twin bound is above one here
    for name in BOUND_NAMES:
        if name == "trivial-twins":
            assert profile.vacuous[name] is False
        else:
            assert profile.vacuous[name] is True


def test_k_undefined_when_h_at_least_one():
    profile = lemma_bound_table(100, 0.1)
    assert profile.h >= 1
    assert profile.k is None and profile.k_undefined


def test_k_factor_algebra():
    # where defined and h < 1/2, k is at least h times the correction
    # factor (h/(1-h) rounds to h exactly when h is far below one ulp)
    r, delta = 1 << 200, 0.1
    profile = lemma_bound_table(r, delta)
    h, k = profile.h, profile.k
    assert 0 < h < 0.5 and not profile.k_undefined
    with mp.workprec(256):
        lg = mp.log(mp.mpf(r), 2)
        factor = mp.mpf(2) ** (lg * lg + lg)
        assert k >= h * factor
        assert k == h / (1 - h) * factor


def test_h_small_at_large_r():
    # the slow second term needs very large r at delta = 0.1
    assert h_of(1 << 130, 0.1) < mp.mpf("1e-6")
    assert h_of(1 << 24, 0.1) > 1


def test_tail_monotone_decreasing():
    profiles = [lemma_bound_table(1 << t, 0.1) for t in range(240, 261)]
    hs = [p.h for p in profiles]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    ks = [p.k for p in profiles]
    assert all(v is not None for v in ks)
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_component_sum_bounded_by_h_on_grid():
    assert len(default_grid()) == len(GRID_R) * len(GRID_DELTA)
    for r, delta in default_grid():
        profile = lemma_bound_table(r, delta)
        assert profile.component_sum_le_h
        assert profile.component_sum <= profile.h


def test_reproducible_bit_for_bit():
    a = lemma_bound_table(12345, 0.07)
    b = lemma_bound_table(12345, 0.07)
    assert a.h == b.h and a.k == b.k
    assert all(a.bounds[n] == b.bounds[n] for n in BOUND_NAMES)


def test_profile_evaluates_h_delta_once(monkeypatch):
    # one evaluation of the two terms gives h, k and the CSV's term columns
    calls = []

    def counted(*args):
        calls.append(args)
        return h_delta_terms(*args)

    monkeypatch.setattr(bounds, "h_delta_terms", counted)
    for r, delta in ((64, 0.1), (1 << 200, 0.1)):  # k undefined, then defined
        calls.clear()
        profile = lemma_bound_table(r, delta)
        assert len(calls) == 1
        first, second = h_delta_terms(r, delta)
        assert profile.h_terms == (first, second)
        with mp.workprec(DEFAULT_PRECISION_BITS):
            assert profile.h == first + second
        assert profile.k_undefined == (profile.h >= 1)


def test_smallest_domain_point():
    profile = lemma_bound_table(2, 0.1)
    assert all(mp.isfinite(profile.bounds[n]) for n in BOUND_NAMES)
    assert mp.isfinite(profile.h)


def test_precision_parameter_changes_working_precision():
    # low precision and high precision agree to many digits but are not
    # required to be identical objects
    lo = h_of(999, 0.2, precision_bits=64)
    hi = h_of(999, 0.2, precision_bits=512)
    assert mp.almosteq(lo, hi, rel_eps=mp.mpf(2) ** -40)
