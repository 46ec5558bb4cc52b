"""Arbitrary-precision evaluation of the closed-form proportion bounds.

Every bound is a sum of powers of two whose exponents mix -r/24 style
linear terms with (log2 r)^2 and r^delta terms; for r up to 2**30 these
exponents are large and cancellation-prone, so all arithmetic runs in
mpmath binary floating point at a configurable precision (default 256
bits, at least 53) and never in machine doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError

DEFAULT_PRECISION_BITS = 256

# named per-family proportion bounds, in reporting order
BOUND_NAMES = (
    "trivial-disconnected",
    "trivial-bipartite",
    "trivial-twins",
    "s-minus-s1",
    "s3",
    "s4",
    "s5",
)

# the four families whose bound sum must stay below h_delta
COMPONENT_SUM_NAMES = ("s-minus-s1", "s3", "s4", "s5")

GRID_R = tuple(1 << t for t in range(10, 31))
GRID_DELTA = (0.01, 0.05, 0.1, 0.2)


def _validate(r: int, delta: float, precision_bits: int) -> None:
    if r < 2:
        raise DomainError("r must be at least 2")
    if not 0 < delta < 0.5:
        raise DomainError("delta must lie strictly between 0 and 1/2")
    # the exponents reach r/24, so below a double's 53 bits their rounding
    # alone moves a bound by whole factors
    if precision_bits < 53:
        raise DomainError("precision must be at least 53 bits")


def h_delta_terms(r: int, delta: float, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Both summands of the headline bound h_delta, kept separate.

    Each exponent is evaluated once at the working precision and then
    exponentiated once, so every term carries at most a few ulps of error.
    """
    _validate(r, delta, precision_bits)
    with mp.workprec(precision_bits):
        rr = mp.mpf(r)
        lg = mp.log(rr, 2)
        rd = rr ** mp.mpf(delta)
        first = mp.mpf(2) ** (-rr / 24 + (rd * rd + rd + 6) * lg * lg + 5 * lg + 4)
        second = mp.mpf(2) ** (-mp.mpf(2) / 25 * rd + 3 * lg + 1)
        return first, second


@dataclass(frozen=True)
class BoundProfile:
    """All named bounds at one (r, delta) point, with vacuity flags.

    A bound above 1 says nothing about a proportion; such entries are
    flagged vacuous but reported at face value. h_terms are the two
    summands of h_delta, as `h_delta_terms` gives them; h is their sum.
    k = h/(1-h) * 2^((log2 r)^2 + log2 r) is the unlabeled-count
    correction factor, None when h >= 1: the formula divides by 1-h, so
    the bound carries no information there and is reported as undefined
    rather than clamped or negated. component_sum adds the four
    per-family bounds whose union covers every unstable set, and
    component_sum_le_h records whether that sum stays below h_delta.
    """

    r: int
    delta: float
    precision_bits: int
    h_terms: tuple
    h: object
    k: object | None
    bounds: dict
    vacuous: dict
    component_sum: object
    component_sum_le_h: bool

    @property
    def k_undefined(self) -> bool:
        return self.k is None


def lemma_bound_table(
    r: int, delta: float, precision_bits: int = DEFAULT_PRECISION_BITS
) -> BoundProfile:
    """Evaluate every named per-family bound at one (r, delta) point."""
    first, second = h_delta_terms(r, delta, precision_bits)
    with mp.workprec(precision_bits):
        rr = mp.mpf(r)
        lg = mp.log(rr, 2)
        rd = rr ** mp.mpf(delta)
        two = mp.mpf(2)
        trivial_split = two ** (-rr / 4 + lg * lg)
        bounds = {
            "trivial-disconnected": trivial_split,
            "trivial-bipartite": trivial_split,
            "trivial-twins": two ** (-rr / 6 + lg + 1),
            "s-minus-s1": two ** (-rr / 6 + lg * lg + 2),
            "s3": two ** (-rr / 24 + lg * lg + lg + 2),
            "s4": (
                two ** (-rr / 24 + (rd * rd + rd + 6) * lg * lg + (2 + mp.mpf(delta)) * lg)
                + two ** (-two / 25 * rd + 3 * lg + 1)
            ),
            "s5": two ** (-rr / 5 + 2 * lg * lg + 5 * lg),
        }
        vacuous = {name: bool(value > 1) for name, value in bounds.items()}
        component_sum = sum(bounds[name] for name in COMPONENT_SUM_NAMES)
        h = first + second
        k = None if h >= 1 else h / (1 - h) * two ** (lg * lg + lg)
        return BoundProfile(
            r=r,
            delta=delta,
            precision_bits=precision_bits,
            h_terms=(first, second),
            h=h,
            k=k,
            bounds=bounds,
            vacuous=vacuous,
            component_sum=component_sum,
            component_sum_le_h=bool(component_sum <= h),
        )


def default_grid():
    """The (r, delta) evaluation grid: r over powers of two, four deltas."""
    return [(r, delta) for r in GRID_R for delta in GRID_DELTA]
