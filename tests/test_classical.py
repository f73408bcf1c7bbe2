"""Map algebra, opening membership and survival times."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from openbaker.classical import OpeningSpec, as_fraction
from oracles import (
    PhasePoint,
    baker_forward,
    baker_inverse,
    contains_q,
    in_opening,
    survival_time,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False, allow_infinity=False)


def close(a: PhasePoint, b: PhasePoint, tol=1e-12) -> bool:
    return abs(a.q - b.q) <= tol and abs(a.p - b.p) <= tol


def test_forward_known_points():
    assert baker_forward(PhasePoint(0.25, 0.5)) == PhasePoint(0.5, 0.25)
    assert baker_forward(PhasePoint(0.75, 0.0)) == PhasePoint(0.5, 0.5)
    assert baker_forward(PhasePoint(0.0, 0.0)) == PhasePoint(0.0, 0.0)


def test_inverse_known_points():
    assert baker_inverse(PhasePoint(0.5, 0.25)) == PhasePoint(0.25, 0.5)
    assert close(baker_inverse(PhasePoint(0.3, 0.8)), PhasePoint(0.65, 0.6))


def test_period_two_orbit_exact():
    a = PhasePoint(Fraction(1, 3), Fraction(2, 3))
    b = baker_forward(a)
    assert b == PhasePoint(Fraction(2, 3), Fraction(1, 3))
    assert baker_forward(b) == a
    assert baker_inverse(a) == b


@given(unit, unit)
def test_roundtrip(q, p):
    x = PhasePoint(q, p)
    assert close(baker_inverse(baker_forward(x)), x)
    assert close(baker_forward(baker_inverse(x)), x)


@given(unit, unit)
def test_reflection_symmetry(q, p):
    """Reflecting both coordinates through 1/2 commutes with the map."""
    if min(q, abs(q - 0.5)) < 1e-9 or min(p, abs(p - 0.5)) < 1e-9:
        return
    flip = lambda x: PhasePoint((1.0 - x.q) % 1.0, (1.0 - x.p) % 1.0)
    x = PhasePoint(q, p)
    assert close(baker_forward(flip(x)), flip(baker_forward(x)))


def test_opening_validation():
    with pytest.raises(ValueError):
        OpeningSpec(1.0, 0.1)
    with pytest.raises(ValueError):
        OpeningSpec(-0.1, 0.1)
    with pytest.raises(ValueError):
        OpeningSpec(0.5, 1.5)
    OpeningSpec(0.0, 0.0)
    OpeningSpec(0.0, 1.0)


def test_opening_stores_exact_fractions():
    openings = [OpeningSpec(q, d) for q, d in
                [("0.5", "0.1"), (0.5, 0.1), (Fraction(1, 2), Fraction(1, 10))]]
    assert len(set(openings)) == 1
    assert len({hash(o) for o in openings}) == 1
    for o in openings:
        assert type(o.q_c) is Fraction and type(o.delta_q) is Fraction
    assert OpeningSpec(0.3, "0").delta_q == 0


def test_as_fraction_reads_decimals():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction(2) == 2


def test_opening_edges_wrap():
    lo, hi = OpeningSpec(0.0, 0.1).edges()
    assert lo == Fraction(19, 20) and hi == Fraction(21, 20)
    lo, hi = OpeningSpec(0.5, 0.1).edges()
    assert lo == Fraction(9, 20) and hi == Fraction(11, 20)


def test_window_matches_membership():
    # (k - low) mod den < width exactly when k / den lies in the strip,
    # for wrapping strips, edge points and the empty and full openings
    for qc in ("0", "0.5", "0.975", "0.3"):
        for dq in ("0", "0.1", "0.3", "1"):
            opening = OpeningSpec(qc, dq)
            for den in (1, 2, 20, 40, 37):
                low, width = opening.window(den)
                for k in range(den):
                    inside = (k - low) % den < width
                    assert inside == contains_q(opening, Fraction(k, den)), (qc, dq, den, k)


# even dens, the Mersenne dens 2^n - 1 of the period-n points, and dens
# past int64, which only an object array holds
survives_dens = st.one_of(
    st.integers(1, 2**40).map(lambda h: 2 * h),
    st.integers(1, 70).map(lambda n: 2**n - 1),
    st.integers(2**63 + 1, 2**80),
)
edges = st.fractions(0, 1, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(
    edges.filter(lambda x: x < 1),
    st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), edges),
    survives_dens,
    st.lists(st.integers(0, 2**80), min_size=1, max_size=12),
    st.integers(0, 12),
    st.booleans(),
)
# the left edge 0.985 rounds up to 1: low = den, and the window holds k = 0
@example(Fraction(199, 200), Fraction(1, 50), 63, [0, 1, 62], 6, False)
@example(Fraction(199, 200), Fraction(1, 50), 7, [0, 6], 3, True)
@example(Fraction(0), Fraction(1, 10), 2**64 + 2, [0, 2**63], 12, True)  # wraps
def test_survives_matches_fraction_doubling(qc, dq, den, ks, t, as_object):
    opening = OpeningSpec(qc, dq)
    low, width = opening.window(den)
    # beside the drawn k: the k next to both window edges, and the k whose
    # doublings land there, where they have preimages
    for edge in (low - 1, low, low + width - 1, low + width):
        x = edge % den
        ks.append(x)
        for _ in range(t):
            if den % 2:
                x = x * (den + 1) // 2 % den  # 2x = edge mod den
            elif x % 2 == 0:
                x //= 2
            else:
                break
            ks.append(x)
    ks = [k % den for k in ks]
    dtype = object if as_object or den > 2**62 else np.int64
    k = np.array(ks, dtype=dtype)
    alive = opening.survives(k, den, t)
    assert alive.dtype == bool and alive.shape == k.shape
    assert k.tolist() == ks  # k is left as it was
    # the oracle's Fraction orbit: k / den and its first t doublings
    expected = [survival_time(PhasePoint(Fraction(x, den), 0), opening, t + 1) is None
                for x in ks]
    assert alive.tolist() == expected, (qc, dq, den, t)


@pytest.mark.parametrize("qc, dq", [("0", "0"), ("0.5", "0.1"), ("0", "0.1"), ("0.3", "1"),
                                    ("0.1234", "0.0567"), ("0.999", "0.002")])
def test_den_is_the_least_even_grid_of_both_edges(qc, dq):
    opening = OpeningSpec(qc, dq)
    lo, hi = opening.edges()
    on_grid = [d for d in range(2, opening.den + 1, 2)
               if (lo * d).denominator == (hi * d).denominator == 1]
    assert on_grid[0] == opening.den


def test_in_opening_membership():
    o = OpeningSpec(0.5, 0.1)
    assert in_opening(PhasePoint(0.5, 0.2), o)
    assert not in_opening(PhasePoint(0.44, 0.2), o)
    # half-open: the left edge is in, the right edge is out
    assert contains_q(o, Fraction(9, 20))
    assert not contains_q(o, Fraction(11, 20))
    wrap = OpeningSpec(0.0, 0.1)
    assert contains_q(wrap, 0.97)
    assert contains_q(wrap, 0.0)
    assert not contains_q(wrap, 0.05)
    assert not contains_q(wrap, 0.5)


def test_survival_time_examples():
    o = OpeningSpec(0.5, 0.1)
    assert survival_time(PhasePoint(0.0, 0.0), o, 100) is None
    assert survival_time(PhasePoint(0.5, 0.2), o, 100) == 0
    assert survival_time(PhasePoint(0.25, 0.7), o, 100) == 1
    assert survival_time(PhasePoint(0.5, 0.2), o, 0) is None
    with pytest.raises(ValueError):
        survival_time(PhasePoint(0.5, 0.2), o, -1)


@given(unit, unit, st.integers(1, 30))
def test_survival_monotone_in_width(q, p, t_max):
    """Widening the strip can only shorten survival."""
    narrow = survival_time(PhasePoint(q, p), OpeningSpec(0.5, 0.1), t_max)
    wide = survival_time(PhasePoint(q, p), OpeningSpec(0.5, 0.3), t_max)
    inf = float("inf")
    assert (wide if wide is not None else inf) <= (
        narrow if narrow is not None else inf
    )


@given(unit)
def test_survival_only_depends_on_q(q):
    o = OpeningSpec(0.3, 0.1)
    times = {survival_time(PhasePoint(q, p), o, 50) for p in (0.0, 0.31, 0.99)}
    assert len(times) == 1
