"""Brackets and certified series sums against direct-summation oracles."""

import math

import numpy as np
import pytest

from excesslab import series
from excesslab.intervals import Interval
from excesslab.series import (
    branch_normalization_sum,
    level_weight,
    level_weight_sums,
    normalization_sum,
    partial_sum_bracket,
    squared_level_tail,
    tail_sum_bracket,
)
from excesslab.verify import _direct_sums as verify_direct_sums

from conftest import (
    fsum_branch_weights,
    fsum_level_tail,
    fsum_weights,
    naive_branch_normalization_sum,
    naive_level_sums,
    naive_normalization_sum,
)

ALPHAS = (1.2, 1.5, 1.8, 2.0)
POINTS = (2, 2**4, 2**10, 2**16, 2**20)


def direct_partial(alpha: float, n: int) -> float:
    m = np.arange(2, n + 1, dtype=np.float64)
    return float(np.sum(1.0 / (m * np.log2(m) ** (alpha - 1.0))))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", POINTS)
def test_partial_bracket_contains_direct_sum(alpha, n):
    br = partial_sum_bracket(alpha, n)
    value = direct_partial(alpha, n)
    assert br.lo - 1e-12 <= value <= br.hi + 1e-12


def test_partial_bracket_width_is_always_half():
    for alpha in ALPHAS:
        for n in POINTS:
            br = partial_sum_bracket(alpha, n)
            assert br.width == pytest.approx(0.5)


def test_partial_bracket_alpha2_n2_endpoints():
    br = partial_sum_bracket(2.0, 2)
    assert br.lo == pytest.approx(0.0, abs=1e-15)
    assert br.hi == pytest.approx(0.5)
    # the actual single-term sum is 1/2, on the bracket boundary
    assert br.lo <= 0.5 <= br.hi


def test_tail_bracket_alpha2_n2_closed_form():
    br = tail_sum_bracket(2.0, 2)
    assert br.lo == pytest.approx(math.log(2.0))
    assert br.width == pytest.approx(0.5)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tail_bracket_against_high_cutoff_summation(alpha):
    # Direct summation to 1e7 plus a recursive tail bracket encloses the
    # true tail; this enclosure must intersect the closed-form bracket and
    # the closed-form bracket must contain the midpoint estimate.
    n = 16
    top = 10**7
    m = np.arange(n, top, dtype=np.float64)
    direct = float(np.sum(1.0 / (m * np.log2(m) ** alpha)))
    rec = tail_sum_bracket(alpha, top)
    oracle_lo = direct + rec.lo
    oracle_hi = direct + rec.hi
    br = tail_sum_bracket(alpha, n)
    assert br.lo <= oracle_hi and oracle_lo <= br.hi
    assert br.lo - 1e-12 <= 0.5 * (oracle_lo + oracle_hi) <= br.hi + 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (2, 16, 1024))
def test_tail_bracket_telescoping(alpha, n):
    seg = np.arange(n, 2 * n, dtype=np.float64)
    direct = float(np.sum(1.0 / (seg * np.log2(seg) ** alpha)))
    lo = tail_sum_bracket(alpha, n).lo - tail_sum_bracket(alpha, 2 * n).hi
    hi = tail_sum_bracket(alpha, n).hi - tail_sum_bracket(alpha, 2 * n).lo
    assert lo - 1e-12 <= direct <= hi + 1e-12


def test_tail_bracket_width_is_first_term():
    for alpha in ALPHAS:
        br = tail_sum_bracket(alpha, 100)
        assert br.width == pytest.approx(level_weight(100, alpha))


def test_alpha_validation():
    with pytest.raises(ValueError):
        partial_sum_bracket(1.0, 10)
    with pytest.raises(ValueError):
        tail_sum_bracket(2.5, 10)
    with pytest.raises(ValueError):
        partial_sum_bracket(1.5, 1)


def test_level_weight_term_ratio():
    # C-free ratio of the alpha=2 weights at n=2 vs n=4.
    assert level_weight(2, 2.0) / level_weight(4, 2.0) == pytest.approx(8.0)


def test_normalization_width_alpha2_against_high_cutoff_oracle():
    # Oracle: direct summation to 1e8 plus the closed-form tail bracket.
    chunks = []
    top = 10**8
    step = 1 << 22
    for lo in range(2, top + 1, step):
        m = np.arange(lo, min(lo + step, top + 1), dtype=np.float64)
        chunks.append(float(np.sum(1.0 / (m * np.log2(m) ** 2.0))))
    direct = math.fsum(chunks)
    tail = tail_sum_bracket(2.0, top + 1)
    oracle = (direct + tail.lo, direct + tail.hi)

    c = normalization_sum(2.0, 10**7).reciprocal()
    assert c.width <= 1e-6
    # both enclose the same constant
    oracle_c = (1.0 / oracle[1], 1.0 / oracle[0])
    assert c.lo - 1e-15 <= oracle_c[1] and oracle_c[0] <= c.hi + 1e-15


def test_normalization_width_alpha15():
    c = normalization_sum(1.5, 10**7).reciprocal()
    assert c.width <= 1e-4


def test_branch_normalization_contains_direct_refinement():
    # A much larger direct cutoff must give a sub-enclosure of the smaller one.
    coarse = branch_normalization_sum(1.5, 10**4)
    fine = branch_normalization_sum(1.5, 10**6)
    assert coarse.lo - 1e-12 <= fine.mid <= coarse.hi + 1e-12
    assert fine.width < coarse.width


@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_level_weight_sums_match_direct_summation(alpha):
    top = (1 << 24) - 1
    sums = level_weight_sums(alpha, top)  # groups beyond 2^22 bracketed
    for name, value in zip(("s0", "s1", "s2", "s_digit"), naive_level_sums(alpha, top)):
        iv = getattr(sums, name)
        assert iv.lo - 1e-10 <= value <= iv.hi + 1e-10, f"{name}: {value} not in {iv}"


def test_level_weight_sums_sum_each_direct_prefix_once():
    cached = series._group_sums
    # An alpha no other test uses, so the entries counted here are new.
    alpha = 1.37
    before = cached.cache_info().currsize
    normalization_sum(alpha, 10**7)
    filled = cached.cache_info().currsize
    assert filled == before + 23  # groups 2..23 whole, group 24 up to 10**7
    branch_normalization_sum(alpha, 10**7)
    sums = [series.level_weight_sums(alpha, top) for top in ((1 << 22) - 1, 1 << 32, 1 << 64)]
    assert cached.cache_info().currsize == filled  # C, D and the level sums share every group
    assert sums[0].s0.lo == sums[0].s0.hi  # a top of 2**22 - 1 is summed directly
    assert sums[1].s0.lo > sums[0].s0.hi  # larger tops add bracketed groups on top
    for top in (3, (1 << 22) - 1, (1 << 23) - 1, 10**7):
        entry = cached(alpha, top)
        fresh = cached.__wrapped__(alpha, top)
        assert [v.hex() for v in entry] == [v.hex() for v in fresh]
    direct = series._direct_sums(alpha, (1 << 22) - 1)
    assert [getattr(sums[0], f).lo for f in ("s0", "s1", "s2", "s_digit")] == list(direct[:4])

    series.level_weight_sums(1.63, 1 << 40)
    assert cached.cache_info().currsize == filled + 21  # groups 2..22, one entry each

    bad_calls = (
        (series.level_weight_sums, 2.5, 1 << 32),
        (series.level_weight_sums, 1.37, 1),
        (normalization_sum, 2.5, 10**7),
        (normalization_sum, 1.41, 1),
        (branch_normalization_sum, 1.0, 10**7),
        (branch_normalization_sum, 1.41, 0),
    )
    for call, bad_alpha, top in bad_calls:
        with pytest.raises(ValueError):
            call(bad_alpha, top)
    assert cached.cache_info().currsize == filled + 21


@pytest.mark.parametrize("alpha", (1.2, 1.5, 2.0))
def test_digit_group_sums_match_per_term_loops(alpha):
    def close(value, reference):
        return abs(value - reference) <= 1e-15 * abs(reference)

    for cutoff in (10**4, 10**6, 10**7):
        direct = series._direct_sums(alpha, cutoff)
        assert close(direct[0], naive_normalization_sum(alpha, cutoff)), cutoff
        assert close(direct[4], naive_branch_normalization_sum(alpha, cutoff)), cutoff
    for top in (3, 12345, 2**16 - 1, 2**16 + 5, 2**22 - 1):
        sums = level_weight_sums(alpha, top)
        for name, reference in zip(("s0", "s1", "s2", "s_digit"), naive_level_sums(alpha, top)):
            iv = getattr(sums, name)
            assert iv.lo == iv.hi and close(iv.lo, reference), (top, name)


def test_verify_direct_sums_match_exact_and_scalar_oracles():
    import mpmath

    def close(values, references):
        return all(abs(v - r) <= 1e-14 * abs(r) for v, r in zip(values, references))

    exponents = (0.2, 1.0, 1.5, 2.0)
    with mpmath.workdps(30):
        exact = [
            float(mpmath.fsum(1 / (m * mpmath.log(m, 2) ** e) for m in range(2, 600)))
            for e in exponents
        ]
    assert close(verify_direct_sums(2, 600, exponents), exact)
    # Chunks start at lo, so this range ends in a second, 8-term chunk.
    lo, hi = (1 << 14) - 5, (1 << 15) + 3
    scalar = [math.fsum(1 / (m * math.log2(m) ** e) for m in range(lo, hi)) for e in exponents]
    assert close(verify_direct_sums(lo, hi, exponents), scalar)


@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_squared_level_tail_against_direct_summation(alpha):
    a = 50
    m = np.arange(a, 10**7, dtype=np.float64)
    direct = float(np.sum(1.0 / (m * m * np.log2(m) ** alpha)))
    iv = squared_level_tail(alpha, a)
    # the directly summed part misses only ~1e-8 relative tail mass
    assert iv.lo - 1e-12 <= direct <= iv.hi + 1e-12


@pytest.mark.parametrize("cutoff", (2, 31, 64, 4096, 2**20))
def test_cached_level_sums_equal_fsum_oracles_bit_for_bit(cutoff):
    def bits(x):
        return (x.lo.hex(), x.hi.hex()) if isinstance(x, Interval) else x.hex()

    alpha = 1.5
    cases = (
        (series.level_weight_fsum, fsum_weights, (alpha, 2, cutoff)),
        (series.branch_weight_sum, fsum_branch_weights, (alpha, cutoff)),
        (series.level_tail_sum, fsum_level_tail, (alpha, cutoff)),
        (squared_level_tail, squared_level_tail.__wrapped__, (alpha, cutoff)),
    )
    for cached, oracle, args in cases:
        assert bits(cached(*args)) == bits(oracle(*args)), cached.__name__
        hits = cached.cache_info().hits
        cached(*args)
        assert cached.cache_info().hits == hits + 1, cached.__name__
