"""Model-core contracts: binary helpers, constants, level law, branch law,
emission maps, and the stationarity audits."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from excesslab.exact import enumerate_joint
from excesslab.intervals import Interval
from excesslab.models import Kind, ProcessModel, binary_length
from excesslab.sampling import _symbols
from excesslab.series import tail_sum_bracket

import conftest
from conftest import (
    FAST_SERIES_CUTOFF,
    StateId,
    binary_digit,
    branch_probability,
    emission,
    emission_slice,
    level_mass,
    make_model,
)


@pytest.mark.parametrize("n,expected", [(2, 2), (7, 3), (8, 4), (1, 1), (1023, 10), (1024, 11)])
def test_binary_length(n, expected):
    assert binary_length(n) == expected


def test_binary_length_rejects_zero():
    with pytest.raises(ValueError):
        binary_length(0)


# binary_digit is the digit rule of the per-state emission reference in conftest.
@pytest.mark.parametrize("n,k,expected", [(6, 1, 1), (6, 3, 0), (5, 2, 0), (5, 1, 1), (5, 3, 1)])
def test_binary_digit(n, k, expected):
    assert binary_digit(n, k) == expected


def test_binary_digit_out_of_range():
    with pytest.raises(ValueError):
        binary_digit(6, 4)
    with pytest.raises(ValueError):
        binary_digit(6, 0)


@pytest.mark.parametrize("alpha", (0.9, 1.0, 2.1, 3.0))
def test_alpha_range_rejected(alpha):
    with pytest.raises(ValueError):
        ProcessModel("hpm1", alpha, series_cutoff=FAST_SERIES_CUTOFF)


def test_fixed_level_validated():
    with pytest.raises(ValueError):
        ProcessModel("hpm1", 1.5, series_cutoff=FAST_SERIES_CUTOFF, fixed_level=1)


def test_level_probability_ratio_is_constant_free():
    for alpha in (1.2, 1.5, 2.0):
        m = make_model("hpm1", alpha)
        ratio = (level_mass(m, 2) * level_mass(m, 4).reciprocal()).mid
        assert ratio == pytest.approx(2.0 ** (alpha + 1.0), rel=1e-12)


def test_level_probabilities_sum_to_one_within_enclosure():
    m = make_model("hpm2", 1.5)
    total = Interval.point(0.0)
    for level in range(2, 2000):
        total = total + level_mass(m, level)
    total = total + m.level_tail_mass(1999)
    assert total.lo - 1e-9 <= 1.0 <= total.hi + 1e-9


@pytest.mark.parametrize(
    "kind,alpha,cutoff", [("hmc", 1.5, 32), ("hmc", 1.5, 64), ("hpm2", 2.0, 255), ("hpm1", 1.5, 4096)]
)
def test_level_tail_mass_is_tight_and_inside_the_bracket(kind, alpha, cutoff):
    m = make_model(kind, alpha)
    tail = m.level_tail_mass(cutoff)
    bracket = m.norm_c * tail_sum_bracket(alpha, cutoff + 1)
    assert bracket.lo <= tail.lo and tail.hi <= bracket.hi
    assert tail.width < 4e-6  # the bare bracket is up to 1.6e-3 wide here
    top = 1 << 22
    levels = np.arange(cutoff + 1, top + 1, dtype=np.float64)
    direct = math.fsum(1.0 / (levels * np.log2(levels) ** alpha))
    reference = m.norm_c * (direct + tail_sum_bracket(alpha, top + 1))
    assert tail.lo <= reference.lo and reference.hi <= tail.hi


def test_level_mass_rejects_low_levels():
    m = make_model("hpm1", 1.5)
    with pytest.raises(ValueError):
        level_mass(m, 1)


def test_hmc_branch_ratio():
    h = make_model("hmc", 2.0)
    ratio = (branch_probability(h, 2) * branch_probability(h, 4).reciprocal()).mid
    assert ratio == pytest.approx(12.0, rel=1e-9)


def test_hmc_branch_masses_sum_to_one_within_enclosure():
    h = make_model("hmc", 1.5)
    total = Interval.point(0.0)
    for level in range(2, 501):
        total = total + branch_probability(h, level)
    total = total + h.branch_tail_mass(500)
    assert total.lo - 1e-9 <= 1.0 <= total.hi + 1e-9


@pytest.mark.parametrize(
    "kind,level,expected",
    [
        ("hpm1", 3, [0, 0, 1]),
        ("hpm2", 5, [2, 0, 1]),
        ("hmc", 5, [2, 0, 1, 3, 3, 3, 3, 0, 1]),
    ],
)
def test_emission_words(kind, level, expected):
    m = make_model(kind, 1.5)
    assert list(m.emission_word(level)) == expected


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_emission_word_matches_emission_at_every_phase(kind):
    # hpm1's word has `level` phases, so its levels stop at 2**9 plus the top
    # two (every phase up to 2**12 would be 8.4M reference calls).  The
    # sampler's hpm2 and hmc symbols must spell each word too, and the words
    # of levels either side of 2**31, 2**53 and 2**62, from the digit count,
    # the top 21 digits and the low-digit word alone.
    m = make_model(kind, 1.5)
    levels = range(2, 2**12 + 1) if kind != "hpm1" else [*range(2, 2**9 + 1), 2**12 - 1, 2**12]
    for level in levels:
        word = m.emission_word(level)
        assert len(word) == m.phase_count(level)
        for k in range(1, len(word) + 1):
            assert word[k - 1] == emission(m, StateId(level, k)), (level, k)
    if kind == "hpm1":
        return
    levels = [*levels, 2**30 + 5, 2**31 - 1, 2**53 - 1, 2**53 + 5, 2**62 - 1, 2**62 + 5]
    src, k = np.array([(i, k) for i, level in enumerate(levels) for k in range(m.phase_count(level))]).T
    digits = np.array([level.bit_length() for level in levels])
    tops = np.array([level << 21 >> level.bit_length() for level in levels])
    low = np.array([level % 2**64 for level in levels], np.uint64)
    keys, words_of = np.zeros((len(levels), 2), np.uint64), np.zeros(len(levels), np.int64)
    symbols = _symbols(m, src, k, digits, tops, low, keys, words_of)
    assert symbols.dtype == np.uint8
    assert symbols.tobytes() == b"".join(m.emission_word(level) for level in levels)


def _slice_bounds(s: int, r: int) -> list[int]:
    """Every region boundary of a level with s digits and r phases, one
    either side of it, and points past the end."""
    edges = (0, 1, s, 2 * s + 1, r)
    return sorted({max(0, e + d) for e in edges for d in (-1, 0, 1)} | {r + 7})


def _check_slices(m, level, pairs):
    # Each slice twice: as emission_slice picks its path, and cut from the
    # digits however much of the word it keeps.
    word = m.emission_word(level)
    for start, stop in pairs:
        assert emission_slice(m, level, start, stop) == word[start:stop], (start, stop)
        with mock.patch.object(conftest, "_CUT_MIN_SKIPPED", -1):
            assert emission_slice(m, level, start, stop) == word[start:stop], (start, stop, "cut")


@pytest.mark.parametrize("kind", ["hpm2", "hmc"])
@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(digits=st.integers(2, 2400), data=st.data())
def test_emission_slice_matches_word(kind, digits, data):
    m = make_model(kind, 1.5)
    level = data.draw(st.integers(1 << (digits - 1), (1 << digits) - 1), label="level")
    r = m.phase_count(level)
    # Every pair of boundaries: empty slices, region edges, ends past the word.
    bounds = _slice_bounds(digits, r)
    pairs = [(start, stop) for start in bounds for stop in bounds]
    start = data.draw(st.integers(0, r + 3), label="start")
    pairs += [(start, data.draw(st.integers(0, r + 3), label="stop")), (start, start + 16)]
    _check_slices(m, level, pairs)


@pytest.mark.parametrize("kind", ["hpm2", "hmc"])
def test_emission_slice_of_a_level_with_2_to_the_20_digits(kind):
    m = make_model(kind, 1.5)
    level = (1 << (2**20 - 1)) | random.Random(20).getrandbits(2**20 - 1)
    bounds = _slice_bounds(level.bit_length(), m.phase_count(level))
    _check_slices(m, level, [(a, b) for a in bounds for b in (*bounds, a + 16, a + 64)])


def test_emission_slice_hpm1_and_bad_bounds():
    m = make_model("hpm1", 1.5)
    for level in range(2, 12):
        word = m.emission_word(level)
        for start in range(level + 3):
            for stop in range(level + 3):
                assert emission_slice(m, level, start, stop) == word[start:stop]
    with pytest.raises(ValueError, match=r"\[-1:4\]"):
        emission_slice(make_model("hmc", 1.5), 9, -1, 4)
    with pytest.raises(ValueError, match="levels start at 2"):
        emission_slice(m, 1, 0, 1)


def test_hpm1_emission_cases():
    m = make_model("hpm1", 1.5)
    assert emission(m, StateId(3, 1)) == 0
    assert emission(m, StateId(3, 3)) == 1


def test_emission_alphabets_match_declared():
    for kind in Kind:
        m = make_model(kind.value, 1.5)
        seen = set()
        for level in range(2, 40):
            seen.update(m.emission_word(level))
        assert seen <= set(m.alphabet)
        assert seen == set(m.alphabet)  # every declared symbol occurs


def test_hmc_word_shape():
    h = make_model("hmc", 1.5)
    for level in range(2, 200):
        word = h.emission_word(level)
        s = binary_length(level)
        assert len(word) == 3 * s
        assert word[0] == 2
        assert sum(1 for x in word if x == 3) == s + 1


def test_cyclic_stationarity_is_exact_per_level():
    # The uniform phase law is stationary on each cycle, so the enumerated
    # past block and future block of one level have the same law.
    for kind in ("hpm1", "hpm2"):
        for level in (2, 5, 9):
            table = enumerate_joint(make_model(kind, 1.5, fixed_level=level), 4, level)
            past, future = table.past_marginal(), table.future_marginal()
            assert past.keys() == future.keys()
            for block, p in past.items():
                assert future[block] == pytest.approx(p, rel=1e-12)


def test_hmc_truncated_stationarity_audit():
    # On the truncated support, |pi.P - pi| in total variation is bounded by
    # the level tail mass; mass flows between levels only through the branch.
    # pi and the branch law are the weights the path enumerator uses.
    h = make_model("hmc", 1.5)
    cutoff = 64
    levels = range(2, cutoff + 1)
    branch = {m: branch_probability(h, m).mid for m in levels}
    pi = {}
    for m in levels:
        r = h.phase_count(m)
        for k in range(1, r + 1):
            pi[(m, k)] = level_mass(h, m).mid / r
    flow = dict.fromkeys(pi, 0.0)
    for (m, k), mass in pi.items():
        if k < h.phase_count(m):
            flow[(m, k + 1)] += mass
        else:
            for nxt, p in branch.items():
                flow[(nxt, 1)] += mass * p
    tv = 0.5 * sum(abs(flow[s] - pi[s]) for s in pi)
    tail = h.level_tail_mass(cutoff).hi
    assert tv <= tail + 1e-9
    # Per-state balance: mass enters (m, 1) only through the branch, and
    # p(m) / pi(m, 1) = D / C, so every level sees the same inflow ratio:
    # the retained word-end mass times D / C, up to the enclosure widths.
    c, d = h.norm_c, h.norm_d
    word_ends = math.fsum(pi[(m, h.phase_count(m))] for m in levels)
    expected = word_ends * d.mid / c.mid
    rel = c.width / c.mid + d.width / d.mid
    assert rel < 1e-5  # so a branch law off by 1e-3 cannot pass
    for m in levels:
        assert flow[(m, 1)] / pi[(m, 1)] == pytest.approx(expected, rel=rel), m


def test_level_mass_at_two_matches_normalization_oracle():
    # Oracle: independent direct summation of the normalizing series.
    import numpy as np

    m_arr = np.arange(2, 2_000_001, dtype=np.float64)
    inv_c = float(np.sum(1.0 / (m_arr * np.log2(m_arr) ** 2.0)))
    # at alpha=2 the series tail from n is between ln2/log2(n) and that plus
    # the first term, which is below 1e-6 here
    tail = math.log(2.0) / math.log2(2_000_001)
    model = make_model("hpm1", 2.0)
    enclosure = level_mass(model, 2)
    oracle_lo = (1.0 / (inv_c + tail + 1e-6)) / 2.0
    oracle_hi = (1.0 / (inv_c + tail)) / 2.0
    assert enclosure.lo <= oracle_hi + 1e-12 and oracle_lo <= enclosure.hi + 1e-12
