"""Decoder contracts: the block rules, past/future agreement, hidden truth,
the closed-form revealed-level entropy, and the decomposition identity."""

import math
from itertools import product

import pytest

from excesslab.decoders import (
    _level_from_digits,
    decode_future_hmc,
    decode_future_hpm1,
    decode_future_hpm2,
    decode_past_hmc,
    decode_past_hpm1,
    decode_past_hpm2,
    decoded_level_entropy,
    future_decoder,
    mi_decomposition_residual,
    past_decoder,
)
from excesslab.exact import _label_decomposition, block_mi, enumerate_joint
from excesslab.analysis import fit_rate
from excesslab.models import Kind
from excesslab.verify import check_decoder_agreement

from conftest import FAST_SERIES_CUTOFF, make_model, naive_decoder_agreement, truth_hits


# ----- block rules --------------------------------------------------------------


@pytest.mark.parametrize(
    "block,expected",
    [
        ([0, 0, 1, 0, 0, 1, 0], 3),
        ([0, 0, 0, 0, 0, 0, 0], 0),
        ([0, 1, 0, 1], 2),
        ([1, 0, 0, 1], 0),  # distance 3, 2*3 > 4
    ],
)
def test_decode_past_hpm1(block, expected):
    assert decode_past_hpm1(block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([0, 1, 0, 0, 1, 0, 0], 3),
        ([0, 0, 0, 0, 0, 0, 0], 0),
        ([1, 0, 1, 0], 2),
    ],
)
def test_decode_future_hpm1_mirrors(block, expected):
    assert decode_future_hpm1(block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([2, 0, 1, 2, 0, 1], 5),
        ([2, 0, 2, 0], 2),
        ([0, 1, 1, 0], 0),
        ([1, 2, 1, 0, 2, 1], 0),  # distance 3, 2*3 = 6 <= 6 but digits (1,0) -> m=6? no: m=0b110=6, s=3, ok
    ],
)
def test_decode_past_hpm2(block, expected):
    if block == [1, 2, 1, 0, 2, 1]:
        # distance 3 fits, digits 1,0 give level 6; the rule is total
        assert decode_past_hpm2(block) == 6
    else:
        assert decode_past_hpm2(block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([0, 1, 2, 0, 1, 2], 5),
        ([1, 0, 2, 1, 0, 2], 6),
        ([0, 2, 0, 2], 2),
        ([0, 1, 1, 0], 0),
    ],
)
def test_decode_future_hpm2_mirrors(block, expected):
    assert decode_future_hpm2(block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([0, 2, 0, 1, 3, 3], 5),
        ([0, 0, 0, 0, 0, 2], 0),
        ([2, 0, 1, 3, 3, 3, 3], 0),  # run 4 > s(5) = 3
        ([0, 0, 2, 0, 3, 3], 2),  # digit word "0" is level 2 with run 2 <= s(2)
        ([3, 3, 3, 3, 3, 3], 0),
        ([0, 1, 3, 3, 3, 3], 0),  # no delimiter before the digits
    ],
)
def test_decode_past_hmc(block, expected):
    assert decode_past_hmc(block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([3, 0, 1, 2, 0, 0], 5),
        ([0, 1, 2, 0, 0, 0], 0),
        ([3, 3, 3, 3, 0, 1, 2, 0], 0),  # run 4 > s(5) = 3
        ([3, 3, 0, 1, 2, 0], 5),
        ([3, 2, 0, 1, 0, 0], 0),  # no digits between run and delimiter
    ],
)
def test_decode_future_hmc(block, expected):
    assert decode_future_hmc(block) == expected


def test_decoders_reject_foreign_symbols():
    with pytest.raises(ValueError, match=r"^symbol 2 outside alphabet 0\.\.1$"):
        decode_past_hpm1([0, 2, 0])
    with pytest.raises(ValueError, match=r"^symbol 3 outside alphabet 0\.\.2$"):
        decode_past_hpm2([0, 3, 0])
    with pytest.raises(ValueError, match=r"^symbol 4 outside alphabet 0\.\.3$"):
        decode_past_hmc([0, 4, 0])
    with pytest.raises(ValueError, match=r"^symbol 7 outside alphabet 0\.\.3$"):
        decode_future_hmc(bytes([3, 2, 7, 4, 0]))


def test_level_from_digits_matches_bit_loop():
    for length in range(13):
        for digits in product((0, 1), repeat=length):
            m = 1
            for d in digits:
                m = (m << 1) | d
            assert _level_from_digits(bytes(digits)) == m, digits


def test_decoders_are_total_on_unreachable_blocks():
    # Unreachable observable content decodes to 0 rather than raising.
    assert decode_past_hpm2([2, 2, 2, 2]) == 0
    assert decode_past_hmc([2, 3, 2, 3]) == 0
    assert decode_future_hmc([3, 3, 2, 2]) == 0


# ----- agreement on sampled windows ----------------------------------------------


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
def test_past_future_agreement_and_hidden_truth(kind):
    check = check_decoder_agreement(make_model(kind, 1.5), windows=20_000, seed=77)
    assert check.passed, check.detail
    assert check.detail.startswith("20000 windows, 0 past/future disagreements")
    assert truth_hits(check.detail) > 0


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
def test_decoder_agreement_matches_per_window_oracle(kind):
    model = make_model(kind, 1.5)
    check = check_decoder_agreement(model, windows=2_345, seed=91)
    assert check.detail == naive_decoder_agreement(model, 2_345, 91)
    assert truth_hits(check.detail) > 0

    true_past = past_decoder(kind)

    def faulty(block):
        return 3 if true_past(block) == 2 else true_past(block)

    check = check_decoder_agreement(model, windows=2_345, seed=91, past_override=faulty)
    assert check.detail == naive_decoder_agreement(model, 2_345, 91, faulty)


# ----- closed-form H(D) ------------------------------------------------------------


def test_decoded_level_entropy_hpm1_n4_two_point():
    # Support {2, 0}: p = C/2 on level 2 and the rest on 0.
    mi = decoded_level_entropy("hpm1", 2.0, 4, FAST_SERIES_CUTOFF)
    c = make_model("hpm1", 2.0).norm_c
    p = c.mid / 2.0
    expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert mi.value == pytest.approx(expected, abs=1e-7)
    assert mi.lower <= expected <= mi.upper


def test_decoded_level_entropy_degenerate_support():
    assert decoded_level_entropy("hpm1", 2.0, 3, FAST_SERIES_CUTOFF).value == 0.0
    assert decoded_level_entropy("hpm2", 1.5, 2, FAST_SERIES_CUTOFF).value == 0.0


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_decoded_level_entropy_nondecreasing(kind, alpha):
    values = [
        decoded_level_entropy(kind, alpha, n, FAST_SERIES_CUTOFF).value for n in range(2, 40, 2)
    ]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_decoded_level_entropy_hpm2_growth_rate():
    # The revealed-level entropy grows like sqrt(n) at alpha = 1.5.
    pts = [
        (n, decoded_level_entropy("hpm2", 1.5, n, FAST_SERIES_CUTOFF).value)
        for n in range(10, 41, 2)
    ]
    fit = fit_rate(pts, "power")
    assert 0.4 <= fit.fitted_slope <= 0.65
    assert fit.r_squared >= 0.99


def test_hmc_revealed_level_carries_one_third_factor():
    # P(D = m) for the ergodic kind is one third of the cyclic-digit kind's.
    h2 = decoded_level_entropy("hpm2", 1.5, 30, FAST_SERIES_CUTOFF).value
    h3 = decoded_level_entropy("hmc", 1.5, 30, FAST_SERIES_CUTOFF).value
    assert h3 < h2  # the extra mass on D=0 lowers the entropy at this scale


# ----- decomposition identity --------------------------------------------------------


def test_decomposition_residual_degenerate_model():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    t = enumerate_joint(deg, 2, 4)
    chk = mi_decomposition_residual(t, "hpm1")
    assert chk.residual == pytest.approx(0.0, abs=1e-12)
    assert chk.passed


@pytest.mark.parametrize(
    "kind,alpha,n,cutoff",
    [
        ("hpm1", 1.5, 8, 1 << 12),
        ("hpm2", 2.0, 10, 31),
        ("hpm2", 1.5, 8, 15),
        ("hmc", 1.5, 6, 32),
    ],
)
def test_decomposition_residual_within_allowance(kind, alpha, n, cutoff):
    model = make_model(kind, alpha)
    table = enumerate_joint(model, n, cutoff)
    chk = mi_decomposition_residual(table, kind)
    assert abs(chk.residual) <= 1e-10  # exact identity in plug-in arithmetic
    assert chk.passed


def test_decomposition_decodes_each_distinct_block_once(monkeypatch):
    import excesslab.decoders as decoders

    calls = []

    def counting(decoder):
        def wrapped(block):
            calls.append(block)
            return decoder(block)

        return wrapped

    monkeypatch.setitem(decoders._PAST, Kind.HMC, counting(decode_past_hmc))
    monkeypatch.setitem(decoders._FUTURE, Kind.HMC, counting(decode_future_hmc))
    table = enumerate_joint(make_model("hmc", 1.5), 6, 32)
    chk = mi_decomposition_residual(table, "hmc")
    assert chk.passed
    distinct = len(table.past_marginal()) + len(table.future_marginal())
    assert len(calls) == distinct < len(table.entries)


def test_conditional_mi_equals_block_mi_minus_label_entropy():
    model = make_model("hpm1", 1.5)
    table = enumerate_joint(model, 8, 1 << 12)
    past, future = past_decoder("hpm1"), future_decoder("hpm1")
    _, h, cond = _label_decomposition(table, past, future)
    e = block_mi(table)
    assert cond.value == pytest.approx(e.value - h.value, abs=1e-10)
    assert abs(e.value - h.value - cond.value) <= cond.err_high + 1e-12


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
def test_block_mi_dominates_revealed_level_entropy(kind):
    # lower(E(n)) + widths >= lower(H(D)): conditional information is nonnegative.
    alpha = 1.5
    model = make_model(kind, alpha)
    for n in (4, 8):
        if kind == "hmc":
            table = enumerate_joint(model, n, 32)
        elif kind == "hpm1":
            table = enumerate_joint(model, n, 1 << 12, tail_aggregation=True)
        else:
            table = enumerate_joint(model, n, max(4, (1 << (n // 2)) - 1))
        e = block_mi(table)
        h_d = decoded_level_entropy(kind, alpha, n, FAST_SERIES_CUTOFF)
        assert h_d.lower <= e.upper + 1e-9
