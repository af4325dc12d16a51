"""Decoder contracts: the block rules, past/future agreement, hidden truth,
the closed-form revealed-level entropy, and the decomposition identity."""

import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from excesslab.decoders import (
    _revealed_phase_bounds,
    decoded_level_entropy,
    future_decoder,
    mi_decomposition_residual,
    past_decoder,
)
from excesslab.exact import (
    _label_decomposition,
    _label_profile,
    block_mi,
    enumerate_joint,
)
from excesslab.analysis import fit_rate
from excesslab.models import ALPHABETS, Kind
from excesslab.verify import (
    _CLIP,
    check_decoder_agreement,
    check_decomposition,
    run_verification,
)

from conftest import (
    FAST_SERIES_CUTOFF,
    FUTURE_ORACLE,
    PAST_ORACLE,
    level_from_digits,
    make_model,
    naive_decoder_agreement,
    revealed_phases,
    truth_hits,
)


def rows(blocks) -> np.ndarray:
    """Blocks of one length as the rows of a uint8 matrix."""
    return np.array([list(b) for b in blocks], np.uint8).reshape(len(blocks), -1)


def decode(decoder, block) -> int:
    """The level an array decoder gives one block."""
    return decoder(rows([block]))[0]


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
    assert decode(past_decoder("hpm1"), block) == expected


@pytest.mark.parametrize(
    "block,expected",
    [
        ([0, 1, 0, 0, 1, 0, 0], 3),
        ([0, 0, 0, 0, 0, 0, 0], 0),
        ([1, 0, 1, 0], 2),
    ],
)
def test_decode_future_hpm1_mirrors(block, expected):
    assert decode(future_decoder("hpm1"), block) == expected


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
        assert decode(past_decoder("hpm2"), block) == 6
    else:
        assert decode(past_decoder("hpm2"), block) == expected


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
    assert decode(future_decoder("hpm2"), block) == expected


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
    assert decode(past_decoder("hmc"), block) == expected


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
    assert decode(future_decoder("hmc"), block) == expected


def test_decoders_reject_foreign_symbols():
    with pytest.raises(ValueError, match=r"^symbol 2 outside alphabet 0\.\.1$"):
        decode(past_decoder("hpm1"), [0, 2, 0])
    with pytest.raises(ValueError, match=r"^symbol 3 outside alphabet 0\.\.2$"):
        decode(past_decoder("hpm2"), [0, 3, 0])
    with pytest.raises(ValueError, match=r"^symbol 4 outside alphabet 0\.\.3$"):
        decode(past_decoder("hmc"), [0, 4, 0])
    with pytest.raises(ValueError, match=r"^symbol 7 outside alphabet 0\.\.3$"):
        decode(future_decoder("hmc"), bytes([3, 2, 7, 4, 0]))


@pytest.mark.parametrize(
    "shape", [(3, 0), (0, 0), (5,), (2, 3, 4)], ids=["no columns", "empty", "vector", "3-D"]
)
def test_decoders_reject_anything_but_a_matrix_with_columns(shape):
    # Each is named before the decoder divides its chunk by the column count.
    message = f"blocks must be a (k, n) matrix with n >= 1, got shape {shape}"
    for kind in Kind:
        for rule in (past_decoder(kind), future_decoder(kind)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rule(np.zeros(shape, np.uint8))


def test_level_from_digits_matches_bit_loop():
    for length in range(13):
        for digits in product((0, 1), repeat=length):
            m = 1
            for d in digits:
                m = (m << 1) | d
            assert level_from_digits(bytes(digits)) == m, digits


def test_decoders_are_total_on_unreachable_blocks():
    # Unreachable observable content decodes to 0 rather than raising.
    assert decode(past_decoder("hpm2"), [2, 2, 2, 2]) == 0
    assert decode(past_decoder("hmc"), [2, 3, 2, 3]) == 0
    assert decode(future_decoder("hmc"), [3, 3, 2, 2]) == 0


# ----- array decoders against the scalar oracle -----------------------------------


@pytest.mark.parametrize("kind", list(Kind))
def test_array_decoders_match_oracle_on_every_short_block(kind):
    for length in range(1, 9):
        blocks = np.array(list(product(ALPHABETS[kind], repeat=length)), np.uint8)
        for decoder, oracle in ((past_decoder, PAST_ORACLE), (future_decoder, FUTURE_ORACLE)):
            expected = [oracle[kind](bytes(b)) for b in blocks]
            assert decoder(kind)(blocks).tolist() == expected, (kind, length)


@st.composite
def emission_blocks(draw):
    """A kind and every length-n block of a stretch of its emissions: one
    level's repeated word for a cyclic kind, a run of words for hmc."""
    kind = draw(st.sampled_from(list(Kind)))
    n = draw(st.one_of(st.integers(1, 140), st.integers(126, 140)))
    top = max(2, n // 2)  # the longest period a block of length n reveals
    if kind is Kind.HPM1:
        level = st.integers(2, top + 2)
    else:  # at n >= 126 the longest periods hold words of 62+ digits, past int64
        period = st.one_of(st.integers(2, top + 2), st.just(top))
        level = period.flatmap(lambda s: st.integers(1 << (s - 1), (1 << s) - 1))
    levels = draw(st.lists(level, min_size=1, max_size=8 if kind is Kind.HMC else 1))
    model = make_model(kind.value, 1.5)
    words = b"".join(model.emission_word(m) for m in levels)
    text = words * (3 * n // len(words) + 2)
    start = draw(st.integers(0, len(words) - 1))
    return kind, rows([text[t : t + n] for t in range(start, start + 2 * n)])


@seed(20240611)
@settings(max_examples=150, deadline=None, database=None)
@given(emission_blocks())
def test_array_decoders_match_oracle_on_emission_windows(case):
    kind, blocks = case
    for decoder, oracle in ((past_decoder, PAST_ORACLE), (future_decoder, FUTURE_ORACLE)):
        assert decoder(kind)(blocks).tolist() == [oracle[kind](bytes(b)) for b in blocks]


@pytest.mark.parametrize("kind", ("hpm2", "hmc"))
def test_digit_words_beyond_int64_decode_exactly(kind):
    # A 64-digit word: int64 would wrap the level to 3.  The hmc table also
    # holds blocks that reveal no level, so it has two label groups.
    level = 2**64 + 3
    table = enumerate_joint(make_model(kind, 2.0, fixed_level=level), 130, level)
    assert mi_decomposition_residual(table, kind).passed
    prof = table.profile
    groups = _label_profile(table, past_decoder(kind), future_decoder(kind))[0]
    past_levels = [PAST_ORACLE[Kind(kind)](bytes(b)) for b in prof.past_blocks]
    future_levels = [FUTURE_ORACLE[Kind(kind)](bytes(b)) for b in prof.future_blocks]
    ids: dict = {}
    past = [ids.setdefault(z, len(ids)) for z in past_levels]
    future = [ids.setdefault(z, len(ids)) for z in future_levels]
    assert level in ids
    assert groups[1].tolist() == past and groups[2].tolist() == future
    assert groups[0].tolist() == [past[i] for i in prof.past]
    assert past_decoder(kind)(prof.past_blocks).tolist() == past_levels
    assert future_decoder(kind)(prof.future_blocks).tolist() == future_levels


# ----- agreement on sampled windows ----------------------------------------------


def _phase_bounds(phases: range) -> tuple[int, int]:
    return (phases.start, phases.stop) if phases else (0, 0)


@pytest.mark.parametrize("kind", list(Kind))
def test_revealed_phase_bounds_match_the_scalar_rule(kind):
    # The array rule takes int64 levels below 2**62; verify clips larger
    # levels to _CLIP, which must reveal exactly what the level itself does.
    levels = [*range(2, 4097), 2**31 - 1, 2**31, 2**31 + 1, 2**61 + 3, 2**62 - 2, 2**62 - 1]
    big = [_CLIP + 1, 2**40 + 7, 2**62, 2**63 + 5, 3**90]
    clipped = np.minimum(np.array(big, dtype=object), _CLIP).astype(np.int64)
    for n in range(1, 65):
        lo, hi = _revealed_phase_bounds(kind, np.array(levels, np.int64), n)
        expected = [_phase_bounds(revealed_phases(kind, m, n)) for m in levels]
        assert list(zip(lo.tolist(), hi.tolist())) == expected, n
        lo, hi = _revealed_phase_bounds(kind, clipped, n)
        expected = [_phase_bounds(revealed_phases(kind, m, n)) for m in big]
        assert list(zip(lo.tolist(), hi.tolist())) == expected, n
    # Every kind reveals some level at n = 64, so the comparison is not
    # between empty rules.
    assert any(_phase_bounds(revealed_phases(kind, m, 64)) != (0, 0) for m in levels)


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
    # A passing run's margin counts the windows with a defined truth.
    assert check.margin == float(truth_hits(check.detail))

    true_past, oracle_past = past_decoder(kind), PAST_ORACLE[Kind(kind)]

    def faulty(blocks):
        v = true_past(blocks)
        return np.where(v == 2, 3, v)

    def faulty_oracle(block):
        return 3 if oracle_past(block) == 2 else oracle_past(block)

    check = check_decoder_agreement(model, windows=2_345, seed=91, past_override=faulty)
    assert check.detail == naive_decoder_agreement(model, 2_345, 91, faulty_oracle)
    # A failing run's margin is minus its disagreements and truth errors.
    failures = re.search(r"(\d+) past/future disagreements, (\d+)/", check.detail).groups()
    assert not check.passed and check.margin == -float(sum(map(int, failures)))


@pytest.mark.parametrize(
    "kind,alpha,fixed_level,windows",
    [
        (kind, alpha, None, (1, 499, 500, 501, 2_345))
        for kind in ("hpm1", "hpm2", "hmc")
        for alpha in (1.5, 2.0)
    ]
    # Level 5 reveals itself to hpm1 blocks at n = 12 only; level 2**70 + 3
    # never reveals, and its hpm1 phases exceed int64.
    + [("hpm1", 1.5, 5, (501, 2_345))]
    + [(kind, 1.5, 2**70 + 3, (501, 2_345)) for kind in ("hpm1", "hpm2", "hmc")],
)
def test_decoder_agreement_matches_oracle_over_a_grid(kind, alpha, fixed_level, windows):
    # 1 to 501 windows leave the last trajectory, and the n = 12 group,
    # partial or empty.
    model = make_model(kind, alpha, fixed_level)
    true_past, oracle_past = past_decoder(kind), PAST_ORACLE[Kind(kind)]

    def faulty(blocks):
        v = true_past(blocks)
        return np.where(v != 0, v + 1, 0)

    def faulty_oracle(block):
        v = oracle_past(block)
        return v + 1 if v else 0

    for count in windows:
        for override, oracle in ((None, None), (faulty, faulty_oracle)):
            check = check_decoder_agreement(model, windows=count, seed=91, past_override=override)
            assert check.detail == naive_decoder_agreement(model, count, 91, oracle), (count, oracle)
    if fixed_level == 5:
        assert truth_hits(check.detail) == 1_000  # the two n = 12 streams
    if fixed_level == 2**70 + 3:
        assert truth_hits(check.detail) == 0


@pytest.mark.parametrize("windows", (0, -5))
def test_decoder_agreement_rejects_no_windows(windows):
    with pytest.raises(ValueError, match=f"windows must be >= 1, got {windows}"):
        check_decoder_agreement(make_model("hpm1", 1.5), windows=windows)


@pytest.fixture(scope="module")
def benchmark_ledger():
    """run_verification at the verify benchmark's scale."""
    return run_verification(alpha=1.5, block_lengths=(2, 4, 8))


def test_verify_pins_the_benchmark_decoder_details(benchmark_ledger):
    # A change to the sampled windows would change these counts.
    ledger = benchmark_ledger
    details = {c.name: c.detail for c in ledger.checks if c.name.startswith("decoder_agreement")}
    assert details == {
        f"decoder_agreement[{kind}]": f"100000 windows, 0 past/future disagreements, {truth}"
        for kind, truth in (
            ("hpm1", "0/45000 hidden-truth mismatches"),
            ("hpm2", "0/59500 hidden-truth mismatches"),
            ("hmc", "0/19624 hidden-truth mismatches"),
        )
    }


def test_verify_margins_are_not_pinned_at_their_tolerances(benchmark_ledger):
    # The n = 2 partial sum equals its bracket's upper end, and an event
    # true on every entry has triple information 0 and H(1_B) = 0: both hold
    # with equality by construction, and held these margins at the 1e-12 and
    # 1e-9 tolerances on every run.  They are left out of the minimum.
    margins = {c.name: c.margin for c in benchmark_ledger.checks}
    assert margins["series_brackets"] > 1e-12
    assert margins["triple_bound"] > 1e-9
    # A passing decoder check counts its windows with a defined truth.
    assert {k: margins[f"decoder_agreement[{k}]"] for k in ("hpm1", "hpm2", "hmc")} == {
        "hpm1": 45000.0,
        "hpm2": 59500.0,
        "hmc": 19624.0,
    }


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


def test_decomposition_check_fails_on_a_wrong_conditional_mi(monkeypatch):
    # A fault that moves every group's entropies by half a bit moves
    # I(past; future | D) by half a bit.  The residual is an identity among
    # plug-in values, so roundoff is all the allowance may forgive; the
    # certified half-widths of hpm2 and hmc tables run to tens of bits.
    import excesslab.exact as exact

    tables = {
        ("hpm2", 1.5, 8): enumerate_joint(make_model("hpm2", 1.5), 8, 15),
        ("hmc", 1.5, 6): enumerate_joint(make_model("hmc", 1.5), 6, 32),
    }
    for (kind, _, _), table in tables.items():
        assert mi_decomposition_residual(table, kind).passed
    grouped = exact._grouped_entropy
    monkeypatch.setattr(exact, "_grouped_entropy", lambda *runs: grouped(*runs) + 0.5)
    for (kind, _, _), table in tables.items():
        chk = mi_decomposition_residual(table, kind)
        assert abs(chk.residual) > 0.4 and not chk.passed, (kind, chk.residual, chk.allowance)
    check = check_decomposition(tables)
    assert not check.passed
    assert "hpm2 alpha=1.5 n=8: residual" in check.detail
    assert "hmc alpha=1.5 n=6: residual" in check.detail


def test_decomposition_decodes_each_distinct_block_once(monkeypatch):
    import excesslab.decoders as decoders

    calls = []

    def counting(side):
        def decoder(kind):
            def wrapped(blocks):
                calls.extend(blocks)
                return side(kind)(blocks)

            return wrapped

        return decoder

    monkeypatch.setattr(decoders, "past_decoder", counting(past_decoder))
    monkeypatch.setattr(decoders, "future_decoder", counting(future_decoder))
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
    assert abs(e.value - h.value - cond.value) <= (cond.hi - cond.value) + 1e-12


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
