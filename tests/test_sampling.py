"""Sampling contracts: reproducibility, level-law frequencies, trajectory
structure, and estimator behaviour on known targets."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from excesslab.exact import _plug_in_mi, block_mi, enumerate_joint
from excesslab.models import binary_length
from excesslab.sampling import (
    _MASK32,
    Trajectory,
    _branch_tables,
    _lemire32,
    _philox,
    _prefix_levels,
    _sliding_resamples,
    _stationary_tables,
    _stream_keys,
    estimate_block_mi,
    sample_level,
    sample_trajectories,
    sample_trajectory,
    _generator,
)

from excesslab.series import LN2

from conftest import (
    FAST_SERIES_CUTOFF,
    branch_probability,
    emission,
    hidden_states,
    level_mass,
    make_model,
    naive_estimate,
    oracle_sample,
    word_runs,
)


# ----- level sampler ---------------------------------------------------------


@pytest.mark.parametrize("alpha", (1.2, 1.5, 2.0))
def test_prefix_tables_match_plain_expressions_bit_for_bit(alpha):
    # The tables are built in place; every draw depends on their exact bits.
    c_mid, cdf = _stationary_tables(alpha, FAST_SERIES_CUTOFF)
    d_mid, branch_cdf, group_cdf = _branch_tables(alpha, FAST_SERIES_CUTOFF)
    m = np.arange(2, 1 << 20, dtype=np.float64)
    s = np.frexp(m)[1].astype(np.float64)
    assert cdf.tobytes() == np.cumsum(c_mid / (m * np.log2(m) ** alpha)).tobytes()
    assert branch_cdf.tobytes() == np.cumsum(d_mid / (3.0 * s * m * np.log2(m) ** alpha)).tobytes()
    js = np.arange(21, 21 + 20000, dtype=np.float64)
    ints = LN2 / (alpha - 1.0) * ((js - 1.0) ** (1.0 - alpha) - js ** (1.0 - alpha))
    expected_groups = float(branch_cdf[-1]) + np.cumsum(d_mid * ints / (3.0 * js))
    assert group_cdf.tobytes() == expected_groups.tobytes()


def test_level_law_frequency_of_level_two():
    model = make_model("hpm1", 1.5)
    rng = _generator(11, (0,))
    draws = 1_000_000
    hits = sum(1 for _ in range(draws) if sample_level(model, rng) == 2)
    p = level_mass(model, 2).mid
    se = math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) <= 4 * se


def test_level_law_constant_free_ratio():
    model = make_model("hpm2", 1.5)
    rng = _generator(12, (0,))
    counts = {2: 0, 4: 0}
    for _ in range(200_000):
        lvl = sample_level(model, rng)
        if lvl in counts:
            counts[lvl] += 1
    ratio = counts[2] / counts[4]
    assert ratio == pytest.approx(2.0 ** (1.5 + 1.0), rel=0.05)


def test_level_sampler_heavy_tail_is_sampled():
    model = make_model("hpm1", 1.5)
    rng = _generator(13, (0,))
    draws = [sample_level(model, rng) for _ in range(20_000)]
    assert any(d > 1 << 40 for d in draws)
    assert all(d >= 2 for d in draws)


def test_fixed_seed_reproduces_draws():
    model = make_model("hpm1", 1.5)
    a = [sample_level(model, _generator(99, (0,))) for _ in range(1)]
    b = [sample_level(model, _generator(99, (0,))) for _ in range(1)]
    rng1, rng2 = _generator(99, (0,)), _generator(99, (0,))
    seq1 = [sample_level(model, rng1) for _ in range(1000)]
    seq2 = [sample_level(model, rng2) for _ in range(1000)]
    assert seq1 == seq2


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(
    entropy=st.integers(0, 2**160),
    streams=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
@example(entropy=0, streams=[])
@example(entropy=2**32 - 1, streams=[])
@example(entropy=2**32, streams=[])
@example(entropy=2**64, streams=[])
@example(entropy=2**128 + 5, streams=[])
def test_stream_keys_match_seed_sequence(entropy, streams):
    streams = np.array([0, 1, 2**32 - 1, *streams], dtype=np.int64)
    keys = _stream_keys(entropy, streams)
    assert keys.shape == (len(streams), 2) and keys.dtype == np.uint64
    for stream, key in zip(streams, keys):
        expected = np.random.SeedSequence(entropy=entropy, spawn_key=(int(stream),))
        assert (key == expected.generate_state(2, np.uint64)).all(), (entropy, stream)


def test_stream_keys_reject_streams_past_one_word():
    with pytest.raises(ValueError, match="stream 4294967296"):
        _stream_keys(5, np.array([3, 2**32]))
    with pytest.raises(ValueError, match="stream -1"):
        _stream_keys(5, np.array([-1]))
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        _stream_keys(-3, np.arange(2))


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(
    keys=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), max_size=8),
    counter=st.integers(0, 2**256 - 2),
)
@example(keys=[], counter=2**64 - 1)  # the increment carries into the second word
def test_philox_port_matches_numpy(keys, counter):
    keys = np.array([(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), *keys], dtype=np.uint64)
    # numpy increments the counter, then fills its buffer with the block.
    after = counter + 1
    words = tuple(np.full(len(keys), (after >> (64 * i)) & (2**64 - 1), np.uint64) for i in range(4))
    blocks = np.stack(_philox(words, keys), axis=1)
    for key, block in zip(keys, blocks):
        bits = np.random.Philox(key=key)
        state = bits.state
        state["state"]["counter"] = [(counter >> (64 * i)) & (2**64 - 1) for i in range(4)]
        bits.state = state
        expected = bits.random_raw(4)
        assert (block == expected).all(), f"numpy {np.__version__}: key {key}, counter {counter}"


@pytest.mark.parametrize("r", [2, 3, 7, 19_715, 2**20 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_bounded_draw_matches_numpy_integers(r):
    # integers(0, r) takes 32-bit halves of the 64-bit outputs, low half
    # first, until the bounded draw accepts one.  r = 2**31 + 1 rejects
    # about half of them.
    rng = np.random.default_rng(r)
    keys = rng.integers(0, 2**64, size=(200, 2), dtype=np.uint64)
    keys[:2] = [(0, 0), (2**64 - 1, 2**64 - 1)]
    rejections = 0
    for key in keys:
        words = np.random.Philox(key=key).random_raw(32).tolist()
        halves = [h for w in words for h in (w & _MASK32, w >> 32)]
        for half in halves:
            draw, rejected = _lemire32(np.array([half], np.uint64), np.array([r]))
            rejections += bool(rejected[0])
            if not rejected[0]:
                break
        expected = np.random.Generator(np.random.Philox(key=key)).integers(0, r)
        assert int(draw[0]) == expected, f"numpy {np.__version__}: key {key}, r {r}"
    if r == 2**31 + 1:
        assert rejections > 50


def test_first_block_of_a_stream_whose_phase_draw_rejects():
    # Found by search: stream 28 of seed 5674 draws level 19,715 of hpm1 at
    # alpha 1.5 from the prefix table, and the bounded draw of its phase
    # rejects the low half of word 1, so the pooled sampler leaves the stream
    # to the scalar sampler (test_samplers_equal_scalar_oracle runs it).
    model = make_model("hpm1", 1.5)
    _, cdf = _stationary_tables(1.5, FAST_SERIES_CUTOFF)
    zero = np.zeros(1, np.uint64)
    word0, word1, _, _ = _philox((zero + np.uint64(1), zero, zero, zero), _stream_keys(5674, np.array([28])))
    u = (word0 >> np.uint64(11)) * 2.0**-53
    assert u[0] < cdf[-1] and int(_prefix_levels(cdf, u)[0]) == 19_715
    assert _lemire32(word1 & np.uint64(_MASK32), np.array([19_715]))[1][0]
    assert sample_trajectory(model, 40, 5674, stream=28).initial_state.level == 19_715


# ----- trajectories -------------------------------------------------------------


def test_trajectory_determinism_and_streams():
    model = make_model("hpm2", 1.5)
    a = sample_trajectory(model, 200, seed=5)
    b = sample_trajectory(model, 200, seed=5)
    c = sample_trajectory(model, 200, seed=5, stream=1)
    assert a.symbols == b.symbols
    assert a.symbols != c.symbols


def _symbols_from_words(model, traj):
    """The symbols of `traj`, cut from whole emission words of its record."""
    out = []
    for start, stop, state in word_runs(traj):
        word, k = model.emission_word(state.level), state.phase - 1
        out.append((word * ((k + stop - start) // len(word) + 1))[k : k + stop - start])
    return b"".join(out)


def _assert_samplers_equal_oracle(model, count: int, length: int, seed: int) -> list:
    """Both entry points against the scalar sampler, field by field."""
    pooled = sample_trajectories(model, count, length, seed)
    assert len(pooled) == count
    for stream, traj in enumerate(pooled):
        single = sample_trajectory(model, length, seed, stream=stream)
        expected = oracle_sample(model, length, seed, stream)
        for f in dataclasses.fields(Trajectory):
            case = (f.name, model, length, seed, stream)
            assert getattr(traj, f.name) == getattr(expected, f.name), case
            assert getattr(single, f.name) == getattr(expected, f.name), case
    return pooled


@pytest.mark.parametrize("kind, r", [("hpm1", 40), ("hpm2", 6)])
@pytest.mark.parametrize("over", [1, 0, -1])
def test_fixed_cycle_near_the_window_length_equals_scalar_oracle(kind, r, over):
    # A cycle of r = length - 1, length or length + 1 symbols: the window
    # wraps round the cycle, ends where it ends, or stops one short of it.
    level = r if kind == "hpm1" else (1 << (r - 1)) + 5
    model = make_model(kind, 1.5, fixed_level=level)
    assert model.phase_count(level) == r
    _assert_samplers_equal_oracle(model, 3 * r, r + over, 20261019)


@seed(20261021)
@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(["hpm1", "hpm2", "hmc"]),
    alpha=st.sampled_from([1.2, 1.5, 2.0]),
    fixed_level=st.sampled_from([None, None, None, 2, 2**70 + 3]),
    length=st.integers(1, 600),
    entropy=st.integers(0, 2**64),
    count=st.integers(1, 12),
)
@example(kind="hpm1", alpha=1.5, fixed_level=None, length=40, entropy=5674, count=29)
def test_samplers_equal_scalar_oracle(kind, alpha, fixed_level, length, entropy, count):
    _assert_samplers_equal_oracle(make_model(kind, alpha, fixed_level), count, length, entropy)


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_sample_trajectories_equal_per_stream_sampler(kind):
    # Every trajectory must be the one the scalar sampler draws, field by
    # field, whichever way it is drawn: from the first Philox block, by the
    # scalar tail, or by hmc branch draws in blocks with tail draws between.
    # Symbols read with emission_slice must be those of the whole words
    # (hpm1 never builds a word: its words reach 2**(2**20) symbols).
    cases = [
        (make_model(kind, alpha), length, seed, 300)
        for alpha in (1.2, 1.5, 2.0)
        for length, seed in ((1, 171), (16, 172), (64, 173))
    ]
    cases += [(make_model(kind, 1.5, fixed_level=level), 64, 174, 20) for level in (2, 2**70 + 3)]
    levels, branch_levels, wraps = [], [], 0
    for model, length, seed, count in cases:
        for traj in _assert_samplers_equal_oracle(model, count, length, seed):
            if kind != "hpm1":
                assert traj.symbols == _symbols_from_words(model, traj), (length, seed, traj.stream)
            state = traj.initial_state
            levels += [state.level, *traj.word_levels]
            branch_levels += traj.word_levels
            r = model.phase_count(state.level)
            wraps += r > length and state.phase - 1 + length > r
    # The draws reach the tail beyond the prefix table, the log-uniform
    # within-group draw past 512 digits (its low bits come from rng.bytes),
    # and windows that run off the end of their word; hmc words reach the
    # branch tail.
    assert any(level > 1 << 20 for level in levels)
    assert any(level.bit_length() > 512 for level in levels)
    assert wraps > 0
    if kind == "hmc":
        assert any(level > 1 << 20 for level in branch_levels)


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_longer_trajectory_starts_with_the_shorter_one(kind, alpha):
    # `verify.check_decoder_agreement` samples its n = 6 streams at 524
    # symbols and reads only the first 512.
    model = make_model(kind, alpha)
    longer_records = 0
    for long in sample_trajectories(model, 40, 524, 2024):
        short = sample_trajectory(model, 512, 2024, stream=long.stream)
        assert long.symbols[:512] == short.symbols, long.stream
        assert long.initial_state == short.initial_state, long.stream
        assert long.word_levels[: len(short.word_levels)] == short.word_levels, long.stream
        longer_records += len(long.word_levels) > len(short.word_levels)
    assert (longer_records > 0) == (kind == "hmc")


def _digest(trajectories) -> str:
    h = hashlib.sha256()
    for t in trajectories:
        state = t.initial_state
        fields = (t.symbols.hex(), t.stream, hex(state.level), hex(state.phase), *map(hex, t.word_levels))
        h.update(repr(fields).encode())
    return h.hexdigest()


def test_trajectory_digests_are_pinned():
    # Computed with the scalar sampler (one numpy call per variate), before
    # levels, phases and branch levels were drawn in blocks.
    pinned = {
        "97955a9654f1070450f16a22384cc8feacca0fc187c4572a20f16095c9b960db": lambda: (
            sample_trajectories(make_model("hpm1", 1.5), 3000, 16, 601)
        ),
        "92077eb83edb65ddd8a9abab19380aa3e98fcde9eb02ac62d828518498a9bcc1": lambda: (
            sample_trajectories(make_model("hpm2", 1.2), 3000, 16, 602)
        ),
        "fad13788a891705ed2029f35d0680a5382af0e1e8ec00b33ff57702fefced761": lambda: (
            sample_trajectories(make_model("hpm2", 2.0), 500, 64, 603)
        ),
        "8c955302b198e3f4edf100aaa253a13dd6f963ef108d1506498c5f182a63e65e": lambda: (
            [sample_trajectory(make_model("hmc", 1.5), 30_000, 604)]
        ),
        "5f4fb2c8784485da170871c8c03bfdc9f4c3f6c32e33cbbb93afd53e46ddb158": lambda: (
            sample_trajectories(make_model("hmc", 1.2), 100, 600, 605)
        ),
    }
    for expected, sample in pinned.items():
        assert _digest(sample()) == expected


def test_seed_and_stream_errors_name_the_value():
    model = make_model("hpm2", 1.5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_trajectory(model, 8, -1)
    with pytest.raises(ValueError, match="stream must be >= 0, got -2"):
        sample_trajectory(model, 8, 3, stream=-2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_trajectories(model, 4, 8, -1)
    for sample in (lambda: sample_trajectory(model, 8, 1.5), lambda: sample_trajectories(model, 4, 8, 1.5)):
        with pytest.raises(TypeError, match="seed must be an integer, got 1.5"):
            sample()
    with pytest.raises(TypeError, match="stream must be an integer, got '1'"):
        sample_trajectory(model, 8, 3, stream="1")


def test_sample_trajectories_check_their_arguments_first():
    model = make_model("hpm2", 1.5)
    for count in (0, 3):
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            sample_trajectories(model, count, 0, seed=1)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        sample_trajectories(model, -1, 8, seed=1)
    assert sample_trajectories(model, 0, 8, seed=1) == []


def test_hpm1_window_marker_structure():
    model = make_model("hpm1", 1.5)
    for stream in range(60):
        traj = sample_trajectory(model, 400, seed=21, stream=stream)
        level = traj.initial_state.level
        if level > 150:
            continue
        window = traj.symbols[: 2 * level]
        ones = [i for i, x in enumerate(window) if x == 1]
        assert len(ones) == 2
        assert ones[1] - ones[0] == level


def test_cyclic_kinds_never_change_level():
    for kind in ("hpm1", "hpm2"):
        model = make_model(kind, 1.5)
        traj = sample_trajectory(model, 300, seed=31)
        levels = {s.level for s in hidden_states(traj)}
        assert len(levels) == 1


def test_hmc_separator_runs_have_length_digit_count_plus_one():
    model = make_model("hmc", 1.5)
    traj = sample_trajectory(model, 3000, seed=41)
    states = hidden_states(traj)
    sym = traj.symbols
    runs = []
    i = 0
    while i < len(sym):
        if sym[i] == 3:
            j = i
            while j < len(sym) and sym[j] == 3:
                j += 1
            if i > 0 and j < len(sym):  # interior run only
                runs.append((i, j - i))
            i = j
        else:
            i += 1
    assert runs
    for start, length in runs:
        level = states[start].level
        assert length == binary_length(level) + 1


def test_hmc_word_start_level_frequencies():
    model = make_model("hmc", 1.5)
    counts = {2: 0, 3: 0}
    starts = 0
    traj = sample_trajectory(model, 60_000, seed=51)
    states = hidden_states(traj)
    for prev, cur in zip(states, states[1:]):
        if cur.phase == 1:  # word boundary
            starts += 1
            if cur.level in counts:
                counts[cur.level] += 1
    # branch law, not the stationary level law
    p2 = branch_probability(model, 2).mid
    se = math.sqrt(p2 * (1 - p2) / starts)
    assert abs(counts[2] / starts - p2) <= 5 * se


# ----- estimators ------------------------------------------------------------------


def test_iid_bits_estimate_near_zero():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=1_000_000 + 7, dtype=np.uint8).tobytes()
    traj = Trajectory(symbols=bits, seed=7, stream=0, kind="hpm1", alpha=2.0)
    report = estimate_block_mi(traj, 4, bootstrap_resamples=4)
    assert abs(report.point_estimate) <= 0.01
    assert report.regime == "sliding"
    mm = estimate_block_mi(traj, 4, method="miller_madow", bootstrap_resamples=4)
    assert abs(mm.point_estimate) <= abs(report.point_estimate)


def test_degenerate_cycle_estimate_is_one_bit():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    # even number of sliding windows so the two pair types are equifrequent
    traj = sample_trajectory(deg, 2 * 2 + 2 * 3 - 1, seed=71)
    report = estimate_block_mi(traj, 2, bootstrap_resamples=2)
    assert report.point_estimate == pytest.approx(1.0)


def test_pooled_regime_for_trajectory_lists():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    trajs = sample_trajectories(deg, 30, 8, seed=81)
    report = estimate_block_mi(trajs, 2)
    assert report.regime == "pooled"
    assert report.trajectory_count == 30
    assert report.point_estimate == pytest.approx(1.0, abs=0.1)


def test_estimates_are_reproducible():
    model = make_model("hpm2", 1.5)
    trajs1 = sample_trajectories(model, 200, 12, seed=91)
    trajs2 = sample_trajectories(model, 200, 12, seed=91)
    r1 = estimate_block_mi(trajs1, 3, bootstrap_resamples=16, bootstrap_seed=3)
    r2 = estimate_block_mi(trajs2, 3, bootstrap_resamples=16, bootstrap_seed=3)
    assert r1.point_estimate == r2.point_estimate
    assert r1.std_error == r2.std_error


def test_plug_in_estimates_bounded():
    model = make_model("hpm2", 1.5)
    trajs = sample_trajectories(model, 400, 8, seed=101)
    report = estimate_block_mi(trajs, 4)
    assert 0.0 <= report.point_estimate <= 4 * math.log2(3)


def test_insufficient_data_errors_name_the_minimum():
    model = make_model("hpm1", 1.5)
    short = sample_trajectory(model, 8, seed=111)
    with pytest.raises(ValueError, match="length >= 11"):
        estimate_block_mi(short, 4)
    # pooled minimum is 2n per trajectory, plus a window-count floor
    tiny = sample_trajectory(model, 7, seed=112)
    with pytest.raises(ValueError, match="length >= 8"):
        estimate_block_mi([tiny], 4)
    one_window = sample_trajectory(model, 8, seed=113)
    with pytest.raises(ValueError, match=">= 4 windows"):
        estimate_block_mi([one_window], 4)


def test_bootstrap_that_cannot_spread_is_an_error():
    # One resample, or a trajectory bootstrap of one trajectory, has no
    # spread; its standard error used to read 0.0, as if the estimate were
    # exact.  No bootstrap at all still reports 0.0.
    model = make_model("hpm2", 1.5)
    trajs = sample_trajectories(model, 200, 16, seed=114)
    for data in (trajs, trajs[0]):
        with pytest.raises(ValueError, match="bootstrap_resamples must be 0 or >= 2, got 1"):
            estimate_block_mi(data, 8, bootstrap_resamples=1)
        assert estimate_block_mi(data, 2, bootstrap_resamples=0).std_error == 0.0
    assert estimate_block_mi(trajs, 8, bootstrap_resamples=2).std_error > 0.0
    for resamples in (2, 64):
        with pytest.raises(ValueError, match=f"^{resamples} bootstrap resamples need >= 2 pooled trajectories, got 1$"):
            estimate_block_mi(trajs[:1], 2, bootstrap_resamples=resamples)


def test_estimator_rejects_symbols_it_cannot_pack():
    # Blocks are packed 2 bits per symbol, so a 4 would collide with another
    # block instead of counting as a new one.
    symbols = bytes([0, 1, 2, 3] * 5 + [4])
    traj = Trajectory(symbols=symbols, seed=0, stream=0, kind="hpm2", alpha=1.5)
    for data in (traj, [traj]):
        with pytest.raises(ValueError, match="symbol 4 outside 0..3"):
            estimate_block_mi(data, 2)


def test_pooled_estimate_lands_in_certified_interval():
    # The exact certified interval at this truncation is wide; the estimator
    # must land inside it by a comfortable margin.
    model = make_model("hpm2", 1.5)
    table = enumerate_joint(model, 12, 63)
    exact = block_mi(table)
    trajs = sample_trajectories(model, 1500, 24, seed=121)
    report = estimate_block_mi(trajs, 12, method="miller_madow", bootstrap_resamples=16)
    lo = exact.lower - 3 * report.std_error
    hi = exact.upper + 3 * report.std_error
    assert lo <= report.point_estimate <= hi


def test_symbols_match_emissions_of_hidden_states():
    for kind in ("hpm1", "hpm2", "hmc"):
        model = make_model(kind, 1.5)
        traj = sample_trajectory(model, 400, seed=131)
        for t, state in enumerate(hidden_states(traj)):
            if state.level.bit_length() > 24:
                continue  # emission recomputes digits; skip the huge-level case
            assert traj.symbols[t] == emission(model, state), (kind, t, state)


@pytest.mark.parametrize("kind", ["hpm2", "hmc"])
def test_big_level_symbols_match_emissions_of_hidden_states(kind):
    # A level far past 2**24 takes the same word slicing as small levels.
    level = 2**40 + 12345
    model = make_model(kind, 1.5, fixed_level=level)
    for stream in range(4):
        traj = sample_trajectory(model, 400, seed=133, stream=stream)
        states = hidden_states(traj)
        assert len(states) == len(traj.symbols)
        assert {s.level for s in states} == {level}
        assert list(traj.symbols) == [emission(model, state) for state in states]


def test_hmc_per_step_level_occupation_matches_stationary_law():
    model = make_model("hmc", 1.5)
    traj = sample_trajectory(model, 120_000, seed=141)
    states = hidden_states(traj)
    steps = len(states)
    for level in (2, 3):
        occ = sum(1 for s in states if s.level == level) / steps
        p = level_mass(model, level).mid
        # dependent samples: use a generous band of 10 iid-equivalent sigmas
        se = math.sqrt(p * (1 - p) / steps)
        assert abs(occ - p) <= 10 * se + 0.01, (level, occ, p)


def test_single_trajectory_underestimates_ensemble_mi():
    # Nonergodic kinds: one trajectory stays on one cycle, so the sliding
    # estimate measures that component's phase information, not E(n).
    model = make_model("hpm1", 1.5)
    stream = next(
        s
        for s in range(200)
        if sample_trajectory(model, 4, seed=151, stream=s).initial_state.level == 2
    )
    single = sample_trajectory(model, 2000, seed=151, stream=stream)
    sliding = estimate_block_mi(single, 4, bootstrap_resamples=4)
    assert sliding.point_estimate == pytest.approx(1.0, abs=0.05)  # log2(level 2 cycle)
    pooled = estimate_block_mi(sample_trajectories(model, 3000, 8, seed=152), 4)
    assert pooled.point_estimate > sliding.point_estimate + 10 * sliding.std_error


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_estimator_matches_counter_oracle(kind):
    model = make_model(kind, 1.5)
    lengths = np.random.default_rng(161)
    for n in (1, 3, 8, 16, 40):
        single = sample_trajectory(model, 60 * n, seed=162, stream=n)
        pooled = [
            sample_trajectory(model, int(lengths.integers(2 * n, 6 * n + 3)), seed=163, stream=s)
            for s in range(40)
        ]
        for data in (single, pooled):
            for method in ("plugin", "miller_madow"):
                for resamples in (0, 2, 9):
                    report = estimate_block_mi(data, n, method, resamples, bootstrap_seed=n)
                    point, std, count = naive_estimate(data, n, method, resamples, seed=n)
                    case = (n, report.regime, method, resamples)
                    assert report.sample_count == count, case
                    # Windows are numbered in first-seen order, as the oracle's Counters
                    # hold them, but a resample's Counter is filled in draw order: its
                    # MI sums in another order and agrees to ~2e-15 bits, which is more
                    # than 1e-12 of an SE near 1e-5.
                    assert report.point_estimate == pytest.approx(point, rel=1e-12, abs=1e-13), case
                    assert report.std_error == pytest.approx(std, rel=1e-12, abs=1e-13), case


@pytest.mark.parametrize("total", [5, 1000, 1021])
def test_sliding_resamples_match_the_modulo_gather(total):
    # The block length int(sqrt(total)) does not divide these totals, so the
    # last block of each resample is cut; starts near the end wrap around.
    joint_id = np.random.default_rng(171).integers(0, 50, total)
    block = int(math.sqrt(total))
    assert total % block
    rng = _generator(172, (0xB0, 0x08))
    resamples = list(_sliding_resamples(joint_id, 50, 6, 172))
    assert len(resamples) == 6
    for counts in resamples:
        starts = rng.integers(0, total, size=(total + block - 1) // block)
        picks = (starts[:, None] + np.arange(block)).ravel()[:total] % total
        assert counts.tolist() == np.bincount(joint_id[picks], minlength=50).tolist()


@pytest.mark.parametrize("kind,level", [("hpm1", 5), ("hpm2", 6)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pooled_plug_in_equals_exact_block_mi_on_one_cycle(kind, level, n):
    # One window of length 2n per phase of a fixed level has exactly the law
    # of the exact table, so the estimator and the exact engine must meet in
    # the plug-in MI they share.  Fewer than 4 phases are repeated, because
    # the estimator needs 4 windows.
    model = make_model(kind, 1.5, fixed_level=level)
    r = model.phase_count(level)
    ext = model.emission_word(level) * (2 * n // r + 2)
    trajs = [
        Trajectory(ext[k : k + 2 * n], seed=0, stream=k, kind=kind, alpha=1.5) for k in range(r)
    ] * (2 if r < 4 else 1)
    report = estimate_block_mi(trajs, n, bootstrap_resamples=0)
    table = enumerate_joint(model, n, level)
    assert report.point_estimate == pytest.approx(block_mi(table).value, abs=1e-12)

    # A bootstrap resample leaves windows with count 0, some with block ids
    # that no drawn window has; they must not move the value.
    prof = table.profile
    counts = np.rint(prof.masses * r).astype(np.int64)  # windows per entry
    padded = np.append(np.stack([counts, np.zeros_like(counts)], axis=1).ravel(), 0)
    past = np.append(np.repeat(prof.past, 2), prof.past.max() + 1)
    future = np.append(np.repeat(prof.future, 2), prof.future.max() + 1)
    assert _plug_in_mi(padded, past, future) == _plug_in_mi(counts, prof.past, prof.future)
