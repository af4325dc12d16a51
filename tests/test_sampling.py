"""Sampling contracts: reproducibility, level-law frequencies, trajectory
structure, and estimator behaviour on known targets."""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from excesslab import sampling
from excesslab.exact import _marginals_mi, block_mi, enumerate_joint
from excesslab.models import binary_length
from excesslab.sampling import (
    _CLIP,
    _STATE_LANE,
    _branch_tables,
    _exact_levels,
    _levels,
    _philox,
    _runs,
    _sliding_resamples,
    _stationary_tables,
    estimate_block_mi,
    sample_trajectories,
    sample_trajectory,
    _generator,
    _mi_from_counts,
    _xlog2x,
)

from excesslab.series import LN2

import conftest
from conftest import (
    FAST_SERIES_CUTOFF,
    Trajectory,
    branch_probability,
    emission,
    hidden_states,
    lane_int,
    level_mass,
    make_model,
    naive_estimate,
    philox_block,
    record,
    records,
    reference_sample,
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


def _initial_levels(model, seed: int, draws: int, first: int = 0) -> list[int]:
    """The initial levels of streams first..first+draws-1 of `seed`, in one
    array pass, with the levels clipped past 62 digits read whole."""
    streams = np.arange(first, first + draws, dtype=np.uint64)
    keys = np.stack([np.full(draws, seed, np.uint64), streams], axis=1)
    zero = np.zeros(draws, np.int64)
    words = _runs(keys, zero + _STATE_LANE, zero, zero + 1)
    levels, digits, tops = _levels(model, words, branch=False)
    long = np.flatnonzero(levels == _CLIP)
    exact = _exact_levels(model, keys[long], zero[long], tops[long], digits[long], words[long, 3])
    levels = levels.tolist()
    for row, level in zip(long.tolist(), exact):
        levels[row] = level
    return levels


def test_level_law_frequency_of_level_two():
    model = make_model("hpm1", 1.5)
    draws = 1_000_000
    # In passes of 100,000 streams: a level at the 2**20-digit cap is a 128 KB int.
    passes = range(0, draws, 100_000)
    hits = sum(_initial_levels(model, 11, 100_000, first).count(2) for first in passes)
    p = level_mass(model, 2).mid
    se = math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) <= 4 * se


def test_level_law_constant_free_ratio():
    model = make_model("hpm2", 1.5)
    levels = _initial_levels(model, 12, 200_000)
    ratio = levels.count(2) / levels.count(4)
    assert ratio == pytest.approx(2.0 ** (1.5 + 1.0), rel=0.05)


def test_level_sampler_heavy_tail_is_sampled():
    model = make_model("hpm1", 1.5)
    draws = _initial_levels(model, 13, 20_000)
    assert any(d > 1 << 40 for d in draws)
    assert all(d >= 2 for d in draws)


def test_fixed_seed_reproduces_draws():
    # A level is a function of (seed, stream) alone: two passes, and the
    # trajectories of single streams, give the same levels.
    model = make_model("hpm1", 1.5)
    seq1, seq2 = _initial_levels(model, 99, 1000), _initial_levels(model, 99, 1000)
    assert seq1 == seq2
    for stream in (0, 1, 999):
        assert record(sample_trajectory(model, 4, 99, stream), 99, stream).initial_state.level == seq1[stream]
    assert seq1 != _initial_levels(model, 98, 1000)


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


ENGINES = {
    "array pass": {"_FEW_RUNS": 0, "_LONG_RUN": 2**62},
    "numpy generator": {"_FEW_RUNS": 2**62},
    "both, by run length": {"_FEW_RUNS": 0, "_LONG_RUN": 3},
}


@pytest.mark.parametrize("engine", ENGINES)
def test_philox_runs_equal_python_int_philox(engine, monkeypatch):
    # Runs of consecutive draws, whichever engine reads them, against the
    # Python-int Philox of the tests; draw 0 of lane 0 sets numpy's counter
    # one step before zero, which borrows through all four words.
    for name, value in ENGINES[engine].items():
        monkeypatch.setattr(sampling, name, value)
    keys = np.array([(0, 0), (7, 2**64 - 1), (2**64 - 1, 5), (3, 4)], np.uint64)
    lanes = np.array([0, 1, 3, 2**20 + 3])
    firsts = np.array([0, 2**40, 5, 0])
    counts = np.array([3, 4, 0, 2])
    blocks = _runs(keys, lanes, firsts, counts).tolist()
    expected = [
        philox_block(tuple(map(int, key)), int(first) + k, int(lane))
        for key, lane, first, count in zip(keys, lanes, firsts, counts)
        for k in range(count)
    ]
    assert blocks == expected


@pytest.mark.parametrize(
    "r", [2, 3, 7, 19_715, 2**20 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 7]
)
def test_phase_offset_is_its_words_mod_r(r):
    # An hpm1 level has r = level phases.  The offset is word 2 of draw 0 of
    # lane 0 mod r below r = 2**32; from there on that word goes over
    # ceil(b/64) words of lane 2, for r of b binary digits.
    model = make_model("hpm1", 1.5, fixed_level=r)
    more = 0 if r < 2**32 else -(-r.bit_length() // 64)
    for traj in records(sample_trajectories(model, 50, 1, seed=r % 2**64), r % 2**64):
        key = (traj.seed, traj.stream)
        x = (philox_block(key, 0, 0)[2] << 64 * more) | lane_int(key, 2, more)
        assert traj.initial_state.phase == x % r + 1, (r, traj.stream)


# ----- trajectories -------------------------------------------------------------


def test_trajectory_determinism_and_streams():
    model = make_model("hpm2", 1.5)
    a = sample_trajectory(model, 200, seed=5)
    b = sample_trajectory(model, 200, seed=5)
    c = sample_trajectory(model, 200, seed=5, stream=1)
    assert a.symbols.tobytes() == b.symbols.tobytes()
    assert a.symbols.tobytes() != c.symbols.tobytes()


def _symbols_from_words(model, traj):
    """The symbols of `traj`, cut from whole emission words of its record."""
    out = []
    for start, stop, state in word_runs(traj):
        word, k = model.emission_word(state.level), state.phase - 1
        out.append((word * ((k + stop - start) // len(word) + 1))[k : k + stop - start])
    return b"".join(out)


def _assert_samplers_equal_oracle(model, count: int, length: int, seed: int) -> list:
    """Both entry points against the scalar reference, field by field."""
    pooled = records(sample_trajectories(model, count, length, seed), seed)
    assert len(pooled) == count
    for stream, traj in enumerate(pooled):
        single = record(sample_trajectory(model, length, seed, stream=stream), seed, stream)
        expected = reference_sample(model, length, seed, stream)
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
    entropy=st.integers(0, 2**64 - 1),
    count=st.integers(1, 12),
)
@example(kind="hpm1", alpha=1.5, fixed_level=None, length=40, entropy=5674, count=29)
def test_samplers_equal_scalar_oracle(kind, alpha, fixed_level, length, entropy, count):
    _assert_samplers_equal_oracle(make_model(kind, alpha, fixed_level), count, length, entropy)


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_sample_trajectories_equal_per_stream_sampler(kind):
    # Every trajectory must be the one the scalar reference draws, field by
    # field: at every digit count, with the fixed levels either side of 2**53
    # (where float64 stops holding a level exactly) and of 2**62 (where the
    # records clip), and for hmc in the blocks of branch draws.  Symbols
    # must be those of the whole words (hpm1 never builds a word: its words
    # reach 2**(2**20) symbols).
    cases = [
        (make_model(kind, alpha), length, seed, 300)
        for alpha in (1.2, 1.5, 2.0)
        for length, seed in ((1, 171), (16, 172), (64, 173))
    ]
    fixed = (2, 2**53 - 1, 2**53 + 5, 2**62 - 1, 2**62 + 5, 2**70 + 3)
    cases += [(make_model(kind, 1.5, fixed_level=level), 64, 174, 20) for level in fixed]
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
    # The draws reach the tail beyond the prefix table, levels past 53
    # digits, and past 85 digits, whose low digits go on in lane 3 + w, and
    # windows that run off the end of their word; hpm1 reaches phases of r
    # >= 2**32, which read lane 2; hmc words reach the branch tail.
    assert any(level > 1 << 20 for level in levels)
    assert any(53 < level.bit_length() <= 85 for level in levels)
    assert any(level.bit_length() > 85 for level in levels)
    assert wraps > 0
    if kind == "hpm1":
        assert any(level >> 32 for level in levels)
    if kind == "hmc":
        assert any(level > 1 << 20 for level in branch_levels)


def test_hpm1_phases_at_the_clip_and_the_cycle_end_equal_scalar_oracle(monkeypatch):
    # The phase words of lane 2 are replaced, in the sampler and in the
    # oracle alike, so that X mod m lands below, at and just past the clip,
    # and within `length` of the cycle's end, where a clipped level shows
    # its one marker.
    length, seed_ = 16, 177
    real_runs, real_lane_int = sampling._runs, conftest.lane_int
    lane2 = {}

    def crafted_runs(keys, lanes, firsts, counts):
        words = real_runs(keys, lanes, firsts, counts)
        row = 0
        for key, lane, first, count in zip(keys.tolist(), lanes.tolist(), firsts.tolist(), counts.tolist()):
            crafted = lane2.get(tuple(key)) if lane == 2 else None
            for draw in range(first, first + count):
                if crafted is not None:
                    words[row] = [(crafted >> 64 * (4 * draw + c)) & (2**64 - 1) for c in range(4)]
                row += 1
        return words

    def crafted_lane_int(key, lane, words):
        return lane2[key] if lane == 2 else real_lane_int(key, lane, words)

    monkeypatch.setattr(sampling, "_runs", crafted_runs)
    monkeypatch.setattr(conftest, "lane_int", crafted_lane_int)
    for level in (2**80 + 12345, 2**400 + 9):
        model = make_model("hpm1", 1.5, fixed_level=level)
        k = -(-level.bit_length() // 64)
        rems = [0, 5, _CLIP - 1, _CLIP, _CLIP + 1, level // 3, *(level - d for d in (length + 1, length, 7, 1))]
        lane2.clear()
        for stream, rem in enumerate(rems):
            word = philox_block((seed_, stream), 0, 0)[2]
            lane2[(seed_, stream)] = (rem - (word << 64 * k)) % level
        markers = [level - 1 - rem if level - 1 - rem < length else -1 for rem in rems]
        assert markers[-4:] == [-1, length - 1, 6, 0]
        batch = _assert_samplers_equal_oracle(model, len(rems), length, seed_)
        assert [t.initial_state.phase - 1 for t in batch] == rems
        assert [t.symbols.find(1) for t in batch] == markers


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_trajectories_do_not_depend_on_the_pass_sizes(kind, monkeypatch):
    # Every variate is a function of (seed, stream, lane, draw): streams and
    # hmc branch draws cut into small passes, and Philox runs read by either
    # engine, give the trajectories of one pass.
    model = make_model(kind, 1.5)
    whole = records(sample_trajectories(model, 200, 40, 175), 175)
    sizes = {"_CHUNK_SYMBOLS": 120, "_BRANCH_ROWS": 50}
    for settings in (sizes, *ENGINES.values()):
        with monkeypatch.context() as patch:
            for name, value in settings.items():
                patch.setattr(sampling, name, value)
            assert records(sample_trajectories(model, 200, 40, 175), 175) == whole


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_longer_trajectory_starts_with_the_shorter_one(kind, alpha):
    # `verify.check_decoder_agreement` samples its n = 6 streams at 524
    # symbols and reads only the first 512.
    model = make_model(kind, alpha)
    longer_records = 0
    for long in records(sample_trajectories(model, 40, 524, 2024), 2024):
        short = record(sample_trajectory(model, 512, 2024, stream=long.stream), 2024, long.stream)
        assert long.symbols[:512] == short.symbols, long.stream
        assert long.initial_state == short.initial_state, long.stream
        assert long.word_levels[: len(short.word_levels)] == short.word_levels, long.stream
        longer_records += len(long.word_levels) > len(short.word_levels)
    assert (longer_records > 0) == (kind == "hmc")


def _digest(batch, seed_: int) -> str:
    h = hashlib.sha256()
    for t in records(batch, seed_):
        state = t.initial_state
        fields = (t.symbols.hex(), t.stream, hex(state.level), hex(state.phase), *map(hex, t.word_levels))
        h.update(repr(fields).encode())
    return h.hexdigest()


@pytest.mark.slow
def test_a_million_hpm2_trajectories_peak_below_64_mb():
    # The batch holds 16 MB of symbols and int64 records; the 11% of levels
    # past 62 digits are held clipped, where whole they took 203 MB.
    model = make_model("hpm2", 1.5)
    sample_trajectories(model, 10, 16, 2026)  # the cached level tables
    tracemalloc.start()
    try:
        batch = sample_trajectories(model, 1_000_000, 16, 2026)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(batch.initial_levels == _CLIP) > 100_000
    assert peak < 64e6, f"{peak / 1e6:.1f} MB"


def test_trajectory_digests_are_pinned():
    # Computed once with the counter-based sampler (every variate a function
    # of seed, stream, lane and draw); any change to a draw moves them.
    # (kind, alpha, count, length, seed); a count of None is one
    # `sample_trajectory` on stream 0.
    pinned = {
        "469767bebd1f359aad39f42ac101f77b6de89b435442ef49854d5d855c2bd799": ("hpm1", 1.5, 3000, 16, 601),
        "3e36af1d4e4ffb96b917b71f402646098c23574a8e80bf1adc86217d1eadaade": ("hpm2", 1.2, 3000, 16, 602),
        "ff440f5db41b1077008507aa2264f7cc766b7240f06c0425587ffe1fdb5eb584": ("hpm2", 2.0, 500, 64, 603),
        "e8ca11319841f9dc2870699a55bda3fec5ce6865ff3efde55cbbd1e553557ece": ("hmc", 1.5, None, 30_000, 604),
        "b3424efcf2ebce1092461abbebbef5e33cb94b9ad775a4c758bce0d207042dd8": ("hmc", 1.2, 100, 600, 605),
    }
    for expected, (kind, alpha, count, length, seed_) in pinned.items():
        model = make_model(kind, alpha)
        if count is None:
            batch = sample_trajectory(model, length, seed_)
        else:
            batch = sample_trajectories(model, count, length, seed_)
        assert _digest(batch, seed_) == expected


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
    # Seeds and streams are the two 64-bit words of a Philox key.
    with pytest.raises(ValueError, match=rf"seed must be < 2\*\*64, got {2**64}"):
        sample_trajectories(model, 4, 8, 2**64)
    with pytest.raises(ValueError, match=rf"stream must be < 2\*\*64, got {2**64}"):
        sample_trajectory(model, 8, 3, stream=2**64)
    sample_trajectory(model, 8, 2**64 - 1, stream=2**64 - 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda m, t: sample_trajectories(m, 2.5, 8, 0), TypeError, "trajectory count must be an integer, got 2.5"),
        (lambda m, t: sample_trajectory(m, 16.0, 0), TypeError, "trajectory length must be an integer, got 16.0"),
        (lambda m, t: estimate_block_mi(t, 8.0), TypeError, "block length must be an integer, got 8.0"),
        (lambda m, t: estimate_block_mi(t, 0), ValueError, "block length must be >= 1, got 0"),
        (
            lambda m, t: estimate_block_mi(t, 4, bootstrap_resamples=2.5),
            TypeError,
            "bootstrap_resamples must be an integer, got 2.5",
        ),
    ],
    ids=["count", "length", "n", "n below 1", "resamples"],
)
def test_integer_argument_errors_name_the_argument(call, error, message):
    model = make_model("hpm2", 1.5)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(model, sample_trajectories(model, 20, 16, seed=115))


def test_sample_trajectories_check_their_arguments_first():
    model = make_model("hpm2", 1.5)
    for count in (0, 3):
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            sample_trajectories(model, count, 0, seed=1)
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        sample_trajectories(model, -1, 8, seed=1)
    assert sample_trajectories(model, 0, 8, seed=1).symbols.shape == (0, 8)


def test_hpm1_window_marker_structure():
    model = make_model("hpm1", 1.5)
    for stream in range(60):
        traj = record(sample_trajectory(model, 400, seed=21, stream=stream), 21, stream)
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
        traj = record(sample_trajectory(model, 300, seed=31), 31, 0)
        levels = {s.level for s in hidden_states(traj)}
        assert len(levels) == 1


def test_hmc_separator_runs_have_length_digit_count_plus_one():
    model = make_model("hmc", 1.5)
    traj = record(sample_trajectory(model, 3000, seed=41), 41, 0)
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
    states = hidden_states(record(sample_trajectory(model, 60_000, seed=51), 51, 0))
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
    bits = rng.integers(0, 2, size=1_000_000 + 7, dtype=np.uint8)[None]
    report = estimate_block_mi(bits, 4, bootstrap_resamples=4)
    assert abs(report.point_estimate) <= 0.01
    assert report.regime == "sliding"
    mm = estimate_block_mi(bits, 4, method="miller_madow", bootstrap_resamples=4)
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
    r1 = estimate_block_mi(trajs1, 3, bootstrap_resamples=16)
    r2 = estimate_block_mi(trajs2, 3, bootstrap_resamples=16)
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
    tiny = sample_trajectories(model, 2, 7, seed=112)
    with pytest.raises(ValueError, match="length >= 8"):
        estimate_block_mi(tiny, 4)
    three_windows = sample_trajectories(model, 3, 8, seed=113)
    with pytest.raises(ValueError, match=">= 4 windows"):
        estimate_block_mi(three_windows, 4)
    with pytest.raises(ValueError, match="no trajectories supplied"):
        estimate_block_mi(sample_trajectories(model, 0, 8, seed=114), 4)


def test_bootstrap_that_cannot_spread_is_an_error():
    # One resample has no spread; its standard error used to read 0.0, as
    # if the estimate were exact.  No bootstrap at all still reports 0.0.
    model = make_model("hpm2", 1.5)
    trajs = sample_trajectories(model, 200, 16, seed=114)
    for data in (trajs, sample_trajectory(model, 16, seed=114)):
        with pytest.raises(ValueError, match="bootstrap_resamples must be 0 or >= 2, got 1"):
            estimate_block_mi(data, 8, bootstrap_resamples=1)
        assert estimate_block_mi(data, 2, bootstrap_resamples=0).std_error == 0.0
    assert estimate_block_mi(trajs, 8, bootstrap_resamples=2).std_error > 0.0


def test_batch_reads_as_its_symbol_matrix():
    # The estimator reads a batch through its read-only symbol matrix; a
    # writable copy of the matrix, as data from elsewhere comes, agrees.
    model = make_model("hmc", 1.5)
    batch = sample_trajectories(model, 50, 20, seed=131)
    assert batch.symbols.shape == (50, 20) and not batch.symbols.flags.writeable
    copy = batch.symbols.copy()
    for method in ("plugin", "miller_madow"):
        assert estimate_block_mi(batch, 4, method, 16) == estimate_block_mi(copy, 4, method, 16)


def test_estimator_rejects_symbols_it_cannot_pack():
    # Blocks are packed 2 bits per symbol, so a 4 would collide with another
    # block instead of counting as a new one.
    row = np.frombuffer(bytes([0, 1, 2, 3] * 5 + [4]), np.uint8)[None]
    for data in (row, np.repeat(row, 2, axis=0)):  # sliding, then pooled
        with pytest.raises(ValueError, match="symbol 4 outside 0..3"):
            estimate_block_mi(data, 2)


@pytest.mark.parametrize(
    "data, named",
    [
        (np.zeros(40, np.uint8), "shape (40,)"),
        (np.zeros((2, 40), np.int64), "dtype int64"),
        (np.zeros((2, 4, 40), np.uint8), "shape (2, 4, 40)"),
    ],
    ids=["1-D", "int64", "3-D"],
)
def test_estimator_rejects_other_shapes_and_dtypes(data, named):
    # The estimator reads one (rows, length) uint8 matrix; anything else is
    # data from outside the program, and the error names what it got.
    with pytest.raises(ValueError, match=re.escape(named)):
        estimate_block_mi(data, 2)


@pytest.mark.parametrize("kind", ["hpm1", "hpm2", "hmc"])
def test_one_row_slides_however_it_was_sampled(kind):
    # The regime follows the row count alone: a batch of one trajectory
    # slides, as the trajectory of `sample_trajectory` does; a one-element
    # hmc batch is not pooled.
    model = make_model(kind, 1.5)
    batch = sample_trajectories(model, 1, 500, seed=181)
    single = sample_trajectory(model, 500, seed=181)
    for method in ("plugin", "miller_madow"):
        report = estimate_block_mi(batch, 3, method, 16)
        assert report.regime == "sliding" and report.trajectory_count == 1
        assert report == estimate_block_mi(single, 3, method, 16)


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
        traj = record(sample_trajectory(model, 400, seed=131), 131, 0)
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
        traj = record(sample_trajectory(model, 400, seed=133, stream=stream), 133, stream)
        states = hidden_states(traj)
        assert len(states) == len(traj.symbols)
        assert {s.level for s in states} == {level}
        assert list(traj.symbols) == [emission(model, state) for state in states]


def test_hmc_per_step_level_occupation_matches_stationary_law():
    model = make_model("hmc", 1.5)
    states = hidden_states(record(sample_trajectory(model, 120_000, seed=141), 141, 0))
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
        if record(sample_trajectory(model, 4, seed=151, stream=s), 151, s).initial_state.level == 2
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
        pooled = sample_trajectories(model, 40, int(lengths.integers(2 * n, 6 * n + 3)), seed=163)
        for data in (single, pooled):
            for method in ("plugin", "miller_madow"):
                for resamples in (0, 2, 9):
                    report = estimate_block_mi(data, n, method, resamples)
                    point, std, count = naive_estimate(data.symbols, n, method, resamples, seed=0)
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
    ext = np.frombuffer(model.emission_word(level) * (2 * n // r + 2), np.uint8)
    rows = np.stack([ext[k : k + 2 * n] for k in range(r)] * (2 if r < 4 else 1))
    report = estimate_block_mi(rows, n, bootstrap_resamples=0)
    table = enumerate_joint(model, n, level)
    assert report.point_estimate == pytest.approx(block_mi(table).value, abs=1e-12)

    # A bootstrap resample leaves windows with count 0, some with block ids
    # that no drawn window has; they must not move the value.
    prof = table.profile
    counts = np.rint(prof.masses * r).astype(np.int64)  # windows per entry
    padded = np.append(np.stack([counts, np.zeros_like(counts)], axis=1).ravel(), 0)
    past = np.append(np.repeat(prof.past, 2), prof.past.max() + 1)
    future = np.append(np.repeat(prof.future, 2), prof.future.max() + 1)

    def plug_in_mi(weights, past, future):
        return _marginals_mi(weights, np.bincount(past, weights), np.bincount(future, weights))

    assert plug_in_mi(padded, past, future) == plug_in_mi(counts, prof.past, prof.future)
    xlog2x = _xlog2x(int(counts.sum()))
    for method in ("plugin", "miller_madow"):
        with_zeros = _mi_from_counts(padded, past, future, method, xlog2x)
        assert with_zeros == pytest.approx(_mi_from_counts(counts, prof.past, prof.future, method, xlog2x), abs=1e-14)
