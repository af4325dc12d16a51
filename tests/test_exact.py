"""Exact-engine contracts: oracle equivalence, conservation, certified
entropies and mutual informations, conditioning, and table plumbing."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from excesslab.exact import (
    DEFAULT_ENTRY_BUDGET,
    BudgetExceededError,
    LabelDisagreementError,
    _cached_rows,
    _enumerate_cyclic,
    _first_appearance,
    _level_masses,
    _label_decomposition,
    _number_blocks,
    _packed_sort,
    _retained_table,
    _runs,
    _table_entropy,
    _triple_informations,
    block_mi,
    enumerate_joint,
)
from excesslab.analysis import block_mi_upper_bound
from excesslab.decoders import (
    decoded_level_entropy,
    future_decoder,
    mi_decomposition_residual,
    past_decoder,
)
from excesslab.intervals import Enclosure, Interval
from excesslab.models import Kind
from excesslab.verify import predicate_grid

from conftest import (
    FAST_SERIES_CUTOFF,
    FUTURE_ORACLE,
    PAST_ORACLE,
    assert_tables_match,
    branch_probability,
    dict_cyclic_table,
    level_mass,
    make_model,
    naive_conditional_mi,
    naive_cyclic_table,
    naive_hmc_table,
    naive_profile,
    naive_triple_information,
    scalar_predicate_grid,
    table_from,
)


def manual_table(n, alphabet_size, entries, pruned=0.0, slack=0.0):
    return table_from(
        n=n,
        alphabet_size=alphabet_size,
        entries=dict(entries),
        pruned_mass=Interval.point(pruned),
        entry_slack=slack,
    )


def joint_entropy(t):
    """Certified joint entropy of the renormalized table as (value, half-width)."""
    return _table_entropy(t, t.profile.masses, 2)


# ----- enumeration ------------------------------------------------------------


def test_degenerate_level2_table():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    t = enumerate_joint(deg, 2, 4)
    assert t.entries == {
        (bytes([0, 1]), bytes([0, 1])): pytest.approx(0.5),
        (bytes([1, 0]), bytes([1, 0])): pytest.approx(0.5),
    }
    assert t.pruned_mass.hi == 0.0


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
def test_conservation_at_n1(kind):
    m = make_model(kind, 1.5)
    t = enumerate_joint(m, 1, 32 if kind == "hmc" else 256, 0.0)
    assert t.conservation_interval().contains(1.0)


def test_enumerate_validation():
    # Each message names the input, as the closed-form bounds do.
    m = make_model("hpm1", 1.5)
    where = r"^hpm1 alpha=1\.5 n=2: "
    with pytest.raises(ValueError, match=r"^hpm1 alpha=1\.5 n=0: block length must be >= 1, got 0$"):
        enumerate_joint(m, 0, 16)
    with pytest.raises(ValueError, match=where + r"level cutoff must be >= 2, got 1$"):
        enumerate_joint(m, 2, 1)
    with pytest.raises(ValueError, match=where + r"prune threshold must lie in \[0, 1\), got 1\.0$"):
        enumerate_joint(m, 2, 16, prune_eps=1.0)
    with pytest.raises(ValueError, match=r"^hpm2 alpha=1\.5 n=2: tail aggregation applies to"):
        enumerate_joint(make_model("hpm2", 1.5), 2, 16, tail_aggregation=True)
    fixed = make_model("hpm1", 1.5, fixed_level=5)
    with pytest.raises(ValueError, match=where + "tail aggregation needs the full"):
        enumerate_joint(fixed, 2, 16, tail_aggregation=True)


def test_hpm1_matches_bruteforce_oracle_n3():
    m = make_model("hpm1", 1.5)
    reference = naive_cyclic_table(m, 3, 1 << 10)
    table = enumerate_joint(m, 3, 1 << 10)
    assert_tables_match(reference, table.entries)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hpm1_matches_oracle_across_the_collapse_boundary(n):
    # Levels m >= 2n collapse into the single-marker and all-zero keys.
    m = make_model("hpm1", 1.5)
    for cutoff in sorted({2 * n - 1, 2 * n, 2 * n + 1, 3 * n} - {1}):
        table = enumerate_joint(m, n, cutoff)
        assert_tables_match(naive_cyclic_table(m, n, cutoff), table.entries)
        assert table.pruned_mass == m.level_tail_mass(cutoff)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fixed_level_hpm1_matches_oracle_at_the_collapse_boundary(n):
    for level in (2 * n, 2 * n + 3):
        deg = make_model("hpm1", 1.5, fixed_level=level)
        table = enumerate_joint(deg, n, 64)
        assert_tables_match(naive_cyclic_table(deg, n, 64), table.entries)
        assert table.conservation_interval().contains(1.0)


@pytest.mark.parametrize("alpha, n", [(1.5, 1), (1.5, 4), (2.0, 16)])
def test_aggregated_table_ignores_level_cutoff(alpha, n):
    m = make_model("hpm1", alpha)
    small, mid, big = (
        enumerate_joint(m, n, cutoff, tail_aggregation=True) for cutoff in (4, 1 << 12, 1 << 19)
    )
    for t in (mid, big):
        assert t.entries == small.entries
        assert t.entry_slack == small.entry_slack
        assert t.pruned_mass == small.pruned_mass == Interval.point(0.0)


def test_hpm2_matches_bruteforce_oracle():
    m = make_model("hpm2", 1.5)
    reference = naive_cyclic_table(m, 4, 1 << 8)
    table = enumerate_joint(m, 4, 1 << 8)
    assert_tables_match(reference, table.entries)


def test_hmc_matches_naive_reference():
    h = make_model("hmc", 1.5)
    reference = naive_hmc_table(h, 3, 1 << 5)
    table = enumerate_joint(h, 3, 1 << 5)
    assert_tables_match(reference, table.entries)


def test_hpm1_block_mi_matches_oracle_n8_cutoff_4096():
    m = make_model("hpm1", 1.5)
    reference = naive_cyclic_table(m, 8, 1 << 12)
    table = enumerate_joint(m, 8, 1 << 12)
    assert_tables_match(reference, table.entries)
    ref_table = table_from(
        n=8,
        alphabet_size=2,
        entries=reference,
        pruned_mass=table.pruned_mass,
        entry_slack=table.entry_slack,
    )
    assert block_mi(ref_table).value == pytest.approx(block_mi(table).value, abs=1e-10)


@pytest.mark.parametrize("alpha", (1.2, 1.5, 2.0))
def test_hmc_level_law_equals_scalar_oracles_bit_for_bit(alpha):
    # The seed masses and branch probabilities the hmc walk starts from, in
    # numpy, against the scalar enclosures' midpoints level by level.
    h = make_model("hmc", alpha)
    levels = range(2, 4097)
    r = np.array([h.phase_count(m) for m in levels])
    seeds, branches = _level_masses(h, levels) / r, _level_masses(h, levels, branch=True)
    expected_seeds = [level_mass(h, m).mid / h.phase_count(m) for m in levels]
    expected_branches = [branch_probability(h, m).mid for m in levels]
    assert seeds.tobytes() == np.array(expected_seeds).tobytes()
    assert branches.tobytes() == np.array(expected_branches).tobytes()


def assert_pruned_mass_matches_oracle(model, table, reference, level_cutoff):
    """The mass the oracle never reaches from the seeds is what the engine
    books as pruned beyond the level tail."""
    seeds = math.fsum(level_mass(model, m).mid for m in range(2, level_cutoff + 1))
    missed = seeds - math.fsum(reference.values())
    tail = model.level_tail_mass(level_cutoff)
    path_pruned = Interval(table.pruned_mass.lo - tail.lo, table.pruned_mass.hi - tail.hi)
    assert path_pruned.lo - 1e-12 <= missed <= path_pruned.hi + 1e-12
    assert abs(path_pruned.mid - missed) <= 1e-12


def test_hmc_pruned_table_matches_pruned_oracle():
    # The oracle skips the same branches.
    h = make_model("hmc", 1.5)
    reference = naive_hmc_table(h, 6, 32, 1e-6)
    table = enumerate_joint(h, 6, 32, 1e-6)
    assert_tables_match(reference, table.entries, tol=1e-12)
    assert_pruned_mass_matches_oracle(h, table, reference, 32)


def test_hmc_pruning_moves_mass_to_pruned():
    h = make_model("hmc", 1.5)
    full = enumerate_joint(h, 4, 1 << 5)
    pruned = enumerate_joint(h, 4, 1 << 5, prune_eps=1e-6)
    assert len(pruned.entries) < len(full.entries)
    assert pruned.pruned_mass.hi > full.pruned_mass.hi
    assert pruned.conservation_interval().contains(1.0)


def test_path_budget_guard():
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError) as raised:
        enumerate_joint(h, 6, 1 << 5, path_budget=1000)
    for field in ("kind=hmc", "alpha=1.5", "n=6", "level_cutoff=32"):
        assert field in str(raised.value)
    assert "prune_eps" not in str(raised.value)


def test_entry_budget_guard():
    m = make_model("hpm2", 1.5)
    with pytest.raises(BudgetExceededError) as raised:
        enumerate_joint(m, 6, 1 << 10, entry_budget=100)
    for field in ("kind=hpm2", "alpha=1.5", "n=6", "level_cutoff=1024"):
        assert field in str(raised.value)


def test_aggregated_entry_budget_names_its_input():
    m = make_model("hpm1", 1.5)
    with pytest.raises(BudgetExceededError) as raised:
        enumerate_joint(m, 4, 64, tail_aggregation=True, entry_budget=5)
    for field in ("kind=hpm1", "alpha=1.5", "n=4", "tail_aggregation=True"):
        assert field in str(raised.value)
    assert "level_cutoff" not in str(raised.value)


def test_path_budget_counts_every_push():
    # Every seed and every kept branch counts once, whether its subtree is
    # expanded or taken from the completion cache: 36,576 at this point.
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError):
        enumerate_joint(h, 4, 64, path_budget=36_575)
    assert len(enumerate_joint(h, 4, 64, path_budget=36_576).entries) == 2109


def test_path_budget_counts_the_pruned_walk():
    # At prune_eps 1e-7 most word boundaries fail the cache gate and expand
    # depth by depth; every seed and every kept branch still counts once:
    # 88,536 nodes at this point.
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError, match="path budget 88535 exceeded") as raised:
        enumerate_joint(h, 8, 64, 1e-7, path_budget=88_535)
    assert "prune_eps=1e-07" in str(raised.value)
    enumerate_joint(h, 8, 64, 1e-7, path_budget=88_536)


def test_hmc_completion_cache_is_held_to_entry_budget():
    # The cached suffix tables are checked as they grow, so the run stops
    # before the joint table is built.
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError, match="completion table") as raised:
        enumerate_joint(h, 8, 64, entry_budget=200)
    for field in ("kind=hmc", "alpha=1.5", "n=8", "level_cutoff=64"):
        assert field in str(raised.value)
    assert "prune_eps" not in str(raised.value)


def test_hmc_entry_budget_stops_the_merge_before_memory_grows():
    # Every suffix table fits in 4,000 entries, but the joint table has
    # 44,571: the merge of the table's rows stops the run, holding at most
    # the budget's distinct keys and one chunk of rows waiting.
    h = make_model("hmc", 1.5)
    budget = 4000
    with pytest.raises(BudgetExceededError, match="^table exceeded entry budget 4000"):
        enumerate_joint(h, 8, 64, entry_budget=budget)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as raised:
            enumerate_joint(h, 8, 64, entry_budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for field in ("kind=hmc", "alpha=1.5", "n=8", "level_cutoff=64"):
        assert field in str(raised.value)
    assert "prune_eps" not in str(raised.value)
    # About 400 bytes per budgeted entry (suffix dicts, waiting rows and the
    # merge's sort); the whole table takes over 7 MB.
    assert peak < 600 * budget


# (kind, alpha, fixed level, n, level cutoff, tail aggregation): the cyclic
# tables the benchmark builds, and those it never reaches: hpm2 windows that
# hold at most one delimiter, hpm1 below and across the collapse at 2n
# without aggregation, and fixed levels up to one beyond int64.
CYCLIC_ORACLE_CASES = (
    [("hpm2", 1.5, None, n, 4095, False) for n in (1, 2, 3, 5, 8)]
    + [("hpm1", 2.0, None, n, 4096, False) for n in range(1, 17)]
    + [("hpm1", 1.5, None, n, 4096, True) for n in (1, 2, 3, 5, 64)]
    + [
        (kind, 1.5, level, n, max(level, 4096), False)
        for kind in ("hpm1", "hpm2")
        for level in (5, 37, 50, 2**64 + 3)
        for n in (3, 20, 40)
    ]
    + [("hpm1", 2.0, None, n, 4096, True) for n in (8, 16, 32, 64, 128)]
    + [("hpm2", 2.0, None, n, (1 << (n // 2)) - 1, False) for n in (8, 12, 16, 20, 24)]
)


def assert_matches_dict_build(arrays, reference, n):
    keys, masses, pruned, slack = arrays
    entries, ref_pruned, ref_slack = reference
    assert [(bytes(k[:n]), bytes(k[n:])) for k in keys] == list(entries)
    assert masses.tolist() == list(entries.values())
    assert (pruned, slack) == (ref_pruned, ref_slack)


@pytest.mark.parametrize("kind, alpha, fixed, n, cutoff, aggregate", CYCLIC_ORACLE_CASES)
def test_cyclic_arrays_equal_the_dict_build_bit_for_bit(kind, alpha, fixed, n, cutoff, aggregate):
    model = make_model(kind, alpha, fixed_level=fixed)
    assert_matches_dict_build(
        _enumerate_cyclic(model, n, cutoff, DEFAULT_ENTRY_BUDGET, aggregate),
        dict_cyclic_table(model, n, cutoff, aggregate),
        n,
    )


def test_cyclic_entry_budget_stops_the_chunks_before_memory_grows():
    # Each chunk of levels is merged and counted before the next is built:
    # the run stops within a few hundred of the 4,194,303 levels (88 million
    # rows), holding at most the budget's keys and one chunk of rows.
    m = make_model("hpm2", 1.5)
    budget = 4000
    with pytest.raises(BudgetExceededError, match="^table exceeded entry budget 4000"):
        enumerate_joint(m, 6, 1 << 22, entry_budget=budget)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as raised:
            enumerate_joint(m, 6, 1 << 22, entry_budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for field in ("kind=hpm2", "alpha=1.5", "n=6", f"level_cutoff={1 << 22}"):
        assert field in str(raised.value)
    # About 120 bytes per budgeted entry (the chunk's rows, windows and
    # merge sort).
    assert peak < 300 * budget


@pytest.mark.parametrize(
    "kind, n, cutoff, aggregate",
    [("hpm2", 6, 1 << 14, False), ("hpm1", 8, 4096, True), ("hpm1", 12, 4096, False)],
)
def test_cyclic_entry_budget_is_exact(kind, n, cutoff, aggregate):
    # A budget of exactly the distinct count passes, in chunks of that many
    # rows (eight chunks for hpm2), and builds the same table; one less raises.
    model = make_model(kind, 1.5)
    reference = dict_cyclic_table(model, n, cutoff, aggregate)
    distinct = len(reference[0])
    arrays = _enumerate_cyclic(model, n, cutoff, distinct, aggregate)
    assert_matches_dict_build(arrays, reference, n)
    with pytest.raises(BudgetExceededError, match=f"^table exceeded entry budget {distinct - 1} "):
        enumerate_joint(model, n, cutoff, tail_aggregation=aggregate, entry_budget=distinct - 1)


def test_cached_rows_follow_cached_then_suffix_order_in_any_chunking():
    # Windows of 4 symbols: prefixes of 2 and 3 symbols, interleaved, take
    # suffixes of 2 and 1 symbols.
    suffix_tables = {
        1: {b"\x00": 0.5, b"\x03": 0.25},
        2: {b"\x01\x02": 0.125, b"\x02\x02": 0.5, b"\x03\x00": 1.0},
    }
    prefixes = [b"\x01\x02\x03", b"\x00\x01", b"\x02\x02\x02", b"\x03\x03"]
    probs = np.array([0.5, 0.25, 0.125, 0.75])
    # Each prefix as a row of the window, zeros past it, padded to a whole
    # uint64 word, as the walk holds it.
    rows = np.array([list(p.ljust(8, b"\x00")) for p in prefixes], np.uint8).view(np.uint64)
    lens = np.array([len(p) for p in prefixes])
    expected = [
        (prefix + s, prob * q)
        for prefix, prob in zip(prefixes, probs.tolist())
        for s, q in suffix_tables[4 - len(prefix)].items()
    ]
    for chunk in (1, 2, 3, 5, 100):
        blocks = list(_cached_rows(rows, lens, probs, suffix_tables.__getitem__, 4, chunk))
        got = [(bytes(k), m) for keys, masses in blocks for k, m in zip(keys, masses.tolist())]
        assert got == expected, chunk
        # A block holds whole prefixes: at most `chunk` rows, or one prefix's.
        assert all(len(masses) <= max(chunk, 3) for _, masses in blocks), chunk


def table_digest(table) -> str:
    h = hashlib.sha256()
    for (past, future), mass in table.entries.items():
        h.update(past + future + struct.pack("<d", mass))
    h.update(struct.pack("<3d", table.pruned_mass.lo, table.pruned_mass.hi, table.entry_slack))
    return h.hexdigest()


# (kind, fixed level, n, level cutoff, prune_eps, tail aggregation) at alpha
# 1.5, each table's keys, key order, masses, pruned mass and slack pinned bit
# for bit.  The eps-0 rows were computed while the tables were dicts built
# one entry at a time and the hmc paths were walked by a per-boundary
# recursion.  The eps > 0 rows pin the depth-wise walk's order: its leaves,
# cached boundaries and pruned-mass additions depth after depth.
PINNED_TABLE_DIGESTS = {
    ("hmc", None, 5, 16, 1e-4, False): "381777ea91f96c0bb9e5853991d98d2ddf7013ba77a0abcf05199ea57004d6f6",
    ("hmc", None, 4, 64, 0.0, False): "b4c1c97714abe8b824ab2efabb5ada94b66751194d2cd9175570bb342848dd9e",
    ("hmc", None, 6, 64, 0.0, False): "71fef563525ccd4ce7ec10611807f5e6aa2680229112768a48a0721d0a4c6d45",
    ("hmc", None, 8, 64, 0.0, False): "71192d0ab126f11e93e6b2300d11455b22c868e5ec8e26ae51b8cc9e0c8283fb",
    ("hmc", None, 8, 64, 1e-7, False): "a78b4926e921d82cbcc9855568b209b38241e1f58520d9a86af7416a8e9aab97",
    ("hmc", None, 5, 16, 1e-6, False): "f0421edee91216e0406768f8029712abf7f4ab80efc7d1fe6d18a1a21e55cfc8",
    ("hmc", 5, 6, 16, 0.0, False): "977e627addf78fb35084498bf4aea902f6b209d140a5d5047cca66ee53926289",
    ("hpm1", None, 8, 1 << 12, 0.0, True): "c62f61ed4c1c54f97787658a385fd797e4969a4f8580e6a5e02e0e0fc0f22133",
    ("hpm1", None, 32, 1 << 12, 0.0, True): "1d190bd5da6ba0e78c2e85bdf19d6ca17055e5781c02b29da85486d4dcf8b435",
    ("hpm2", None, 12, 63, 0.0, False): "3dcebc52a74dbec29bc4ac539b246776549ae50ee2be83a42e6f8f8bdb249d4b",
}


@pytest.fixture(scope="module")
def pinned_tables():
    return {
        (kind, fixed, n, cutoff, eps, aggregate): enumerate_joint(
            make_model(kind, 1.5, fixed_level=fixed), n, cutoff, eps, tail_aggregation=aggregate
        )
        for kind, fixed, n, cutoff, eps, aggregate in PINNED_TABLE_DIGESTS
    }


def test_table_digests_are_pinned(pinned_tables):
    for key, table in pinned_tables.items():
        assert table_digest(table) == PINNED_TABLE_DIGESTS[key], key
    # A budget just above the entry count merges the 72,428 rows in three
    # chunks; the walk hands its 66,597 leaves over in three pieces.
    table = enumerate_joint(make_model("hmc", 1.5), 8, 64, 1e-7, entry_budget=31_000)
    assert table_digest(table) == PINNED_TABLE_DIGESTS[("hmc", None, 8, 64, 1e-7, False)]


def test_pinned_tables_have_distinct_keys(pinned_tables):
    # One numbering of the full 2n-symbol rows: a repeated key would have
    # split its mass over two rows.
    for key, table in pinned_tables.items():
        assert len(_number_blocks(table.keys)[1]) == len(table.keys), key


@pytest.mark.parametrize("prune_eps", [float(e) for e in np.logspace(-9, -4, 8)])
def test_hmc_matches_oracle_across_the_cache_gate(prune_eps):
    # From 1e-9 every subtree comes from the cache; towards 1e-4 most word
    # boundaries expand explicitly because some leaf below them is pruned.
    # At n = 7 the walk expands boundaries up to three words deep.
    # A digest pins only what the walk makes; the oracle checks the pruned
    # mass at every point.
    h = make_model("hmc", 1.5)
    for n in (5, 7):
        reference = naive_hmc_table(h, n, 16, prune_eps)
        table = enumerate_joint(h, n, 16, prune_eps)
        assert_tables_match(reference, table.entries, tol=1e-12)
        assert_pruned_mass_matches_oracle(h, table, reference, 16)


def test_fixed_level_hmc_matches_oracle():
    deg = make_model("hmc", 1.5, fixed_level=5)
    table = enumerate_joint(deg, 6, 16)
    assert_tables_match(naive_hmc_table(deg, 6, 16), table.entries, tol=1e-12)
    assert table.conservation_interval().contains(1.0)


# ----- tail aggregation --------------------------------------------------------


def test_aggregated_extends_generic_table():
    m = make_model("hpm1", 1.5)
    generic = enumerate_joint(m, 4, 1 << 10)
    agg = enumerate_joint(m, 4, 1 << 10, tail_aggregation=True)
    # same keys plus possibly the all-zero/one-marker keys carrying tail mass
    assert set(generic.entries) <= set(agg.entries)
    diff = sum(agg.entries[k] - generic.entries.get(k, 0.0) for k in agg.entries)
    assert diff == pytest.approx(generic.pruned_mass.mid, abs=1e-6)
    for key, p in agg.entries.items():
        assert p >= generic.entries.get(key, 0.0) - 1e-15
    assert agg.pruned_mass.hi == 0.0
    assert agg.conservation_interval().contains(1.0)


def test_aggregated_mi_close_to_big_cutoff_generic():
    m = make_model("hpm1", 1.5)
    agg = block_mi(enumerate_joint(m, 3, 1 << 10, tail_aggregation=True))
    big = block_mi(enumerate_joint(m, 3, 1 << 17))
    # the generic value still misses tail mass; its certified interval is
    # wide, but the aggregated value must sit below the bound it implies
    assert agg.hi - agg.value < 1e-4
    assert abs(agg.value - big.value) <= (big.hi - big.value) + (agg.hi - agg.value)


# ----- entropies and MI --------------------------------------------------------


def test_entropy_point_mass_is_zero():
    t = manual_table(1, 2, {(bytes([0]), bytes([1])): 1.0})
    assert joint_entropy(t)[0] == pytest.approx(0.0, abs=1e-15)


def test_entropy_two_equal_masses_is_one_bit():
    t = manual_table(1, 2, {(bytes([0]), bytes([0])): 0.5, (bytes([1]), bytes([1])): 0.5})
    assert joint_entropy(t)[0] == pytest.approx(1.0)


def test_degenerate_joint_entropy_and_mi_are_one_bit():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    t = enumerate_joint(deg, 2, 4)
    assert joint_entropy(t)[0] == pytest.approx(1.0)
    for n in (1, 2, 3, 5):
        tn = enumerate_joint(deg, n, 4)
        assert block_mi(tn).value == pytest.approx(1.0)


def test_product_table_has_zero_mi():
    entries = {}
    for a, pa in ((0, 0.3), (1, 0.7)):
        for b, pb in ((0, 0.6), (1, 0.4)):
            entries[(bytes([a]), bytes([b]))] = pa * pb
    t = manual_table(1, 2, entries)
    assert block_mi(t).value == pytest.approx(0.0, abs=1e-12)


def test_entropy_error_accounts_for_pruned_mass():
    entries = {(bytes([0]), bytes([0])): 0.9}
    t = manual_table(1, 2, entries, pruned=0.1)
    _, err = joint_entropy(t)
    # delta * 2n log|X| + h(delta)
    expected = 0.1 * 2 * math.log2(2) + (-0.1 * math.log2(0.1) - 0.9 * math.log2(0.9))
    assert err == pytest.approx(expected)


def test_mi_error_combines_three_entropies():
    m = make_model("hpm2", 1.5)
    t = enumerate_joint(m, 4, 64)
    e = block_mi(t)
    _, joint_err = joint_entropy(t)
    assert e.hi - e.value > joint_err  # marginal terms add on top


# ----- certified results --------------------------------------------------------


def _decomposition(field):
    table = enumerate_joint(make_model("hmc", 1.5), 4, 32)
    return getattr(mi_decomposition_residual(table, "hmc"), field)


CERTIFIED = {
    "block_mi": lambda: block_mi(enumerate_joint(make_model("hpm2", 1.5), 4, 64)),
    "decoded_level_entropy": lambda: decoded_level_entropy("hpm2", 2.0, 16, FAST_SERIES_CUTOFF),
    "decoded_level_entropy, no level revealed": lambda: decoded_level_entropy("hpm1", 1.5, 3),
    "block_mi_upper_bound": lambda: block_mi_upper_bound("hmc", 1.5, 8, FAST_SERIES_CUTOFF),
    "DecompositionCheck.block_mi": lambda: _decomposition("block_mi"),
    "DecompositionCheck.label_entropy": lambda: _decomposition("label_entropy"),
    "DecompositionCheck.conditional_mi": lambda: _decomposition("conditional_mi"),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_functions_return_enclosures(name):
    result = CERTIFIED[name]()
    assert type(result) is Enclosure
    assert result.lo <= result.value <= result.hi
    assert (result.lower, result.upper) == (result.lo, result.hi)


@pytest.mark.parametrize("lo, hi, value", [(1.25, 2.5, 0.75), (1.25, 2.5, 3.75), (2.5, 1.25, 1.75)])
def test_enclosure_rejects_a_value_outside_its_interval(lo, hi, value):
    with pytest.raises(ValueError) as info:
        Enclosure(lo, hi, value)
    for number in (lo, hi, value):
        assert str(number) in str(info.value)


# (value, lo, hi) of block_mi at alpha 1.5, one table per kind, pinned bit
# for bit: lo and hi are value -+ the three entropies' half-widths summed as
# floats, so any other way of forming them shows here.
PINNED_BLOCK_MI = {
    ("hpm1", 8, 1 << 12, True): (2.5052032808526503, 2.5051828404687737, 2.505223721236527),
    ("hpm2", 6, 7, False): (3.018138548761718, -18.216928371703382, 24.25320546922682),
    ("hmc", 4, 32, False): (2.9313426707019463, -13.234582363588933, 19.097267704992824),
}


@pytest.mark.parametrize("key", sorted(PINNED_BLOCK_MI))
def test_block_mi_is_pinned_bit_for_bit(key):
    kind, n, cutoff, aggregate = key
    e = block_mi(enumerate_joint(make_model(kind, 1.5), n, cutoff, tail_aggregation=aggregate))
    assert (e.value, e.lo, e.hi) == PINNED_BLOCK_MI[key]


# ----- conditioning -------------------------------------------------------------


def test_conditional_mi_constant_label_equals_block_mi():
    m = make_model("hpm2", 1.5)
    t = enumerate_joint(m, 4, 64)
    e, _, cond = _label_decomposition(t, lambda B: np.zeros(len(B), np.int64), None)
    assert cond.value == pytest.approx(block_mi(t).value, abs=1e-12)
    assert e is block_mi(t)  # computed once per table


def test_conditional_mi_full_label_is_zero():
    deg = make_model("hpm1", 2.0, fixed_level=2)
    t = enumerate_joint(deg, 2, 4)
    # past determines the whole pair here, so labelling by the block itself
    # conditions on everything
    cond = _label_decomposition(t, lambda B: B.view(np.dtype((np.void, B.shape[1])))[:, 0], None)[2]
    assert cond.value == pytest.approx(0.0, abs=1e-14)


def test_conditional_mi_label_disagreement_raises():
    m = make_model("hpm2", 1.5)
    t = enumerate_joint(m, 4, 64)
    with pytest.raises(LabelDisagreementError):
        _label_decomposition(t, lambda B: B[:, 0], lambda B: np.full(len(B), -1))


def test_label_entropy_of_constant_label_is_zero():
    m = make_model("hpm1", 1.5)
    t = enumerate_joint(m, 3, 64)
    h_label = _label_decomposition(t, lambda B: np.full(len(B), "x"), None)[1]
    assert h_label.value == pytest.approx(0.0)


# ----- triple information --------------------------------------------------------


def test_triple_information_trivial_event_is_zero():
    m = make_model("hpm2", 1.5)
    t = enumerate_joint(m, 4, 64)
    always = lambda P, F: np.ones(len(P), bool)
    assert _triple_informations(t, [always])[0][0] == pytest.approx(0.0, abs=1e-12)


def test_triple_information_independent_components():
    entries = {}
    for a, pa in ((0, 0.5), (1, 0.5)):
        for b, pb in ((0, 0.5), (1, 0.5)):
            entries[(bytes([a]), bytes([b]))] = pa * pb
    t = manual_table(1, 2, entries)
    # an event that depends only on an independent coordinate of the pair
    assert _triple_informations(t, [lambda P, F: P[:, 0] == 0])[0][0] == pytest.approx(0.0, abs=1e-12)


def test_triple_information_of_an_event_each_block_fixes_meets_the_bound():
    # Past and future copy one bit: "the past is 0" is also "the future is
    # 0", and |I(past; future; 1_B)| = H(1_B) = 1 by construction.
    copy = manual_table(1, 2, {(bytes([a]), bytes([a])): 0.5 for a in (0, 1)})
    [(value, mass_in, fixed)] = _triple_informations(copy, [lambda P, F: P[:, 0] == 0])
    assert (value, mass_in, fixed) == (pytest.approx(1.0, abs=1e-12), 0.5, True)
    independent = manual_table(1, 2, {(bytes([a]), bytes([b])): 0.25 for a in (0, 1) for b in (0, 1)})
    assert _triple_informations(independent, [lambda P, F: P[:, 0] == 0])[0][2] is False


def test_triple_information_bounded_by_indicator_entropy():
    m = make_model("hpm1", 1.5)
    t = enumerate_joint(m, 6, 1 << 10)
    total = sum(t.entries.values())
    event = lambda key: 1 in key[0]
    value = _triple_informations(t, [lambda P, F: (P == 1).any(1)])[0][0]
    mass = sum(p for k, p in t.entries.items() if event(k)) / total
    h_ind = -mass * math.log2(mass) - (1 - mass) * math.log2(1 - mass)
    assert abs(value) <= h_ind + 1e-12
    assert abs(value) <= 1.0


def test_monotonicity_of_certified_intervals():
    m = make_model("hpm2", 1.5)
    results = []
    for n in range(1, 9):
        t = enumerate_joint(m, n, max(4, (1 << (n // 2)) - 1))
        results.append(block_mi(t))
    for a, b in zip(results, results[1:]):
        assert b.upper >= a.lower


def test_degenerate_ergodic_kind_conserves_mass():
    deg = make_model("hmc", 2.0, fixed_level=5)
    t = enumerate_joint(deg, 4, 4)  # fixed level above the cutoff still works
    assert t.conservation_interval().contains(1.0)
    assert t.pruned_mass.hi == 0.0


def test_aggregated_covers_full_support_even_with_tiny_cutoff():
    m = make_model("hpm1", 1.5)
    t = enumerate_joint(m, 8, 4, tail_aggregation=True)
    assert t.conservation_interval().contains(1.0)
    assert t.pruned_mass.hi == 0.0
    ref = enumerate_joint(m, 8, 1 << 12, tail_aggregation=True)
    for key in ref.entries:
        assert t.entries[key] == pytest.approx(ref.entries[key], abs=1e-9)


# ----- array-native label reductions against the per-group loop --------------

ORACLE_TABLES = {
    "hpm1-aggregated": ("hpm1", 16, 1 << 12, 0.0, True),
    "hpm2": ("hpm2", 16, 255, 0.0, False),
    "hmc": ("hmc", 6, 32, 0.0, False),
    "hmc-pruned": ("hmc", 6, 32, 1e-6, False),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_TABLES))
def oracle_table(request):
    kind, n, cutoff, eps, aggregate = ORACLE_TABLES[request.param]
    table = enumerate_joint(make_model(kind, 1.5), n, cutoff, eps, tail_aggregation=aggregate)
    return kind, table


def test_conditional_mi_matches_per_group_loop(oracle_table):
    kind, table = oracle_table
    past, future = past_decoder(kind), future_decoder(kind)
    value = _label_decomposition(table, past, future)[2].value
    reference = naive_conditional_mi(table, PAST_ORACLE[Kind(kind)], FUTURE_ORACLE[Kind(kind)])
    assert value == pytest.approx(reference, rel=1e-12)


def test_triple_information_matches_two_sub_table_loop(oracle_table):
    _, table = oracle_table
    alphabet = tuple(range(table.alphabet_size))
    values = _triple_informations(table, predicate_grid(alphabet))
    for i, (pred, (value, *_)) in enumerate(zip(scalar_predicate_grid(alphabet), values)):
        reference = naive_triple_information(table, pred)
        assert abs(value - reference) <= 1e-12 * abs(reference) or value == reference, (
            f"predicate {i}: {value!r} vs loop {reference!r}"
        )


def test_triple_information_of_constant_events_is_exactly_zero(oracle_table):
    _, table = oracle_table
    always = lambda P, F: np.ones(len(P), bool)
    never = lambda P, F: np.zeros(len(P), bool)
    assert _triple_informations(table, [always, never]) == [(0.0, 1.0, True), (0.0, 0.0, True)]


def test_array_predicates_match_scalar_oracle(oracle_table):
    _, table = oracle_table
    assert_predicates_match(table)


# ----- the table profile against the per-entry dict oracle ---------------------


def assert_profile_matches(table):
    prof, ref = table.profile, naive_profile(table)
    assert prof.past.tolist() == ref.past and prof.future.tolist() == ref.future
    assert [bytes(b) for b in prof.past_blocks] == ref.past_blocks
    assert [bytes(b) for b in prof.future_blocks] == ref.future_blocks
    assert prof.past_mass.tolist() == ref.past_mass
    assert prof.future_mass.tolist() == ref.future_mass
    assert table.past_marginal() == dict(zip(ref.past_blocks, ref.past_mass))
    assert table.future_marginal() == dict(zip(ref.future_blocks, ref.future_mass))
    assert prof.masses.tolist() == list(table.entries.values())


def assert_predicates_match(table):
    alphabet = tuple(range(table.alphabet_size))
    prof = table.profile
    P, F = prof.past_blocks[prof.past], prof.future_blocks[prof.future]
    for i, (pred, oracle) in enumerate(zip(predicate_grid(alphabet), scalar_predicate_grid(alphabet))):
        expected = [bool(oracle(key)) for key in table.entries]
        assert pred(P, F).tolist() == expected, f"predicate {i}"


def test_profile_matches_dict_oracle(oracle_table):
    assert_profile_matches(oracle_table[1])


@pytest.mark.parametrize(
    "kind,n,cutoff,aggregate",
    [("hpm1", 64, 1 << 12, True), ("hpm1", 128, 1 << 12, True), ("hmc", 8, 64, False)],
)
def test_profile_matches_dict_oracle_on_large_tables(kind, n, cutoff, aggregate):
    # Packed 2 bits a symbol, hpm1 rows of 64 symbols take two uint64 codes
    # and rows of 128 take four.
    table = enumerate_joint(make_model(kind, 2.0), n, cutoff, tail_aggregation=aggregate)
    assert_profile_matches(table)


@st.composite
def manual_tables(draw):
    n = draw(st.integers(1, 40))
    size = draw(st.integers(2, 4))
    block = st.binary(min_size=n, max_size=n).map(lambda b: bytes(x % size for x in b))
    pasts = draw(st.lists(block, min_size=1, max_size=6))
    futures = draw(st.lists(block, min_size=1, max_size=6))
    cells = st.tuples(
        st.sampled_from(pasts), st.sampled_from(futures), st.floats(1e-9, 1.0)
    )
    entries = {(p, f): mass for p, f, mass in draw(st.lists(cells, min_size=1, max_size=40))}
    return manual_table(n, size, entries)


@seed(20240612)
@settings(max_examples=150, deadline=None, database=None)
@given(manual_tables())
def test_profile_and_predicates_match_oracles_on_manual_tables(table):
    assert_profile_matches(table)
    assert_predicates_match(table)


def test_first_appearance_numbers_whole_rows():
    # Sorted, rows 1 and 2 are neighbours that differ only in their last code.
    values = np.array([[1, 5], [2, 5], [2, 6], [1, 5]], np.uint64)
    ids, first = _first_appearance(values)
    assert ids.tolist() == [0, 1, 2, 0] and first.tolist() == [0, 1, 2]


def dict_numbering(values) -> tuple[list[int], list[int]]:
    """The first-appearance numbering as a dict of ids: the id of every
    value and, by id, the index where each first appears."""
    number: dict = {}
    ids = [number.setdefault(v, len(number)) for v in values]
    first = sorted({v: i for i, v in reversed(list(enumerate(values)))}.values())
    return ids, first


@st.composite
def label_vectors(draw):
    """Integer labels with repeats, in every dtype the numbering takes.  The
    widest label is drawn at the 64 bits the packed sort can hold beside
    the index bits, one beyond, or anywhere; signed labels may be negative."""
    count = draw(st.integers(0, 40))
    bits = max(count - 1, 0).bit_length()
    dtype = draw(st.sampled_from([np.intp, np.int64, np.uint64, object]))
    limit = 63 if dtype in (np.intp, np.int64) else 64
    width = min(limit, draw(st.sampled_from([64 - bits, 65 - bits, draw(st.integers(0, 64))])))
    low = -(1 << 8) if dtype in (np.intp, np.int64) and draw(st.booleans()) else 0
    pool = draw(st.lists(st.integers(low, (1 << width) - 1), min_size=1, max_size=max(1, count)))
    pool[0] = (1 << width) >> 1  # the widest label, of exactly `width` bits
    values = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    return np.array(values, dtype)


EDGE_LABELS = [
    np.zeros(0, np.intp),  # empty
    np.array([7], np.int64),  # one value
    np.full(9, 5, np.uint64),  # all equal
    np.array([4, 1, 3, 0, 2], np.intp),  # all distinct
    np.array([1 << 60, 0, 1 << 60, 3, 0], np.uint64),  # 61 + 3 index bits = 64
    np.array([1 << 61, 0, 1 << 61, 3, 0], np.uint64),  # 62 + 3 = 65
    np.array([1 << 63, 5, 1 << 63], np.uint64),
    np.array([3, -1, 3, 2, -1], np.int64),
    np.array([2**70, 5, 2**70, 5], object),
]


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(label_vectors())
@example(EDGE_LABELS[0])
@example(EDGE_LABELS[1])
@example(EDGE_LABELS[2])
@example(EDGE_LABELS[3])
@example(EDGE_LABELS[4])
@example(EDGE_LABELS[5])
@example(EDGE_LABELS[6])
@example(EDGE_LABELS[7])
@example(EDGE_LABELS[8])
def test_label_numbering_matches_a_dict_on_every_path(labels):
    # The packed sort takes exactly the labels >= 0 whose bits, beside the
    # index bits, fit in 64; each other vector goes by np.argsort, a
    # one-column matrix by np.lexsort, and every path numbers alike.
    values = labels.tolist()
    bits = max(len(values) - 1, 0).bit_length()
    fits = (
        labels.dtype != object
        and len(values) > 0
        and min(values) >= 0
        and max(values).bit_length() + bits <= 64
    )
    assert (_packed_sort(labels) is not None) == fits
    ids, first = dict_numbering(values)
    paths = [labels, labels.astype(object)]
    if labels.dtype != object:
        paths.append(labels.reshape(-1, 1))
    for path in paths:
        got_ids, got_first = _first_appearance(path)
        assert got_ids.dtype == np.intp and got_first.dtype.kind == "i"
        assert got_ids.tolist() == ids and got_first.tolist() == first
    # _runs: values stably sorted by group id, and each group's run length.
    masses = np.arange(len(values), dtype=float)
    ordered, lengths = _runs(np.array(ids, np.intp), masses, len(first))
    by_group = [[i for i, g in enumerate(ids) if g == k] for k in range(len(first))]
    assert ordered.tolist() == [float(i) for run in by_group for i in run]
    assert lengths.tolist() == [len(run) for run in by_group]


@st.composite
def symbol_rows(draw):
    """(k, n) matrices of symbols 0..3 with repeated rows, n on both sides
    of 32 symbols (one uint64 code per row) and of 8 (one packed word)."""
    n = draw(st.sampled_from([1, 7, 8, 9, 16, 31, 32, 33, 40, 64, 65]))
    count = draw(st.integers(0, 30))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    pool = draw(st.lists(row, min_size=1, max_size=max(1, count)))
    rows = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    return np.array(rows, np.uint8).reshape(count, n)


@seed(20261022)
@settings(max_examples=200, deadline=None, database=None)
@given(symbol_rows())
@example(np.zeros((0, 32), np.uint8))
@example(np.full((1, 33), 3, np.uint8))
@example(np.full((6, 32), 3, np.uint8))  # 64-bit codes: np.argsort
@example(np.eye(33, dtype=np.uint8) * 3)
def test_block_numbering_matches_a_dict(rows):
    ids, first = _number_blocks(rows)
    assert (ids.tolist(), first.tolist()) == dict_numbering(list(map(bytes, rows)))


def test_profile_rejects_symbols_outside_the_alphabet():
    with pytest.raises(ValueError, match="outside alphabet 0..1"):
        manual_table(2, 2, {(bytes([0, 2]), bytes([1, 1])): 1.0})


def test_profile_rejects_blocks_of_the_wrong_length():
    # A short block would be padded with symbol 0 and a long one cut.
    for past in (bytes([1]), bytes([1, 0, 1])):
        with pytest.raises(ValueError, match=f"block of length {len(past)} in a table of n = 2"):
            manual_table(2, 2, {(past, bytes([1, 1])): 0.5, (bytes([1, 0]), bytes([1, 1])): 0.5})


def test_profile_rejects_alphabets_beyond_four_symbols():
    with pytest.raises(ValueError, match="alphabet of 5 symbols"):
        manual_table(1, 5, {(bytes([4]), bytes([0])): 1.0})


def test_table_keeps_a_read_only_copy_of_its_entries():
    entries = {(bytes([0]), bytes([0])): 0.5, (bytes([1]), bytes([1])): 0.5}
    t = manual_table(1, 2, entries)
    assert t.past_marginal() == {bytes([0]): 0.5, bytes([1]): 0.5}
    entries[(bytes([0]), bytes([1]))] = 0.25
    assert len(t.entries) == 2 and t.assigned_mass() == 1.0
    for table in (t, enumerate_joint(make_model("hpm1", 2.0), 2, 8)):
        with pytest.raises(TypeError):
            table.entries[(bytes([0, 0]), bytes([0, 1]))] = 0.25
        for array in (table.keys, table.masses):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_dropped_entry_leaves_no_block_in_the_profile():
    # Past block 2 occurs only in the entry below MIN_ENTRY_MASS.
    entries = {
        (bytes([0]), bytes([0])): 0.5,
        (bytes([2]), bytes([1])): 1e-40,
        (bytes([1]), bytes([1])): 0.5,
    }
    t = _retained_table(table_from(1, 3, entries, Interval.point(0.0)))
    assert list(t.entries) == [(bytes([0]), bytes([0])), (bytes([1]), bytes([1]))]
    assert t.pruned_mass == Interval.point(1e-40)
    prof = t.profile
    assert prof.past.tolist() == [0, 1] and prof.past_blocks.tolist() == [[0], [1]]
    assert prof.future_blocks.tolist() == [[0], [1]]
    assert t.past_marginal() == {bytes([0]): 0.5, bytes([1]): 0.5}
