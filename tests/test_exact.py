"""Exact-engine contracts: oracle equivalence, conservation, certified
entropies and mutual informations, conditioning, and table plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from excesslab.exact import (
    BudgetExceededError,
    JointBlockTable,
    LabelDisagreementError,
    _first_appearance,
    _label_decomposition,
    _retained_table,
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
    make_model,
    naive_conditional_mi,
    naive_cyclic_table,
    naive_hmc_table,
    naive_profile,
    naive_triple_information,
    scalar_predicate_grid,
)


def manual_table(n, alphabet_size, entries, pruned=0.0, slack=0.0):
    return JointBlockTable(
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
    m = make_model("hpm1", 1.5)
    with pytest.raises(ValueError):
        enumerate_joint(m, 0, 16)
    with pytest.raises(ValueError):
        enumerate_joint(m, 2, 1)
    with pytest.raises(ValueError):
        enumerate_joint(m, 2, 16, prune_eps=1.0)
    with pytest.raises(ValueError):
        enumerate_joint(make_model("hpm2", 1.5), 2, 16, tail_aggregation=True)


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
    ref_table = JointBlockTable(
        n=8,
        alphabet_size=2,
        entries=reference,
        pruned_mass=table.pruned_mass,
        entry_slack=table.entry_slack,
    )
    assert block_mi(ref_table).value == pytest.approx(block_mi(table).value, abs=1e-10)


def test_hmc_pruned_table_matches_pruned_oracle():
    # The oracle skips the same branches; the mass it never reaches from the
    # seeds is what the engine books as pruned beyond the level tail.
    h = make_model("hmc", 1.5)
    reference = naive_hmc_table(h, 6, 32, 1e-6)
    table = enumerate_joint(h, 6, 32, 1e-6)
    assert_tables_match(reference, table.entries, tol=1e-12)
    seeds = math.fsum(h.level_mass(m).mid for m in range(2, 33))
    missed = seeds - math.fsum(reference.values())
    tail = h.level_tail_mass(32)
    path_pruned = Interval(table.pruned_mass.lo - tail.lo, table.pruned_mass.hi - tail.hi)
    assert path_pruned.lo - 1e-12 <= missed <= path_pruned.hi + 1e-12
    assert abs(path_pruned.mid - missed) <= 1e-12


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
    for field in ("kind=hmc", "alpha=1.5", "n=6", "level_cutoff=32", "prune_eps=0.0"):
        assert field in str(raised.value)


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
    for field in ("kind=hpm1", "alpha=1.5", "n=4", "level_cutoff=64"):
        assert field in str(raised.value)


def test_path_budget_counts_every_push():
    # Every seed and every kept branch counts once, whether its subtree is
    # expanded or taken from the completion cache: 36,576 at this point.
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError):
        enumerate_joint(h, 4, 64, path_budget=36_575)
    assert len(enumerate_joint(h, 4, 64, path_budget=36_576).entries) == 2109


def test_hmc_completion_cache_is_held_to_entry_budget():
    # The cached suffix tables are checked as they grow, so the run stops
    # before the joint table is built.
    h = make_model("hmc", 1.5)
    with pytest.raises(BudgetExceededError, match="completion table") as raised:
        enumerate_joint(h, 8, 64, entry_budget=200)
    for field in ("kind=hmc", "alpha=1.5", "n=8", "level_cutoff=64", "prune_eps=0.0"):
        assert field in str(raised.value)


@pytest.mark.parametrize("prune_eps", [float(e) for e in np.logspace(-9, -4, 8)])
def test_hmc_matches_oracle_across_the_cache_gate(prune_eps):
    # From 1e-9 every subtree comes from the cache; towards 1e-4 most word
    # boundaries expand explicitly because some leaf below them is pruned.
    h = make_model("hmc", 1.5)
    reference = naive_hmc_table(h, 5, 16, prune_eps)
    table = enumerate_joint(h, 5, 16, prune_eps)
    assert_tables_match(reference, table.entries, tol=1e-12)


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
    e, _, cond, _ = _label_decomposition(t, lambda B: np.zeros(len(B), np.int64), None)
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
    for i, (pred, (value, _)) in enumerate(zip(scalar_predicate_grid(alphabet), values)):
        reference = naive_triple_information(table, pred)
        assert abs(value - reference) <= 1e-12 * abs(reference) or value == reference, (
            f"predicate {i}: {value!r} vs loop {reference!r}"
        )


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


def test_profile_rejects_symbols_outside_the_alphabet():
    t = manual_table(2, 2, {(bytes([0, 2]), bytes([1, 1])): 1.0})
    with pytest.raises(ValueError, match="outside alphabet 0..1"):
        t.profile


def test_profile_rejects_blocks_of_the_wrong_length():
    # A short block would be padded with symbol 0 and a long one cut.
    for past in (bytes([1]), bytes([1, 0, 1])):
        t = manual_table(2, 2, {(past, bytes([1, 1])): 0.5, (bytes([1, 0]), bytes([1, 1])): 0.5})
        with pytest.raises(ValueError, match=f"block of length {len(past)} in a table of n = 2"):
            t.profile


def test_profile_rejects_alphabets_beyond_four_symbols():
    t = manual_table(1, 5, {(bytes([4]), bytes([0])): 1.0})
    with pytest.raises(ValueError, match="alphabet of 5 symbols"):
        t.profile


def test_table_keeps_a_read_only_copy_of_its_entries():
    entries = {(bytes([0]), bytes([0])): 0.5, (bytes([1]), bytes([1])): 0.5}
    t = manual_table(1, 2, entries)
    assert t.past_marginal() == {bytes([0]): 0.5, bytes([1]): 0.5}
    entries[(bytes([0]), bytes([1]))] = 0.25
    assert len(t.entries) == 2 and t.assigned_mass() == 1.0
    for table in (t, enumerate_joint(make_model("hpm1", 2.0), 2, 8)):
        with pytest.raises(TypeError):
            table.entries[(bytes([0, 0]), bytes([0, 1]))] = 0.25


def test_dropped_entry_leaves_no_block_in_the_profile():
    # Past block 2 occurs only in the entry below MIN_ENTRY_MASS.
    entries = {
        (bytes([0]), bytes([0])): 0.5,
        (bytes([2]), bytes([1])): 1e-40,
        (bytes([1]), bytes([1])): 0.5,
    }
    t = _retained_table(1, 3, entries, Interval.point(0.0), 0.0, {})
    assert list(t.entries) == [(bytes([0]), bytes([0])), (bytes([1]), bytes([1]))]
    assert t.pruned_mass == Interval.point(1e-40)
    prof = t.profile
    assert prof.past.tolist() == [0, 1] and prof.past_blocks.tolist() == [[0], [1]]
    assert prof.future_blocks.tolist() == [[0], [1]]
    assert t.past_marginal() == {bytes([0]): 0.5, bytes([1]): 0.5}
