"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Scales are pinned here; criteria 2, 3, 4, 5, 7 and 9 run the
checks of `excesslab verify` (`verify.check_*`) with their tolerances, so the
gate and the CLI cannot drift apart.  Shared sweeps are computed once per
session and reused across criteria.
"""

import math
import time

import pytest

from excesslab.analysis import fit_rate
from excesslab.decoders import decoded_level_entropy
from excesslab.exact import _number_blocks, block_mi, enumerate_joint
from excesslab.sampling import estimate_block_mi, sample_trajectories
from excesslab.series import tail_sum_bracket
from excesslab.verify import (
    BRACKET_ALPHAS,
    BRACKET_POINTS,
    _direct_sums,
    check_decoder_agreement,
    check_decomposition,
    check_monotonicity,
    check_sandwich,
    check_series_brackets,
    check_triple_bound,
    predicate_grid,
)

from conftest import (
    FAST_SERIES_CUTOFF,
    assert_tables_match,
    make_model,
    naive_cyclic_table,
    naive_hmc_table,
    truth_hits,
)

ALPHAS = (1.5, 2.0)
KINDS = ("hpm1", "hpm2", "hmc")

# Pinned enumeration scales for the identity/sandwich/monotonicity sweeps.
HMC_PRUNE = {4: 0.0, 8: 0.0, 12: 0.0, 16: 1e-7}


def _table(kind: str, alpha: float, n: int):
    model = make_model(kind, alpha)
    if kind == "hmc":
        return enumerate_joint(model, n, 64, HMC_PRUNE.get(n, 1e-7))
    if kind == "hpm1":
        return enumerate_joint(model, n, 1 << 12, tail_aggregation=True)
    return enumerate_joint(model, n, max(4, (1 << (n // 2)) - 1))


@pytest.fixture(scope="session")
def sweep_tables():
    tables = {}
    for kind in KINDS:
        for alpha in ALPHAS:
            for n in (4, 8, 12, 16):
                tables[(kind, alpha, n)] = _table(kind, alpha, n)
    return tables


@pytest.fixture(scope="session")
def sweep_mi(sweep_tables):
    return {key: block_mi(t) for key, t in sweep_tables.items()}


def test_sweep_tables_have_distinct_keys(sweep_tables):
    # One numbering of the full 2n-symbol rows: a repeated key would have
    # split its mass over two rows, and every reduction would miscount it.
    for key, table in sweep_tables.items():
        assert len(_number_blocks(table.keys)[1]) == len(table.keys), key


def test_criterion_1_oracle_equivalence():
    """Exact enumeration matches independent naive enumerators entry-by-entry."""
    start = time.time()
    worst = 0.0
    cases = 0
    for alpha in ALPHAS:
        for kind in ("hpm1", "hpm2"):
            model = make_model(kind, alpha)
            for n in (2, 4, 6):
                reference = naive_cyclic_table(model, n, 1 << 10)
                table = enumerate_joint(model, n, 1 << 10)
                worst = max(worst, assert_tables_match(reference, table.entries, tol=1e-12))
                cases += 1
        model = make_model("hmc", alpha)
        for n in (2, 4, 6):
            reference = naive_hmc_table(model, n, 1 << 6)
            table = enumerate_joint(model, n, 1 << 6, 0.0)
            worst = max(worst, assert_tables_match(reference, table.entries, tol=1e-12))
            cases += 1
    elapsed = time.time() - start
    assert elapsed <= 120.0
    print(
        f"\nACCEPTANCE 1 PASS oracle equivalence: {cases} cases, worst per-entry gap "
        f"{worst:.2e} <= 1e-12, {elapsed:.0f}s <= 120s"
    )


def test_criterion_2_decomposition_identity(sweep_tables):
    """|E(n) - H(D) - I(past;future|D)| within float roundoff everywhere."""
    start = time.time()
    check = check_decomposition(sweep_tables)
    assert check.passed, check.detail
    elapsed = time.time() - start
    assert elapsed <= 600.0
    print(
        f"\nACCEPTANCE 2 PASS decomposition identity: {len(sweep_tables)} tables, "
        f"{check.detail} within the roundoff allowance, {elapsed:.0f}s <= 600s"
    )


def test_criterion_3_decoder_agreement():
    """>= 1e6 sampled windows per kind: past = future decode, hidden truth holds."""
    start = time.time()
    for kind in KINDS:
        check = check_decoder_agreement(make_model(kind, 1.5), windows=1_000_000, seed=2026)
        assert check.passed, check.detail
        assert truth_hits(check.detail) > 0, check.detail
        print(f"\nACCEPTANCE 3 PASS {check.name}: {check.detail}")
    elapsed = time.time() - start
    assert elapsed <= 120.0
    print(f"ACCEPTANCE 3 runtime {elapsed:.0f}s <= 120s")


def test_criterion_4_series_brackets():
    """Direct sums lie inside the closed-form brackets; zero failures."""
    start = time.time()
    # The partial sums and the [n, 2n) segments, as `excesslab verify` checks them.
    check = check_series_brackets()
    assert check.passed, check.detail
    checks = 2 * len(BRACKET_ALPHAS) * len(BRACKET_POINTS)
    # The [n, 4n) segments, which verify does not check, summed as it sums.
    for n in BRACKET_POINTS:
        for alpha, direct_seg in zip(BRACKET_ALPHAS, _direct_sums(n, 4 * n, BRACKET_ALPHAS)):
            lo = tail_sum_bracket(alpha, n).lo - tail_sum_bracket(alpha, 4 * n).hi
            hi = tail_sum_bracket(alpha, n).hi - tail_sum_bracket(alpha, 4 * n).lo
            assert lo - 1e-12 <= direct_seg <= hi + 1e-12, (alpha, n)
            checks += 1
    elapsed = time.time() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 4 PASS series brackets: {checks} checks, zero failures, {elapsed:.0f}s <= 60s")


def test_criterion_5_sandwich_and_data_processing(sweep_tables):
    """H(D) <= upper(E), lower(E) <= bound, lower(E) <= restricted entropy + slack."""
    check = check_sandwich(sweep_tables, FAST_SERIES_CUTOFF)
    assert check.passed, check.detail
    dp_checked = sum(1 for t in sweep_tables.values() if not t.meta["tail_aggregation"])
    print(
        f"\nACCEPTANCE 5 PASS sandwich: {len(sweep_tables)} points, "
        f"{dp_checked} data-processing comparisons, zero violations"
    )


def test_criterion_6_rate_laws():
    """Growth classes at desk scale for both tail exponents."""
    start = time.time()
    summary = []

    # (a) digit-cycle kind, alpha = 1.5: power law with exponent near 1/2
    m = make_model("hpm2", 1.5)
    pts = [
        (n, block_mi(enumerate_joint(m, n, (1 << (n // 2)) - 1)).value)
        for n in range(8, 29, 2)
    ]
    fit_a = fit_rate(pts, "power")
    assert 0.35 <= fit_a.fitted_slope <= 0.65, fit_a
    assert fit_a.r_squared >= 0.97, fit_a
    summary.append(f"hpm2 a=1.5 slope {fit_a.fitted_slope:.3f} R2 {fit_a.r_squared:.4f}")

    # (a') digit-cycle kind, alpha = 2: logarithmic growth
    m = make_model("hpm2", 2.0)
    pts = [
        (n, block_mi(enumerate_joint(m, n, (1 << (n // 2)) - 1)).value)
        for n in range(8, 29, 2)
    ]
    fit_a2 = fit_rate(pts, "log")
    assert fit_a2.r_squared >= 0.97, fit_a2
    summary.append(f"hpm2 a=2 log R2 {fit_a2.r_squared:.4f}")

    # (b) marker-cycle kind, alpha = 1.5: log-power growth beats the power law
    m = make_model("hpm1", 1.5)
    pts = [
        (n, block_mi(enumerate_joint(m, n, 1 << 12, tail_aggregation=True)).value)
        for n in range(8, 65, 4)
    ]
    fit_b = fit_rate(pts, "logpow", beta=0.5)
    fit_b_pow = fit_rate(pts, "power")
    assert fit_b.r_squared >= 0.97, fit_b
    assert fit_b.r_squared > fit_b_pow.r_squared, (fit_b, fit_b_pow)
    summary.append(
        f"hpm1 a=1.5 logpow R2 {fit_b.r_squared:.4f} > power R2 {fit_b_pow.r_squared:.4f}"
    )

    # (b') marker-cycle kind, alpha = 2: log log beats log
    m = make_model("hpm1", 2.0)
    pts = [
        (n, block_mi(enumerate_joint(m, n, 1 << 12, tail_aggregation=True)).value)
        for n in range(8, 65, 4)
    ]
    fit_ll = fit_rate(pts, "loglog")
    fit_lg = fit_rate(pts, "log")
    assert fit_ll.r_squared > fit_lg.r_squared, (fit_ll, fit_lg)
    summary.append(f"hpm1 a=2 loglog R2 {fit_ll.r_squared:.4f} > log R2 {fit_lg.r_squared:.4f}")

    # (c) ergodic kind via the closed-form revealed-level entropy
    pts = [
        (n, decoded_level_entropy("hmc", 1.5, n, FAST_SERIES_CUTOFF).value)
        for n in range(8, 41, 2)
    ]
    fit_c = fit_rate(pts, "power")
    assert 0.4 <= fit_c.fitted_slope <= 0.6, fit_c
    assert fit_c.r_squared >= 0.99, fit_c
    summary.append(f"hmc a=1.5 slope {fit_c.fitted_slope:.3f} R2 {fit_c.r_squared:.4f}")

    pts = [
        (n, decoded_level_entropy("hmc", 2.0, n, FAST_SERIES_CUTOFF).value)
        for n in range(8, 41, 2)
    ]
    fit_c2 = fit_rate(pts, "log")
    assert fit_c2.r_squared >= 0.97, fit_c2
    summary.append(f"hmc a=2 log R2 {fit_c2.r_squared:.4f}")

    elapsed = time.time() - start
    assert elapsed <= 900.0
    print(f"\nACCEPTANCE 6 PASS rate laws ({elapsed:.0f}s <= 900s):")
    for line in summary:
        print(f"  {line}")


def test_criterion_7_triple_information_bound(sweep_tables):
    """|I(past; future; 1_B)| <= H(1_B) <= 1 over 20 predicates x 3 kinds x n in {4, 8}."""
    tables = {(kind, 1.5, n): sweep_tables[(kind, 1.5, n)] for kind in KINDS for n in (4, 8)}
    check = check_triple_bound(tables)
    assert check.passed, check.detail
    evaluations = sum(len(predicate_grid(tuple(range(t.alphabet_size)))) for t in tables.values())
    print(
        f"\nACCEPTANCE 7 PASS triple-information bound: {evaluations} evaluations, "
        f"{check.detail} <= H(1_B)"
    )


def test_criterion_8_estimator_calibration():
    """Pooled plug-in and Miller-Madow land inside exact interval +- 3 SE."""
    start = time.time()
    model = make_model("hpm2", 1.5)
    n = 10
    exact = block_mi(enumerate_joint(model, n, (1 << (n // 2)) - 1))
    reps = 20
    hits = 0
    for rep in range(reps):
        trajs = sample_trajectories(model, 10_000, 2 * n, seed=9000 + rep)
        ok = True
        for method in ("plugin", "miller_madow"):
            report = estimate_block_mi(trajs, n, method=method, bootstrap_resamples=16)
            lo = exact.lower - 3 * report.std_error
            hi = exact.upper + 3 * report.std_error
            if not lo <= report.point_estimate <= hi:
                ok = False
        hits += ok
    elapsed = time.time() - start
    assert hits >= math.ceil(0.95 * reps), f"{hits}/{reps} repetitions inside"
    assert elapsed <= 600.0
    print(
        f"\nACCEPTANCE 8 PASS estimator calibration: {hits}/{reps} repetitions inside "
        f"certified interval +- 3 SE, {elapsed:.0f}s <= 600s"
    )


def test_criterion_9_monotonicity(sweep_mi):
    """Certified intervals consistent with nondecreasing E(n) on every sweep."""
    check = check_monotonicity(sweep_mi)
    assert check.passed, check.detail
    print(f"\nACCEPTANCE 9 PASS monotonicity: {check.detail} on {len(sweep_mi)} points")
