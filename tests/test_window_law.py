"""The sampler against the exact engine: G-tests (Wilks, Ann. Math.
Statist. 9, 1938) of sampled window counts against a table's key masses and
of sampled hmc word levels against the branch law, and the faults, on
either side, that they must catch.

The two sides share only `series.level_weight` and the normalization
constants, so a fault in either shows as a disagreement.  The sizes are
measured: at them each fault below gave p < 1e-9 at every seed tried,
and the unfaulted laws pass at 20 seeds (CHANGES.md)."""

import math

import numpy as np
import pytest

from excesslab import exact, sampling
from excesslab.models import ProcessModel

from conftest import (
    G_TEST_THRESHOLD,
    branch_law_p_value,
    chi2_tail,
    law_p_value,
    make_model,
    sampled_windows,
    window_law,
)

WINDOWS = 400_000
SLOW_WINDOWS = 1_000_000
BRANCH_SYMBOLS = 1_000_000
SEED = 2026
# (model, n, level cutoff, tail aggregation) of each window-law case
CASES = {
    "hpm1": (make_model("hpm1", 1.5), 4, 8, True),
    "hpm2": (make_model("hpm2", 2.0), 4, 255, False),
}


def _window_p_value(kind: str, counts=None) -> float:
    model, n, cutoff, aggregate = CASES[kind]
    counts = counts if counts is not None else sampled_windows(model, 2 * n, WINDOWS, SEED)
    return law_p_value(window_law(model, n, cutoff, aggregate), counts, WINDOWS)


def test_chi2_tail_matches_closed_forms():
    # Q(1, x/2) = exp(-x/2) for 2 degrees of freedom, erfc(sqrt(x/2)) for 1.
    for x in (0.01, 0.5, 1.0, 2.0, 5.0, 30.0, 150.0):
        assert chi2_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
        assert chi2_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-10)
    assert chi2_tail(0.0, 5) == 1.0


@pytest.mark.parametrize("kind", sorted(CASES))
def test_sampled_windows_follow_the_table_law(kind):
    assert _window_p_value(kind) >= G_TEST_THRESHOLD


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_million_sampled_windows_follow_the_table_law(kind, n):
    # The Tier-1 law test's cases at N = 10**6 over four block lengths; the
    # sample is not cached, as no other test reads it.
    model, _, cutoff, aggregate = CASES[kind]
    counts = sampled_windows.__wrapped__(model, 2 * n, SLOW_WINDOWS, SEED)
    law = window_law(model, n, cutoff, aggregate)
    assert law_p_value(law, counts, SLOW_WINDOWS) >= G_TEST_THRESHOLD


def test_window_law_catches_a_sampler_level_fault(monkeypatch):
    # Level 3 drawn 1.05 times as often: its step of the prefix CDF grows.
    real = sampling._stationary_tables(2.0, make_model("hpm2", 2.0).series_cutoff)
    c_mid, cdf = real[0], real[1].copy()
    cdf[1:] += 0.05 * (cdf[1] - cdf[0])
    monkeypatch.setattr(sampling, "_stationary_tables", lambda alpha, cutoff: (c_mid, cdf))
    model, n, _, _ = CASES["hpm2"]
    counts = sampled_windows.__wrapped__(model, 2 * n, WINDOWS, SEED)
    assert _window_p_value("hpm2", counts) < G_TEST_THRESHOLD


def test_window_law_catches_a_table_level_fault(monkeypatch):
    # Level 3 given 1.05 times its mass in the table.  On the aggregated
    # hpm1 table the conservation interval still contains 1.
    real = exact._level_masses

    def faulty(model, levels, branch=False):
        masses = real(model, levels, branch)
        return np.where(np.asarray(levels) == 3, 1.05 * masses, masses)

    monkeypatch.setattr(exact, "_level_masses", faulty)
    assert _window_p_value("hpm1") < G_TEST_THRESHOLD


def test_window_law_catches_an_hpm2_emission_fault(monkeypatch):
    # The table reads the digits of level 5 reversed; the sampler's
    # emission_array does not read emission_word.
    real = ProcessModel.emission_word

    def faulty(self, level):
        word = real(self, level)
        return word[:1] + word[:0:-1] if level == 5 else word

    monkeypatch.setattr(ProcessModel, "emission_word", faulty)
    assert _window_p_value("hpm2") < G_TEST_THRESHOLD


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_hmc_word_levels_follow_the_branch_law(alpha):
    assert branch_law_p_value(make_model("hmc", alpha), BRANCH_SYMBOLS, SEED) >= G_TEST_THRESHOLD


def test_branch_law_catches_a_branch_fault(monkeypatch):
    # Branch level 3 drawn 1.05 times as often.
    model = make_model("hmc", 1.5)
    d_mid, cdf, group_cdf = sampling._branch_tables(model.alpha, model.series_cutoff)
    bump = 0.05 * (cdf[1] - cdf[0])
    cdf = cdf.copy()
    cdf[1:] += bump
    faulty = (d_mid, cdf, group_cdf + bump)
    monkeypatch.setattr(sampling, "_branch_tables", lambda alpha, cutoff: faulty)
    assert branch_law_p_value(model, BRANCH_SYMBOLS, SEED) < G_TEST_THRESHOLD
