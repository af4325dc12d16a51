"""Shared fixtures: fast-cutoff models and independently coded reference
enumerators used as oracles against the production engine."""

from __future__ import annotations

import re

import pytest

from excesslab.models import ProcessModel
from excesslab.series import level_weight

# Tests run the normalization series at a reduced cutoff; enclosures stay
# certified, just a few orders of magnitude wider than the default.
FAST_SERIES_CUTOFF = 1_000_000

_MODELS: dict = {}


def make_model(kind: str, alpha: float, fixed_level: int | None = None) -> ProcessModel:
    key = (kind, alpha, fixed_level)
    if key not in _MODELS:
        _MODELS[key] = ProcessModel(
            kind, alpha, series_cutoff=FAST_SERIES_CUTOFF, fixed_level=fixed_level
        )
    return _MODELS[key]


@pytest.fixture(scope="session")
def model_factory():
    return make_model


def naive_cyclic_table(model: ProcessModel, n: int, level_cutoff: int) -> dict:
    """Brute-force mixture enumeration over every (level, phase) pair.

    Deliberately plain: per level, walk each phase and slice the repeated
    emission word; no structural shortcuts.
    """
    length = 2 * n
    entries: dict = {}
    for m in range(2, level_cutoff + 1):
        level_mass = model.level_mass(m).mid
        word = model.emission_word(m)
        r = len(word)
        ext = word * ((length + r - 1) // r + 1)
        per_phase = level_mass / r
        for k in range(r):
            win = ext[k : k + length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + per_phase
    return entries


def naive_hmc_table(
    model: ProcessModel, n: int, level_cutoff: int, prune_eps: float = 0.0
) -> dict:
    """Reference for the ergodic kind: full recursive path expansion with no
    ordering tricks and no merging shortcuts.  A branch whose path
    probability falls below `prune_eps` is skipped, as the engine does."""
    length = 2 * n
    words = {m: model.emission_word(m) for m in range(2, level_cutoff + 1)}
    c_mid = model.norm_c.mid
    d_mid = model.norm_d.mid
    branch = {
        m: d_mid * level_weight(m, model.alpha) / model.phase_count(m) for m in words
    }
    entries: dict = {}

    def walk(prefix: bytes, prob: float, m: int, k: int) -> None:
        word = words[m]
        prefix = prefix + word[k - 1 :]
        if len(prefix) >= length:
            win = prefix[:length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + prob
            return
        for nxt in words:
            if prob * branch[nxt] >= prune_eps:
                walk(prefix, prob * branch[nxt], nxt, 1)

    for m in words:
        seed = c_mid * level_weight(m, model.alpha) / model.phase_count(m)
        for k in range(1, len(words[m]) + 1):
            walk(b"", seed, m, k)
    return entries


def assert_tables_match(reference: dict, entries: dict, tol: float = 1e-12) -> float:
    assert set(reference) == set(entries), (
        f"key sets differ: {len(reference)} reference vs {len(entries)} engine; "
        f"only-ref {list(set(reference) - set(entries))[:3]}, "
        f"only-engine {list(set(entries) - set(reference))[:3]}"
    )
    worst = max(abs(reference[k] - entries[k]) for k in reference)
    assert worst <= tol, f"worst per-entry gap {worst:.3e} exceeds {tol:.0e}"
    return worst


def truth_hits(detail: str) -> int:
    """Windows with a defined hidden truth, read off a decoder_agreement
    detail ("..., <errors>/<hits> hidden-truth mismatches")."""
    return int(re.search(r"(\d+)/(\d+) hidden-truth", detail).group(2))
