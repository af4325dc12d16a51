"""Integral brackets for the slowly convergent level-weight series.

The stationary level law puts weight w(m) = 1/(m * log2(m)**alpha) on level
m >= 2, with alpha in (1, 2].  Everything downstream needs partial and tail
sums of w(m), and of w(m) multiplied by slowly varying factors (log2 m,
log2 log2 m, digit-count terms).  For a positive decreasing f,

    integral_a^{b+1} f  <=  sum_{m=a}^{b} f(m)  <=  f(a) + integral_a^b f,

and the integrals have closed forms after substituting p = log2 m.  That
turns every needed sum into a certified two-sided enclosure: direct
summation up to a configurable cutoff, per-digit-group brackets beyond it,
so cutoffs as large as 2**n for block length n cost little.  Direct sums
are summed once per (alpha, binary-digit group) per process and shared by
the normalisers C and D and the level sums: a group's weight is summed
once whichever of them reaches it first.  The sums taken term by term
from `level_weight`, and `squared_level_tail`, are cached per (alpha,
bounds) too: callers only multiply them by C or D.

All logarithms are base 2; entropies derived from these sums are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intervals import Interval

LN2 = math.log(2.0)

# Direct summation boundary for the group-bracketed sums: full digit groups
# up to this many binary digits are summed term by term.
_DIRECT_DIGITS = 22

# Chunk size for vectorised series summation: a chunk's 128 KiB temporaries
# stay in cache and are reused by malloc; at 2**15 terms and more each one
# was a fresh mapping that page-faulted on first touch.
_CHUNK = 1 << 14


def level_weight(m: int, alpha: float) -> float:
    """w(m) = 1 / (m * log2(m)**alpha) for a single level m >= 2."""
    return 1.0 / (m * math.log2(m) ** alpha)


def partial_sum_bracket(alpha: float, n: int) -> Interval:
    """Enclosure of sum_{m=2}^{n} 1/(m * log2(m)**(alpha-1)).

    The closed-form integral is (ln2/(2-alpha)) * (log2(n)**(2-alpha) - 1)
    for alpha < 2 and (ln2)**2 * log2(log2(n)) at alpha = 2; the first term
    of the sum, 1/2 regardless of alpha, is the bracket width.
    """
    _check_alpha(alpha)
    if n < 2:
        raise ValueError(f"partial sum starts at m=2, got n={n}")
    integral = _integral_pow(alpha - 1.0, 1.0, math.log2(n))
    return Interval(integral, integral + 0.5)


def tail_sum_bracket(alpha: float, n: int) -> Interval:
    """Enclosure of sum_{m=n}^{infinity} 1/(m * log2(m)**alpha).

    Closed form ln2/(alpha-1) * log2(n)**(1-alpha) plus a slack of at most
    the first term 1/(n * log2(n)**alpha).
    """
    _check_alpha(alpha)
    if n < 2:
        raise ValueError(f"tail sum starts at m >= 2, got n={n}")
    integral = _integral_pow(alpha, math.log2(n), None)
    first = 1.0 / (n * math.log2(n) ** alpha) if n.bit_length() <= 1020 else 0.0
    return Interval(integral, integral + first)


@lru_cache(maxsize=None)
def squared_level_tail(alpha: float, a: int) -> Interval:
    """Enclosure of sum_{m=a}^{infinity} 1/(m**2 * log2(m)**alpha), cached.

    Converges fast (1/m**2); summed directly below b = max(a, 2**18), then
    bracketed using log2(m) >= log2(b) below and log2(m) <= 2*log2(b) on
    [b, b**2] above.
    """
    _check_alpha(alpha)
    if a < 2:
        raise ValueError(f"squared tail starts at m >= 2, got a={a}")
    b = max(a, 1 << 18)
    direct = 0.0
    if a < b:
        parts = []
        for lo in range(a, b, _CHUNK):
            m = np.arange(lo, min(lo + _CHUNK, b), dtype=np.float64)
            parts.append(float(np.sum(1.0 / (m * m * np.log2(m) ** alpha))))
        direct = math.fsum(parts)
    lb = math.log2(b)
    f_b = 1.0 / (b * b * lb**alpha)
    int_hi = 1.0 / (b * lb**alpha)
    int_lo = (1.0 / b - 1.0 / (b * b)) / (2.0 * lb) ** alpha
    return Interval(direct + int_lo, direct + int_hi + f_b)


@dataclass(frozen=True)
class LevelSums:
    """Enclosures of sum_{m=2}^{m_max} w(m) * factor(m) for the factors we need.

    s0:         factor 1
    s1:         factor log2(m)
    s2:         factor log2(log2(m))   (0 at m = 2)
    s_digit:    factor log2(s(m)), s(m) the binary digit count
    """

    s0: Interval
    s1: Interval
    s2: Interval
    s_digit: Interval


def level_weight_sums(alpha: float, m_max: int) -> LevelSums:
    """Certified enclosures of the weighted level sums up to m_max (inclusive).

    m_max may be astronomically large (it is an int, e.g. 2**n); only
    min(m_max, 2**22 - 1) terms are summed directly, from the cached
    digit-group sums.  The rest is bracketed one binary-digit group at a
    time, every group in one array pass, on every call.
    """
    _check_alpha(alpha)
    if m_max < 2:
        raise ValueError(f"level sums start at m=2, got m_max={m_max}")

    direct_top = min(m_max, (1 << _DIRECT_DIGITS) - 1)
    s0, s1, s2, sd = (Interval.point(v) for v in _direct_sums(alpha, direct_top)[:4])

    if m_max > direct_top:
        # Group j holds levels 2**(j-1) .. 2**j - 1, the last one up to m_max.
        js = np.arange(_DIRECT_DIGITS + 1, m_max.bit_length() + 1, dtype=np.float64)
        la, lb1 = js - 1.0, js.copy()
        # log2(2**j - 1), which rounds to j from j = 54 on
        lb = js + np.log1p(-np.exp2(-js)) / LN2
        lb[-1], lb1[-1] = math.log2(m_max), math.log2(m_max + 1)
        g0, g1 = _group_brackets(alpha, la, lb, lb1), _group_brackets(alpha - 1.0, la, lb, lb1)
        log_j = np.log2(js)
        s0 = s0 + Interval(*(float(np.sum(g)) for g in g0))
        s1 = s1 + Interval(*(float(np.sum(g)) for g in g1))
        s2 = s2 + Interval(float(np.sum(g0[0] * np.log2(la))), float(np.sum(g0[1] * log_j)))
        sd = sd + Interval(*(float(np.sum(g * log_j)) for g in g0))

    return LevelSums(s0, s1, s2, sd)


def _direct_sums(alpha: float, top: int) -> tuple[float, float, float, float, float]:
    """sum_{m=2}^{top} w(m) * factor(m) for the factors 1, log2(m), log2(log2(m)),
    log2(s(m)) and 1/(3*s(m)), added by math.fsum from the cached digit-group
    sums; s(m) = j is constant on digit group j."""
    js = range(2, top.bit_length() + 1)
    s0, s1, s2 = zip(*(_group_sums(alpha, min((1 << j) - 1, top)) for j in js))
    sd = [math.log2(j) * g for j, g in zip(js, s0)]
    branch = [g / (3.0 * j) for j, g in zip(js, s0)]
    return tuple(math.fsum(parts) for parts in (s0, s1, s2, sd, branch))


@lru_cache(maxsize=None)
def _group_sums(alpha: float, top: int) -> tuple[float, float, float]:
    """sum w(m), w(m)*log2(m) and w(m)*log2(log2(m)) over m from
    max(2, 2**(j-1)) to top, j = top.bit_length(): one digit group, keyed by
    its last level (2**j - 1 when whole).  Chunk sums are added by math.fsum."""
    parts = []
    for lo in range(max(2, 1 << (top.bit_length() - 1)), top + 1, _CHUNK):
        m = np.arange(lo, min(lo + _CHUNK, top + 1), dtype=np.float64)
        logm = np.log2(m)
        w = 1.0 / (m * logm**alpha)
        parts.append((float(np.sum(w)), float(np.sum(w * logm)), float(np.sum(w * np.log2(logm)))))
    return tuple(math.fsum(p) for p in zip(*parts))


@lru_cache(maxsize=None)
def normalization_sum(alpha: float, cutoff: int) -> Interval:
    """Enclosure of sum_{m=2}^{infinity} w(m): direct to `cutoff`, tail bracketed."""
    _check_alpha(alpha)
    if cutoff < 2:
        raise ValueError(f"series cutoff must be >= 2, got {cutoff}")
    direct = _direct_sums(alpha, cutoff)[0]
    return direct + tail_sum_bracket(alpha, cutoff + 1)


@lru_cache(maxsize=None)
def level_weight_fsum(alpha: float, lo: int, hi: int) -> float:
    """sum_{m=lo}^{hi} w(m), each term from `level_weight`, added by math.fsum."""
    return math.fsum(level_weight(m, alpha) for m in range(lo, hi + 1))


@lru_cache(maxsize=None)
def branch_weight_sum(alpha: float, top: int) -> float:
    """sum_{m=2}^{top} w(m) / (3*s(m)), the hmc branch weights, by math.fsum."""
    return math.fsum(level_weight(m, alpha) / (3 * m.bit_length()) for m in range(2, top + 1))


@lru_cache(maxsize=None)
def level_tail_sum(alpha: float, cutoff: int) -> Interval:
    """Enclosure of sum_{m>cutoff} w(m): 4096 terms summed, the rest bracketed."""
    top = cutoff + 4096
    return level_weight_fsum(alpha, cutoff + 1, top) + tail_sum_bracket(alpha, top + 1)


@lru_cache(maxsize=None)
def branch_normalization_sum(alpha: float, cutoff: int) -> Interval:
    """Enclosure of sum_{m=2}^{infinity} w(m) / (3*s(m)) (branch weights).

    The 1/s(m) factor makes the tail converge one log-power faster, but it is
    still material: the region beyond the direct cutoff is accumulated one
    digit group at a time before the final remainder bound.
    """
    _check_alpha(alpha)
    if cutoff < 2:
        raise ValueError(f"series cutoff must be >= 2, got {cutoff}")
    total = Interval.point(_direct_sums(alpha, cutoff)[4])

    # Partial digit group containing cutoff+1, then ~2e4 whole groups.
    j0 = (cutoff + 1).bit_length()
    first = _group_sum(alpha, cutoff + 1, (1 << j0) - 1) if cutoff + 1 <= (1 << j0) - 1 else Interval.point(0.0)
    total = total + first * Interval.point(1.0 / (3.0 * j0))
    j_top = j0 + 20000
    js = np.arange(j0 + 1, j_top + 1, dtype=np.float64)
    ints = _group_integrals(alpha, js)
    lows = ints / (3.0 * js)
    highs = (ints + np.exp2(-(js - 1.0)) / (js - 1.0) ** alpha) / (3.0 * js)
    total = total + Interval(float(np.sum(lows)), float(np.sum(highs)))
    # Remainder beyond the last group.
    rem_hi = tail_sum_bracket(alpha, 1 << j_top).hi / (3.0 * (j_top + 1))
    return total + Interval(0.0, rem_hi)


def _group_sum(alpha_pow: float, a: int, b: int) -> Interval:
    """Enclosure of sum_{m=a}^{b} 1/(m * log2(m)**alpha_pow) for 2 <= a <= b."""
    la, lb, lb1 = math.log2(a), math.log2(b), math.log2(b + 1)
    lower = _integral_pow(alpha_pow, la, lb1)
    # f(a) from la alone: the int a may be too large for a float.
    upper = _integral_pow(alpha_pow, la, lb) + math.exp2(-la) / la**alpha_pow
    return Interval(min(lower, upper), max(lower, upper))


def _group_brackets(
    alpha_pow: float, la: np.ndarray, lb: np.ndarray, lb1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_group_sum` of every group at once, from the base-2 logs of its
    ends a, b and b + 1: the lower and upper ends of each enclosure.  Its
    last bits can differ from `_group_sum`'s, which
    `branch_normalization_sum` keeps: the sampler's branch law and the hmc
    tables are pinned to those bits."""
    if abs(alpha_pow - 1.0) < 1e-12:
        lower = LN2 * (np.log(lb1) - np.log(la))
        upper = LN2 * (np.log(lb) - np.log(la))
    else:
        beta = 1.0 - alpha_pow
        lower = LN2 / beta * (lb1**beta - la**beta)
        upper = LN2 / beta * (lb**beta - la**beta)
    upper += np.exp2(-la) / la**alpha_pow
    return np.minimum(lower, upper), np.maximum(lower, upper)


def _group_integrals(alpha: float, js: np.ndarray) -> np.ndarray:
    """Vectorised integral of w over whole digit groups [2**(j-1), 2**j)."""
    return LN2 / (alpha - 1.0) * ((js - 1.0) ** (1.0 - alpha) - js ** (1.0 - alpha))


def _integral_pow(beta: float, p_lo: float, p_hi: float | None) -> float:
    """ln2 * integral_{p_lo}^{p_hi} p**(-beta) dp (p_hi=None means infinity)."""
    if p_hi is None:
        if beta <= 1.0:
            raise ValueError("tail integral diverges for exponent <= 1")
        return LN2 / (beta - 1.0) * p_lo ** (1.0 - beta)
    if p_hi < p_lo:
        raise ValueError("integral with reversed endpoints")
    if abs(beta - 1.0) < 1e-12:
        return LN2 * (math.log(p_hi) - math.log(p_lo))
    return LN2 / (1.0 - beta) * (p_hi ** (1.0 - beta) - p_lo ** (1.0 - beta))


def _check_alpha(alpha: float) -> None:
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"tail exponent must lie in (1, 2], got {alpha}")
