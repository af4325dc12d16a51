"""Growth-law analysis: the certified upper-bound curve and rate fitting.

The upper-bound curve comes from splitting on whether the level at the block
boundary is at most 2**n: the low-level part is bounded by the (finite)
entropy of the hidden state restricted there, the high-level part by the
worst-case block entropy times the tail mass, plus one bit for the split
indicator.  Both parts are evaluated with certified enclosures, so the upper
endpoint is a rigorous upper bound on E(n).

Rate fitting is ordinary least squares of the series against a chosen
regressor; power laws are fitted on log-log axes.  The predicted growth
class per construction:

    kind   alpha in (1,2)        alpha = 2
    hpm1   log2(n)**(2-alpha)    log2 log2 n
    hpm2   n**(2-alpha)          log2 n
    hmc    n**(2-alpha)          log2 n
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .intervals import Enclosure, Interval, entropy_term
from .models import ALPHABETS, DEFAULT_SERIES_CUTOFF, Kind
from .series import (
    LevelSums,
    _check_alpha,
    level_weight_sums,
    normalization_sum,
    tail_sum_bracket,
)

REGRESSORS = ("power", "log", "loglog", "logpow")


def block_mi_upper_bound(
    kind: Kind | str,
    alpha: float,
    n: int,
    series_cutoff: int = DEFAULT_SERIES_CUTOFF,
) -> Enclosure:
    """Certified level-split upper bound on E(n), valued at its midpoint.

    Evaluates P(B) * H(Y0 | B) + n * P(not B) * log2|X| + 1 with
    B = (level <= 2**n), using the construction's actual phase-count
    function inside H(Y0 | B).  The upper endpoint `hi` certifies E(n) from
    above; the enclosure widens only with the series brackets.
    """
    kind = Kind(kind)
    where = f"{kind.value} alpha={alpha} n={n}: "
    _check_alpha(alpha, where)
    if n < 1:
        raise ValueError(f"{where}block length must be >= 1, got {n}")
    c = normalization_sum(alpha, series_cutoff).reciprocal()
    top = 1 << n
    sums = level_weight_sums(alpha, top)
    p_b = (c * sums.s0).clamp(0.0, 1.0)
    p_bc = (c * tail_sum_bracket(alpha, top + 1)).clamp(0.0, 1.0)
    low_part = _restricted_state_entropy(kind, alpha, c, sums) - entropy_term(p_b)
    high_part = float(n) * p_bc * math.log2(len(ALPHABETS[kind]))
    bound = low_part + high_part + 1.0
    return Enclosure(bound.lo, bound.hi, bound.mid)


def _restricted_state_entropy(kind: Kind, alpha: float, c: Interval, sums: LevelSums) -> Interval:
    """Enclosure of sum -pi*log2(pi) over the hidden states of the levels in
    `sums`, with pi = c * w(m) / r(m) and no renormalization.

    Splitting -log2(pi) into -log2(c) + log2(m) + alpha*log2(log2(m)) +
    log2(r(m)) gives c * (S1 + alpha*S2 + S_phase) + (-c*log2(c)) * S0.
    """
    if kind is Kind.HPM1:
        s_phase = sums.s1
    elif kind is Kind.HPM2:
        s_phase = sums.s_digit
    else:
        s_phase = math.log2(3.0) * sums.s0 + sums.s_digit
    return c * (sums.s1 + alpha * sums.s2 + s_phase) + entropy_term(c) * sums.s0


@dataclass(frozen=True)
class RateFitReport:
    """Least-squares fit of a series against one growth regressor."""

    kind: str | None
    alpha: float | None
    regressor: str
    fitted_slope: float
    intercept: float
    r_squared: float
    n_min: int
    n_max: int
    point_count: int
    predicted_class: dict | None = None
    sources: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, **kwargs)


def predicted_rate_class(kind: Kind | str, alpha: float) -> dict:
    """The growth class of E(n) predicted for (kind, alpha)."""
    kind = Kind(kind)
    _check_alpha(alpha, f"{kind.value} alpha={alpha}: ")
    if kind is Kind.HPM1:
        if alpha == 2.0:
            return {"family": "loglog", "exponent": None}
        return {"family": "logpow", "exponent": 2.0 - alpha}
    if alpha == 2.0:
        return {"family": "log", "exponent": None}
    return {"family": "poly", "exponent": 2.0 - alpha}


def default_regressor(kind: Kind | str, alpha: float) -> tuple[str, float | None]:
    """Regressor matching the predicted class (beta for the logpow family)."""
    cls = predicted_rate_class(kind, alpha)
    if cls["family"] == "poly":
        return "power", None
    if cls["family"] == "logpow":
        return "logpow", cls["exponent"]
    return cls["family"], None


def fit_rate(
    points: Sequence[tuple[float, float]],
    regressor: str,
    beta: float | None = None,
    kind: str | None = None,
    alpha: float | None = None,
    sources: Iterable[str] = (),
) -> RateFitReport:
    """OLS fit of value against g(n) for the chosen regressor.

    power:  log2(value) ~ slope * log2(n) + b   (slope = fitted exponent)
    log:    value ~ slope * log2(n) + b
    loglog: value ~ slope * log2(log2(n)) + b   (needs n > 2)
    logpow: value ~ slope * log2(n)**beta + b   (needs beta)
    """
    if regressor not in REGRESSORS:
        raise ValueError(f"unknown regressor {regressor!r}, expected one of {REGRESSORS}")
    if len(points) < 4:
        raise ValueError(f"rate fitting needs >= 4 points, got {len(points)}")
    ns = np.asarray([p[0] for p in points], dtype=np.float64)
    values = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.any(np.diff(ns) <= 0):
        raise ValueError("block lengths must be strictly increasing")
    if ns[0] < 2:
        raise ValueError("regressors are degenerate below n = 2")

    if regressor == "power":
        if np.any(values <= 0):
            raise ValueError("power-law fitting needs positive values")
        xs, ys = np.log2(ns), np.log2(values)
    elif regressor == "log":
        xs, ys = np.log2(ns), values
    elif regressor == "loglog":
        if ns[0] <= 2:
            raise ValueError("loglog regressor is degenerate at n = 2")
        xs, ys = np.log2(np.log2(ns)), values
    else:
        if beta is None:
            raise ValueError("logpow regressor needs the exponent beta")
        xs, ys = np.log2(ns) ** beta, values

    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / max(ss_tot, 1e-300)
    label = f"logpow(beta={beta:g})" if regressor == "logpow" else regressor
    return RateFitReport(
        kind=kind,
        alpha=alpha,
        regressor=label,
        fitted_slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        n_min=int(ns[0]),
        n_max=int(ns[-1]),
        point_count=len(points),
        predicted_class=predicted_rate_class(kind, alpha) if kind and alpha else None,
        sources=tuple(sources),
    )


SERIES_CSV_COLUMNS = ("kind", "alpha", "n", "value", "err_low", "err_high", "source")


def write_series_csv(rows: Iterable[dict], path, extra_columns: Sequence[str] = ()) -> None:
    """One row per computed point; '.' decimal separator, 17 significant
    digits, and a cell that holds a comma (a skipped row's status) quoted."""
    columns = list(SERIES_CSV_COLUMNS) + list(extra_columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(row.get(c)) for c in columns] for row in rows)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)
