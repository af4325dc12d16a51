"""Analysis contracts: the upper-bound curve, rate fitting, and CSV output."""

import math

import numpy as np
import pytest

from excesslab.analysis import (
    block_mi_upper_bound,
    default_regressor,
    fit_rate,
    predicted_rate_class,
    write_series_csv,
)
from excesslab.decoders import decoded_level_entropy
from excesslab.exact import block_mi, enumerate_joint

from conftest import FAST_SERIES_CUTOFF, make_model


# ----- upper-bound curve --------------------------------------------------------


# (block_mi_upper_bound, decoded_level_entropy) as (lo, hi) at alpha 1.5 and
# the fast series cutoff, pinned at n < 1024, where every level of the
# support still fits in a float.
CLOSED_FORM_VALUES = {
    ("hpm1", 64): ((22.013575781498986, 22.018139725835447), (2.852048388117619, 2.85204840321703)),
    ("hpm1", 512): ((58.75415832740087, 58.75982368385985), (3.6789100970678916, 3.678910119284973)),
    ("hpm1", 1023): ((81.88182339437586, 81.88752179236876), (3.9008960739002965, 3.9008960980685554)),
    ("hpm2", 64): ((21.799504508996584, 21.804068428166584), (6.828280266864039, 6.8307377100146445)),
    ("hpm2", 512): ((54.05472755152639, 54.06039285308552), (16.047135212492456, 16.05270717552745)),
    ("hpm2", 1023): ((74.10684860465376, 74.11254692735909), (21.6035867999112, 21.609251750891232)),
    ("hmc", 64): ((25.93759794667077, 25.94216189543228), (2.9397800657798627, 2.9405992137248242)),
    ("hmc", 512): ((63.26199134858754, 63.267656713341644), (6.152324771998619, 6.154182089213767)),
    ("hmc", 1023): ((86.50655160168685, 86.51225000874977), (8.032135119916045, 8.034023431740147)),
}


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
def test_closed_forms_at_paper_scale(kind):
    # Levels of 1024 and more binary digits do not fit in a float.
    for n in (1024, 4096, 8192):
        bound = block_mi_upper_bound(kind, 1.5, n, FAST_SERIES_CUTOFF)
        h_d = decoded_level_entropy(kind, 1.5, n, FAST_SERIES_CUTOFF)
        for value in (bound.lo, bound.hi, h_d.lo, h_d.hi):
            assert math.isfinite(value), (n, value)
        assert 0.0 <= h_d.value <= bound.hi, n
    for n in (64, 512, 1023):
        bound = block_mi_upper_bound(kind, 1.5, n, FAST_SERIES_CUTOFF)
        h_d = decoded_level_entropy(kind, 1.5, n, FAST_SERIES_CUTOFF)
        # A closed form is valued at its midpoint.
        assert (bound.value, h_d.value) == (bound.mid, h_d.mid), n
        got = ((bound.lo, bound.hi), (h_d.lo, h_d.hi))
        for pair, pinned in zip(got, CLOSED_FORM_VALUES[kind, n]):
            assert pair == pytest.approx(pinned, rel=1e-12, abs=0.0), n


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_exact_values_sit_below_the_bound(kind, alpha):
    model = make_model(kind, alpha)
    for n in (2, 4, 6):
        if kind == "hmc":
            table = enumerate_joint(model, n, 32)
        elif kind == "hpm1":
            table = enumerate_joint(model, n, 1 << 12, tail_aggregation=True)
        else:
            table = enumerate_joint(model, n, max(4, (1 << (n // 2)) - 1))
        e = block_mi(table)
        bound = block_mi_upper_bound(kind, alpha, n, FAST_SERIES_CUTOFF)
        assert e.lower <= bound.hi + 1e-9


def test_bound_curve_alpha2_is_logarithmic():
    pts = [
        (n, block_mi_upper_bound("hpm1", 2.0, n, FAST_SERIES_CUTOFF).mid)
        for n in range(4, 65)
    ]
    fit = fit_rate(pts, "log")
    assert fit.r_squared >= 0.99


def test_bound_curve_alpha15_is_square_root():
    pts = [
        (n, block_mi_upper_bound("hpm1", 1.5, n, FAST_SERIES_CUTOFF).mid)
        for n in range(8, 129, 8)
    ]
    fit = fit_rate(pts, "power")
    assert 0.4 <= fit.fitted_slope <= 0.6
    assert fit.r_squared >= 0.99


def test_bound_validation():
    with pytest.raises(ValueError):
        block_mi_upper_bound("hpm1", 1.5, 0, FAST_SERIES_CUTOFF)


# ----- rate fitting --------------------------------------------------------------


def test_fit_synthetic_power_law():
    pts = [(n, 3.0 * n**0.5) for n in (8, 12, 16, 24, 32)]
    fit = fit_rate(pts, "power")
    assert fit.fitted_slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_synthetic_log_law():
    pts = [(n, 7.0 * np.log2(n) + 1.0) for n in (8, 12, 16, 24, 32)]
    fit = fit_rate(pts, "log")
    assert fit.fitted_slope == pytest.approx(7.0, abs=1e-9)
    assert fit.intercept == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_synthetic_loglog_and_logpow():
    pts = [(n, 2.0 * np.log2(np.log2(n)) + 0.5) for n in (8, 16, 32, 64)]
    fit = fit_rate(pts, "loglog")
    assert fit.fitted_slope == pytest.approx(2.0, abs=1e-9)
    pts2 = [(n, 4.0 * np.log2(n) ** 0.5 - 1.0) for n in (8, 16, 32, 64)]
    fit2 = fit_rate(pts2, "logpow", beta=0.5)
    assert fit2.fitted_slope == pytest.approx(4.0, abs=1e-9)


def test_growth_class_discrimination_for_cyclic_marker_kind():
    model = make_model("hpm1", 1.5)
    pts = [
        (n, block_mi(enumerate_joint(model, n, 1 << 12, tail_aggregation=True)).value)
        for n in range(8, 65, 4)
    ]
    log_fit = fit_rate(pts, "logpow", beta=0.5)
    pow_fit = fit_rate(pts, "power")
    assert log_fit.r_squared > pow_fit.r_squared


def test_fit_validation():
    pts3 = [(4, 1.0), (8, 2.0), (16, 3.0)]
    with pytest.raises(ValueError):
        fit_rate(pts3, "log")  # too few points
    bad_order = [(4, 1.0), (4, 2.0), (8, 3.0), (16, 4.0)]
    with pytest.raises(ValueError):
        fit_rate(bad_order, "log")
    at_two = [(2, 1.0), (4, 2.0), (8, 3.0), (16, 4.0)]
    with pytest.raises(ValueError):
        fit_rate(at_two, "loglog")  # degenerate at n = 2
    with pytest.raises(ValueError):
        fit_rate([(4, 0.0), (8, 1.0), (16, 2.0), (32, 3.0)], "power")  # zero value
    with pytest.raises(ValueError):
        fit_rate([(4, 1.0), (8, 2.0), (16, 3.0), (32, 4.0)], "logpow")  # no beta
    with pytest.raises(ValueError):
        fit_rate([(4, 1.0), (8, 2.0), (16, 3.0), (32, 4.0)], "cubic")


def test_predicted_classes():
    assert predicted_rate_class("hpm1", 1.5) == {"family": "logpow", "exponent": 0.5}
    assert predicted_rate_class("hpm1", 2.0) == {"family": "loglog", "exponent": None}
    assert predicted_rate_class("hpm2", 1.2) == {"family": "poly", "exponent": pytest.approx(0.8)}
    assert predicted_rate_class("hmc", 2.0) == {"family": "log", "exponent": None}
    assert default_regressor("hmc", 1.5) == ("power", None)
    assert default_regressor("hpm1", 1.5) == ("logpow", 0.5)
    assert default_regressor("hpm2", 2.0) == ("log", None)


# ----- CSV emission ---------------------------------------------------------------


def test_series_csv_format(tmp_path):
    rows = [
        {
            "kind": "hpm2",
            "alpha": 1.5,
            "n": 8,
            "value": 1.0 / 3.0,
            "err_low": 1e-9,
            "err_high": 2e-9,
            "source": "exact",
        }
    ]
    path = tmp_path / "series.csv"
    write_series_csv(rows, path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "kind,alpha,n,value,err_low,err_high,source"
    cells = lines[1].split(",")
    assert cells[3] == "0.33333333333333331"  # 17 significant digits
    assert "." in cells[1] and "," not in cells[3]


@pytest.mark.parametrize("kind", ("hpm1", "hpm2", "hmc"))
@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_bound_matches_bruteforce_stationary_sum(kind, alpha):
    # Oracle: evaluate the split bound directly from the stationary masses of
    # every state with level <= 2**n, using the bracket midpoint for the tail.
    import math

    from excesslab.series import tail_sum_bracket

    n = 4
    model = make_model(kind, alpha)
    masses = []
    for m in range(2, (1 << n) + 1):
        lm = model.level_mass(m).mid
        r = model.phase_count(m)
        masses.extend([lm / r] * r)
    arr = np.asarray(masses)
    pb = arr.sum()
    h_cond = float(-np.sum(arr / pb * np.log2(arr / pb)))
    tail = tail_sum_bracket(alpha, (1 << n) + 1)
    pbc = model.norm_c.mid * 0.5 * (tail.lo + tail.hi)
    direct = pb * h_cond + n * pbc * math.log2(len(model.alphabet)) + 1.0
    iv = block_mi_upper_bound(kind, alpha, n, FAST_SERIES_CUTOFF)
    assert iv.lo - 1e-6 <= direct <= iv.hi + 1e-6
