import json
import math

import numpy as np
import pytest

from coulomb_chain import (
    BoundReport,
    CoefficientProfile,
    CoefficientTable,
    ConfigError,
    ExponentFit,
    ForceSpec,
    RadiusEstimate,
    RadiusTrend,
    RingConfig,
    bound_check,
    c_f_bound,
    coefficient_profiles,
    compute_coefficients,
    estimate_radius,
    exponent_fit,
    majorant,
    majorant_lemma_check,
    radius_trend,
)
from coulomb_chain.analysis import log_c3_bound
from coulomb_chain.series import ordered_compositions


def geometric_table(rho, N=6, j_max=16):
    data = np.zeros((N, j_max + 1))
    for j in range(1, j_max + 1):
        data[:, j] = rho ** (-j)
    return CoefficientTable(L=1.0, scale=1.0, data=data)


# ---------------------------------------------------------------------------
# radius


@pytest.mark.parametrize("rho", [0.1, 2.0, 10.0])
def test_radius_exact_on_geometric_tables(rho):
    est = estimate_radius(geometric_table(rho))
    assert not est.degenerate
    assert est.r_hat == pytest.approx(rho, rel=1e-2)
    assert est.fit_residual == pytest.approx(0.0, abs=1e-9)


def test_radius_degenerate_for_terminating_series():
    table = compute_coefficients(
        RingConfig(N=6, L=1.0, force=ForceSpec(L=1.0, a0=2.0), j_max=12, scale=1.0)
    )
    est = estimate_radius(table)
    assert est.degenerate
    assert est.r_hat == math.inf


def test_radius_skips_zero_orders_without_nan(sine_force):
    # Even orders vanish identically; the fit must use the odd tail only.
    table = compute_coefficients(RingConfig(N=8, L=1.0, force=sine_force, j_max=16, scale=1.0))
    est = estimate_radius(table)
    assert not est.degenerate
    assert math.isfinite(est.r_hat) and est.r_hat > 0
    assert math.isfinite(est.fit_residual)


def test_radius_window_is_upper_half():
    est = estimate_radius(geometric_table(2.0, j_max=16))
    assert est.window == (8, 16)


@pytest.mark.parametrize("j_max, tail_fraction, window", [(8, 0.5, (3, 8)), (9, 0.5, (5, 9)),
                                                          (12, 0.2, (7, 12))])
def test_radius_window_holds_three_odd_orders(sine_force, j_max, tail_fraction, window):
    # From rest every even order vanishes, so the top fraction of J_max = 8
    # (orders 4..8) or of 12 at 0.2 (10..12) holds two odd orders only; the
    # window widens to three, or a series that does not end reads as one that
    # does (R_hat infinite and degenerate).
    for N in (16, 32):
        ring = RingConfig(N=N, L=1.0, force=sine_force, j_max=j_max)
        est = estimate_radius(compute_coefficients(ring), tail_fraction=tail_fraction)
        assert est.window == window
        assert not est.degenerate
        assert math.isfinite(est.r_hat) and est.r_hat > 0
    constant = RingConfig(N=6, L=1.0, force=ForceSpec(L=1.0, a0=2.0), j_max=j_max, scale=1.0)
    est = estimate_radius(compute_coefficients(constant), tail_fraction=tail_fraction)
    assert est.degenerate and est.r_hat == math.inf


def test_radius_sparse_zeros_no_nan():
    data = np.zeros((4, 17))
    for j in range(1, 17):
        data[:, j] = 0.0 if j % 3 == 0 else 2.0 ** (-j)
    table = CoefficientTable(L=1.0, scale=1.0, data=data)
    est = estimate_radius(table)
    assert math.isfinite(est.r_hat)
    assert est.r_hat == pytest.approx(2.0, rel=1e-6)


def test_radius_requires_enough_orders(sine_force):
    table = compute_coefficients(RingConfig(N=4, L=1.0, force=sine_force, j_max=6, scale=1.0))
    with pytest.raises(ConfigError):
        estimate_radius(table)


@pytest.mark.parametrize("tail_fraction", [0.0, 1.5, math.nan])
def test_radius_rejects_bad_tail_fraction(tail_fraction):
    with pytest.raises(ConfigError) as exc:
        estimate_radius(geometric_table(2.0), tail_fraction=tail_fraction)
    assert exc.value.field == "tail_fraction"


def test_radius_theorem_consistency(sine_force):
    # Soft consistency of the estimate with the growth bound: R_hat must not
    # undercut chi**-1 N**(-5/6) with chi fitted from the same tables.
    grid = (16, 32, 64, 128, 256)
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=32)) for n in grid
    ]
    report = bound_check(tables, c_f_bound(sine_force))
    est = estimate_radius(tables[2])  # N=64
    assert not est.degenerate
    assert est.r_hat >= (1.0 / report.chi_min_max) * 64.0 ** (-5.0 / 6.0)


# R_hat * sqrt(N) for the sine force at J = 97, N = 4**4 .. 4**10, from the
# proxy-grid recursion written out in 60-80-digit mpmath (exact grid points
# and difference symbols, DFTs as explicit sums): the "mp proxy loop" row of
# ROADMAP item 13.  Unfiltered, rounding noise grows through the band and
# the estimate reads 0.69, 0.62, 0.60, 0.61, 0.64, 0.66, 0.69.  Each value
# is regenerated, to the five decimals shown, by
# ``estimate_radius(profile).r_hat * ring.N**0.5`` with
# ``profile = oracles.lattice_profile(ring, *oracles.mp_proxy_loop(ring, digits=80))``
# on ``ring = RingConfig(N=4**k, L=1.0, force=sine_force, j_max=97)``: P = 128,
# about 20 s per ring.
MP_PROXY_RADIUS = [0.80602, 0.94302, 1.08357, 1.22654, 1.37123, 1.51711, 1.66506]


def test_radius_of_deep_proxy_rings_matches_the_mp_recursion(sine_force):
    rings = [RingConfig(N=4**k, L=1.0, force=sine_force, j_max=97) for k in range(4, 11)]
    scaled = [estimate_radius(p).r_hat * p.N**0.5 for p in coefficient_profiles(rings)]
    assert scaled == pytest.approx(MP_PROXY_RADIUS, rel=2e-4)


def test_radius_monotone_trend(sine_force):
    # At j_max=9 the fit window holds only low orders, which grow exactly as
    # N**((j-1)/2): alpha is their trend, not the radius exponent.
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=9))
        for n in (16, 32, 64, 128, 256)
    ]
    estimates = [estimate_radius(t) for t in tables]
    trend = radius_trend(estimates)
    assert trend.monotone_ok
    assert 0.0 < trend.alpha < 1.0


# ---------------------------------------------------------------------------
# exponents


def test_exponent_fit_order_one_is_flat(sine_force):
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=9, scale=1.0))
        for n in (16, 32, 64, 128)
    ]
    fit = exponent_fit(tables, 1)
    assert abs(fit.slope) <= 1e-10
    assert fit.cap_half == 0.0


def test_exponent_fit_order_three_is_linear(sine_force):
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=9))
        for n in (16, 32, 64, 128, 256)
    ]
    fit = exponent_fit(tables, 3)
    assert fit.slope == pytest.approx(1.0, abs=0.05)
    assert fit.cap_five_sixths == pytest.approx(1.0)


def test_exponent_fit_validation(sine_force):
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=9))
        for n in (16, 32, 64)
    ]
    with pytest.raises(ConfigError):
        exponent_fit(tables, 3)  # too few tables
    four = tables + [compute_coefficients(RingConfig(N=128, L=1.0, force=sine_force, j_max=9))]
    with pytest.raises(ConfigError):
        exponent_fit(four, 11)  # beyond truncation
    with pytest.raises(ConfigError):
        exponent_fit(four, 2)  # identically-zero column
    with pytest.raises(ConfigError, match="strictly increasing"):
        exponent_fit(tables + tables[-1:], 3)  # N = 64 twice
    other_L = CoefficientTable(L=2.0, scale=four[-1].scale, data=four[-1].data)
    with pytest.raises(ConfigError, match="circumference"):
        exponent_fit(tables + [other_L], 3)


# ---------------------------------------------------------------------------
# bounds


def test_bound_check_hard_and_trend(sine_force):
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=sine_force, j_max=9))
        for n in (16, 32, 64, 128, 256)
    ]
    report = bound_check(tables, c_f_bound(sine_force))
    assert report.hard_c3_ok is True
    assert report.passed
    assert report.chi_min_max > 0
    # even orders vanish identically from rest, so only odd orders are reported
    assert report.js == (3, 5, 7, 9)
    assert set(report.chi_min) == set(report.monotone_ok) == set(report.js)
    # the alternative normalization is reported alongside
    assert set(report.chi_sqrt) == set(report.chi_min)


def test_bound_check_without_tables_is_a_config_error():
    with pytest.raises(ConfigError, match="^bound check needs at least one table$"):
        bound_check([], 1.0)


def test_bound_check_constant_force_chi_zero():
    tables = [
        compute_coefficients(RingConfig(N=n, L=1.0, force=ForceSpec(L=1.0, a0=1.0), j_max=9))
        for n in (8, 16)
    ]
    report = bound_check(tables, 1.0)
    for j in report.js:
        assert all(v == 0.0 for v in report.chi_min[j])


def test_bound_check_column_that_vanishes_on_one_ring_only():
    # Order 5 vanishes at N = 16 alone: exp(-inf) reads 0.0 there, and the
    # rise from that 0.0 to the next ring breaks monotonicity, though the
    # nonzero values fall.
    profiles = [CoefficientProfile(N=n, L=1.0, scale=1.0, max_abs=np.array(m)) for n, m in (
        (8, [0.0, 1.0, 0.0, 0.5, 0.0, 0.25]),
        (16, [0.0, 1.0, 0.0, 0.75, 0.0, 0.0]),
        (32, [0.0, 1.0, 0.0, 1.0, 0.0, 4.0]),
    )]
    report = bound_check(profiles, 1.0)
    assert report.chi_min[5][1] == 0.0 and report.chi_sqrt[5][1] == 0.0
    assert report.chi_min[5][2] < report.chi_min[5][0]
    assert report.monotone_ok == {3: True, 5: False}
    assert report.hard_c3_ok is True and report.passed is False
    assert dumps(report) == (
        '{"C_F": 1.0, "N_grid": [8, 16, 32], "chi_min": '
        '{"3": [0.3968502629920499, 0.36056239257685213, 0.3149802624737183], '
        '"5": [0.25, 0.0, 0.20780947403569688]}, "chi_min_max": 0.3968502629920499, '
        '"chi_sqrt": {"3": [0.2806155120773433, 0.22714007410401751, 0.1767766952966369], '
        '"5": [0.2679433656340733, 0.0, 0.23325824788420185]}, "hard_c3_ok": true, '
        '"monotone_ok": {"3": true, "5": false}, "orders": [3, 5], "passed": false}'
    )


def test_hard_bound_formulas():
    assert math.exp(log_c3_bound(2.0, 16, 1.0)) == pytest.approx((8.0 / 3.0) * 16.5)
    # a growth constant whose powers overflow a double still has a finite log
    assert log_c3_bound(1e120, 16, 1.0) == pytest.approx(3 * math.log(1e120) + math.log(5.5))


# ---------------------------------------------------------------------------
# report JSON


def dumps(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True, allow_nan=False)


def test_bound_report_json_keeps_string_keys_in_text_order():
    # Int keys would sort 3 before 11 and reorder sweep.json and verify.json.
    js = tuple(range(3, 14, 2))
    report = BoundReport(c_f=6.283185307179586, Ns=(16, 32), js=js,
                         chi_min={j: (0.5 / j, 0.25 / j) for j in js},
                         chi_sqrt={j: (1.0 / j, 2.0 / j) for j in js},
                         chi_min_max=0.16666666666666666,
                         monotone_ok={j: j != 11 for j in js}, hard_c3_ok=True, passed=False)
    assert dumps(report) == (
        '{"C_F": 6.283185307179586, "N_grid": [16, 32], "chi_min": '
        '{"11": [0.045454545454545456, 0.022727272727272728], '
        '"13": [0.038461538461538464, 0.019230769230769232], '
        '"3": [0.16666666666666666, 0.08333333333333333], "5": [0.1, 0.05], '
        '"7": [0.07142857142857142, 0.03571428571428571], '
        '"9": [0.05555555555555555, 0.027777777777777776]}, '
        '"chi_min_max": 0.16666666666666666, "chi_sqrt": '
        '{"11": [0.09090909090909091, 0.18181818181818182], '
        '"13": [0.07692307692307693, 0.15384615384615385], '
        '"3": [0.3333333333333333, 0.6666666666666666], "5": [0.2, 0.4], '
        '"7": [0.14285714285714285, 0.2857142857142857], '
        '"9": [0.1111111111111111, 0.2222222222222222]}, "hard_c3_ok": true, '
        '"monotone_ok": {"11": false, "13": true, "3": true, "5": true, "7": true, "9": true}, '
        '"orders": [3, 5, 7, 9, 11, 13], "passed": false}'
    )


def test_radius_reports_write_non_finite_values_as_null():
    estimate = RadiusEstimate(N=64, j_max=9, r_hat=math.inf, window=(5, 9),
                              fit_residual=math.nan, degenerate=True)
    assert dumps(estimate) == (
        '{"J_max": 9, "N": 64, "R_hat": null, "degenerate": true, "fit_residual": null, '
        '"method": "root-test", "window": [5, 9]}'
    )
    trend = RadiusTrend(Ns=(16, 32, 64), r_hats=(0.5, math.inf, math.nan), alpha=math.nan,
                        monotone_ok=True)
    assert dumps(trend) == (
        '{"N_grid": [16, 32, 64], "R_hat": [0.5, null, null], "alpha": null, "monotone_ok": true}'
    )
    fit = ExponentFit(j=3, Ns=(16, 32, 64, 128), slope=math.nan, half_width=math.inf,
                      cap_half=1.0, cap_five_sixths=1.0)
    assert fit.to_json() == {"j": 3, "N_grid": [16, 32, 64, 128], "slope": None,
                             "half_width": None, "cap_half": 1.0, "cap_five_sixths": 1.0}
    dumps(fit)


# ---------------------------------------------------------------------------
# majorant


def test_majorant_small_orders():
    g = majorant(2.0, 3)
    np.testing.assert_allclose(g, [1.0, 1.0, 1.5, 2.5], rtol=1e-15)


def test_majorant_matches_binomial_form():
    a = 2.0
    g = majorant(a, 60)
    exact = np.array(
        [(a / 2) ** j * math.comb(2 * j, j) / 2**j for j in range(61)], dtype=float
    )
    np.testing.assert_allclose(g, exact, rtol=1e-12)


def test_majorant_partial_sum_matches_closed_form():
    a = 2.0
    g = majorant(a, 60)
    t = 0.1 / a
    partial = float(sum(gj * t**j for gj, j in zip(g, range(61))))
    assert partial == pytest.approx((1.0 - a * t) ** -0.5, abs=1e-12)


def test_majorant_asymptotics():
    # Central-binomial asymptotics give g_j ~ a**j / sqrt(pi j).
    a = 2.0
    g100 = majorant(a, 100)[100]
    assert g100 * math.sqrt(math.pi * 100) / a**100 == pytest.approx(1.0, abs=0.02)


def test_majorant_positive_and_log_convex():
    g = majorant(1.3, 50)
    assert np.all(g > 0)
    lg = np.log(g)
    assert np.all(np.diff(lg, 2) >= -1e-12)


def test_majorant_validation():
    with pytest.raises(ConfigError):
        majorant(-1.0, 10)
    with pytest.raises(ConfigError):
        majorant(2.0, 0)
    with pytest.raises(OverflowError):
        majorant(1e300, 20)


def enumerated_lemma_rhs(a, J):
    """Right-hand sides for j = 5..J by literal enumeration of ordered compositions."""
    h = [gp / (p + 1) for p, gp in enumerate(majorant(a, J).tolist())]
    out = []
    for j in range(5, J + 1):
        rhs = 0.0
        for k in range(1, (j - 1) // 2 + 1):
            pref = (0.5 * a) ** (k + 1) * (k + 1) * (k + 2) / 2.0
            inner = 0.0
            for tup in ordered_compositions(j - 1 - k, k):
                inner += math.prod(h[p] for p in tup)
            rhs += pref * inner
        out.append(rhs / j)
    return out


def test_majorant_lemma_holds():
    report = majorant_lemma_check(2.0, 12)
    assert report.all_hold
    assert report.js[0] == 5
    assert all(m >= 0 for m in report.margins)
    # At a = 2 every g_p/(p+1) is a Catalan number, so both sums are exact.
    reference = enumerated_lemma_rhs(2.0, 30)
    for J in (12, 24, 30):
        assert list(majorant_lemma_check(2.0, J).rhs) == reference[: J - 4]


def test_majorant_lemma_small_parameter():
    report = majorant_lemma_check(0.1, 20)
    assert report.all_hold
    np.testing.assert_allclose(report.rhs, enumerated_lemma_rhs(0.1, 20), rtol=1e-14, atol=0.0)


def test_majorant_lemma_caps():
    assert majorant_lemma_check(2.0, 200).all_hold
    with pytest.raises(ConfigError):
        majorant_lemma_check(2.0, 4)
