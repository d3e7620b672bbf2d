"""Tests for sphere quadrature, boundary fluxes, tail extrapolation, and the
mass functionals."""

import math

import numpy as np
import pytest

from confmass import exprdsl
from confmass.chart import End, EndSystem, make_chart
from confmass.mass import (
    DEFAULT_ORDERS,
    DIVERGENCE_WARNING,
    MassReport,
    adm_flux,
    default_radii,
    extrapolate,
    gradient_flux,
    lee_flux,
    riemannian_mass,
    sphere_area,
    sphere_rule,
    two_path_mass_delta,
    weyl_flux,
    weyl_mass,
    witten_flux,
)
from confmass.spinor import make_spinor_spec

ISO = "(1 + 1/(2*r))^4"


def flat_chart(n=3, **kw):
    args = dict(n=n, tau=(n - 2) / 2 + 0.25, r_min=1.0, metric={})
    args.update(kw)
    return make_chart(**args)


def iso_chart():
    return make_chart(n=3, tau=0.99, r_min=1.0, metric={"11": ISO, "22": ISO, "33": ISO})


def lee_chart(b=0.25):
    return make_chart(
        n=3,
        tau=0.99,
        r_min=1.0,
        metric={"11": ISO, "22": ISO, "33": ISO},
        lee=[f"-{b}*x{i}/r^3" for i in (1, 2, 3)],
    )


class TestSphereRule:
    @pytest.mark.parametrize(
        "n,area",
        [
            (3, 4 * math.pi),
            (4, 2 * math.pi**2),
            (5, 8 * math.pi**2 / 3),
            (6, math.pi**3),
        ],
    )
    def test_unit_sphere_areas(self, n, area):
        rule = sphere_rule(n, 1.0)
        assert float(np.sum(rule.weights)) == pytest.approx(area, rel=1e-12)
        assert sphere_area(n, 1.0) == pytest.approx(area, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_scaling_with_radius(self, n):
        r = 7.5
        rule = sphere_rule(n, r)
        assert float(np.sum(rule.weights)) == pytest.approx(
            sphere_area(n, r), rel=1e-12
        )
        np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=0), r, rtol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_polynomial_moments(self, n):
        # odd moments vanish, quadratic moments are area * r^2 / n
        r = 2.0
        rule = sphere_rule(n, r)
        area = sphere_area(n, r)
        for i in range(n):
            assert float(np.sum(rule.weights * rule.nodes[i])) == pytest.approx(
                0.0, abs=1e-12 * area
            )
            got = float(np.sum(rule.weights * rule.nodes[i] ** 2))
            assert got == pytest.approx(area * r**2 / n, rel=1e-12)
        got = float(np.sum(rule.weights * rule.nodes[0] * rule.nodes[-1]))
        assert got == pytest.approx(0.0, abs=1e-12 * area)

    def test_refinement_changes_count(self):
        a = sphere_rule(3, 1.0)
        b = sphere_rule(3, 1.0, orders=2 * DEFAULT_ORDERS[3])
        assert b.count > a.count

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            sphere_rule(3, 1.0, orders=1)


class TestFluxes:
    def test_flat_fluxes_vanish_identically(self):
        c = flat_chart()
        for r in (5.0, 50.0):
            assert adm_flux(c, r) == 0.0
            assert lee_flux(c, r) == 0.0
            assert weyl_flux(c, r) == 0.0

    @pytest.mark.parametrize("r", [10.0, 40.0, 160.0])
    def test_isotropic_adm_closed_form(self, r):
        # the coordinate-sphere flux is 16 pi (1 + 1/(2r))^3 at every radius
        got = adm_flux(iso_chart(), r, measure="euclidean")
        want = 16 * math.pi * (1 + 1 / (2 * r)) ** 3
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [5.0, 20.0, 100.0])
    def test_radial_lee_flux_closed_form(self, r):
        # theta = -b x / r^3 integrates to -4 pi b on every sphere
        b = 0.25
        got = lee_flux(lee_chart(b), r, measure="euclidean")
        assert got == pytest.approx(-4 * math.pi * b, rel=1e-12)

    def test_rotational_lee_flux_vanishes(self):
        c = make_chart(
            n=3,
            tau=0.99,
            r_min=1.0,
            metric={"11": ISO, "22": ISO, "33": ISO},
            lee=["-0.3*x2/r^3", "0.3*x1/r^3", "0"],
        )
        assert lee_flux(c, 25.0) == pytest.approx(0.0, abs=1e-14)

    def test_weyl_flux_combines_both_terms(self):
        c = lee_chart(0.25)
        r = 30.0
        want = adm_flux(c, r) - 2 * 2 * lee_flux(c, r)  # 2 (n - 1) = 4
        assert weyl_flux(c, r) == pytest.approx(want, rel=1e-14)

    def test_measure_changes_the_answer(self):
        c = iso_chart()
        e = adm_flux(c, 20.0, measure="euclidean")
        g = adm_flux(c, 20.0, measure="g")
        assert g > e  # the metric sphere area element is larger here

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            adm_flux(iso_chart(), 20.0, measure="spherical")

    def test_radius_below_validity_rejected(self):
        c = flat_chart(r_min=4.0)
        with pytest.raises(ValueError):
            adm_flux(c, 7.9)

    def test_gradient_flux_closed_form(self):
        # f = 1 + 1/r on the flat chart: df(nu) = -1/r^2, flux = -4 pi
        c = flat_chart()
        got = gradient_flux(c, exprdsl.parse("1 + 1/r"), 12.0)
        assert got == pytest.approx(-4 * math.pi, rel=1e-12)

    def test_witten_flux_flat_exact_lee(self):
        # flat metric, theta = -x/r^3 (so m_riem = 0, lee limit = -4 pi):
        # the spinor flux for a unit constant spinor is exactly
        # (1/4) (0 - 2 (n-1) (-4 pi)) = 4 pi at every radius
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={},
            lee=["-x1/r^3", "-x2/r^3", "-x3/r^3"],
        )
        spec = make_spinor_spec([("1", "0"), ("0", "0")], weight=-0.5)
        for r in (6.0, 24.0, 96.0):
            w = witten_flux(c, spec, r)
            assert w.real == pytest.approx(4 * math.pi, rel=1e-12)
            assert abs(w.imag) <= 1e-12


    def test_witten_flux_of_several_specs_matches_single_calls_bitwise(self):
        c = lee_chart()
        specs = [
            make_spinor_spec([("1", "0"), ("0", "0")], weight=-0.5),
            make_spinor_spec([("0.6", "0"), ("0", "0.8")], weight=-0.5),
            make_spinor_spec([("1 + x1/r", "x2/r^2"), ("0.5", "-x3/r")], weight=-0.5),
        ]
        # 16 Gauss nodes give 512 sphere nodes: two chunks
        together = witten_flux(c, specs, 20.0, orders=16)
        alone = [witten_flux(c, s, 20.0, orders=16) for s in specs]
        assert isinstance(together, list) and isinstance(alone[0], complex)
        assert [(w.real, w.imag) for w in together] == [(w.real, w.imag) for w in alone]


class TestExtrapolate:
    def test_exact_power_law_recovered(self):
        radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        vals = 5.0 + 3.0 * radii**-1.5
        out = extrapolate(list(zip(radii, vals)))
        assert out.limit == pytest.approx(5.0, abs=1e-6)
        assert out.p == pytest.approx(1.5, abs=1e-3)
        assert not out.fallback
        assert abs(out.limit - 5.0) <= out.error + 1e-12

    def test_constant_series_short_circuits(self):
        radii = [10.0, 20.0, 40.0, 80.0]
        out = extrapolate([(r, 2.5) for r in radii])
        assert out.limit == 2.5
        assert out.error == 0.0

    def test_error_covers_contaminated_series(self):
        # a two-term tail: the estimate must bracket the true limit
        radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        vals = 1.0 + 4.0 / radii + 25.0 / radii**2
        out = extrapolate(list(zip(radii, vals)))
        assert abs(out.limit - 1.0) <= out.error

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            extrapolate([(10.0, 1.0), (20.0, 1.1), (40.0, 1.2)])

    def test_needs_spread_radii(self):
        with pytest.raises(ValueError):
            extrapolate([(10.0, 1.0), (11.0, 1.1), (12.0, 1.2), (13.0, 1.25)])

    def test_fallback_exponent_used_when_fit_degenerates(self):
        # alternating noise around a constant defeats the power fit; the
        # declared decay rate takes over and the result is flagged
        radii = [10.0, 20.0, 40.0, 80.0]
        vals = [1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-3]
        out = extrapolate(list(zip(radii, vals)), fallback_p=0.75)
        assert out.fallback or out.error > 0.0


class TestMassFunctionals:
    def test_flat_mass_is_exactly_zero(self):
        rep = riemannian_mass(flat_chart())
        assert rep.limit == 0.0
        assert rep.error == 0.0
        assert not rep.warnings

    def test_isotropic_mass(self):
        rep = riemannian_mass(iso_chart())
        assert rep.limit == pytest.approx(16 * math.pi, rel=1e-3)
        assert abs(rep.limit - 16 * math.pi) <= rep.error  # honest bar
        assert rep.kind == "riemannian"

    def test_converging_series_carries_no_warning(self):
        assert riemannian_mass(iso_chart()).warnings == ()
        assert weyl_mass(lee_chart()).warnings == ()

    def test_growing_flux_series_is_flagged(self):
        # g = (1 + r^-0.75) delta: the ADM flux grows like r^0.25
        g = "1 + pow(r, -0.75)"
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": g, "22": g, "33": g})
        for rep in (riemannian_mass(c), weyl_mass(c)):
            assert np.all(np.diff(rep.flux) > 0)
            assert DIVERGENCE_WARNING in rep.warnings

    def test_isotropic_mass_normalized(self):
        rep = riemannian_mass(iso_chart(), normalize="adm")
        assert rep.limit == pytest.approx(1.0, rel=1e-3)
        assert rep.normalize == "adm"

    def test_default_radii_scale_with_r_min(self):
        c = flat_chart(r_min=2.0)
        radii = default_radii(c)
        assert len(radii) >= 4
        assert radii[0] == pytest.approx(40.0)
        assert radii[1] / radii[0] == pytest.approx(2.0)

    def test_weyl_mass_flat_chart(self):
        rep = weyl_mass(flat_chart())
        assert rep.limit == 0.0
        assert rep.kind == "weyl"

    def test_weyl_mass_adds_lee_contribution(self):
        # m(D) = m_riem - 2 (n-1) lim lee flux = 16 pi + 4 * 4 pi b
        b = 0.25
        rep = weyl_mass(lee_chart(b))
        want = 16 * math.pi * (1 + b)
        assert rep.limit == pytest.approx(want, rel=1e-3)
        assert rep.components["riemannian"] == pytest.approx(16 * math.pi, rel=1e-3)
        # the stored lee component is its mass contribution -2 (n-1) * limit
        assert rep.components["lee"] == pytest.approx(16 * math.pi * b, rel=1e-6)

    def test_weyl_mass_accepts_end_systems(self):
        c = iso_chart()
        sys = EndSystem(ends=(End(chart=c, a=1.0), End(chart=c, a=4.0)))
        rep = weyl_mass(sys)
        # total = sum_l a_l^{(n-2)/2} m_l = (1 + 2) * 16 pi
        assert rep.limit == pytest.approx(48 * math.pi, rel=1e-3)
        ends = rep.components["ends"]
        assert len(ends) == 2
        assert ends[1]["a"] == 4.0
        assert ends[0]["total"] == pytest.approx(16 * math.pi, rel=1e-3)

    def test_csv_rows(self):
        rep = riemannian_mass(iso_chart())
        rows = rep.csv_rows()
        assert len(rows) == len(rep.radii)
        r0, flux0, cum0 = rows[0]
        assert r0 == rep.radii[0]
        # once four samples are in, the running column extrapolates; it is
        # a plain refit, so it agrees with the report limit only loosely
        assert rows[-1][2] == pytest.approx(rep.limit, rel=1e-4)


class TestTwoPathMassAgreement:
    def test_conformal_change_moves_mass_by_gradient_flux(self):
        # path A: mass of the rescaled chart; path B: base mass plus the
        # first-order correction through the gradient flux limit
        chart = iso_chart()
        f = exprdsl.parse("1 + 1/sqrt(r^2 + 1)")
        out = two_path_mass_delta(chart, f)
        assert out["rel_delta"] <= 5e-3
        fe = out["flux_equality"]
        assert abs(fe["diff"]) <= fe["budget"]

    def test_flat_chart_rescaling(self):
        chart = flat_chart()
        f = exprdsl.parse("1 + 0.3/sqrt(r^2 + 1)")
        out = two_path_mass_delta(chart, f)
        assert out["rel_delta"] <= 5e-3
