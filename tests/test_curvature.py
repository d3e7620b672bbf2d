"""Tests for Christoffel symbols, curvature tensors, Laplacians, and the
scalar curvature of a Weyl connection."""

import numpy as np
import pytest

from confmass import exprdsl, suites
from confmass.chart import lee_jets, make_chart, metric_jets
from confmass.curvature import (
    christoffels,
    codiff_oneform,
    curvature,
    laplacian,
    trace_covd_oneform,
)
from confmass.jets import Jet, evaluate_jet
from confmass.weyl import (
    theta_norm2,
    weyl_data,
    weyl_scalar,
    weyl_scalar_via_curvature,
)

RNG = np.random.Generator(np.random.PCG64(7))


def sample_points(n, count, lo=3.0, hi=30.0):
    v = RNG.normal(size=(n, count))
    v /= np.linalg.norm(v, axis=0)
    return v * RNG.uniform(lo, hi, size=count)


def divergence_gap(wd):
    """The battery's weyl-scalar-two-path value on one chunk of points."""
    return suites._divergence_gap(suites._gap_maxima(wd))


def flat_chart(n=3):
    return make_chart(n=n, tau=(n - 2) / 2 + 0.25, r_min=1.0, metric={})


def iso_chart():
    iso = "(1 + 1/(2*r))^4"
    return make_chart(
        n=3, tau=0.99, r_min=1.0, metric={"11": iso, "22": iso, "33": iso}
    )


def tensor_max(rows) -> float:
    def walk(x):
        if isinstance(x, (list, tuple)):
            return max(walk(y) for y in x)
        return float(np.max(np.abs(np.atleast_1d(x.value))))

    return walk(rows)


class TestFlatChart:
    def test_everything_vanishes_identically(self):
        md = metric_jets(flat_chart(), sample_points(3, 20), order=2)
        cd = christoffels(md)
        cv = curvature(cd)
        assert tensor_max(cd.christoffel) == 0.0
        assert tensor_max(cv.riemann) == 0.0
        assert tensor_max(cv.ricci) == 0.0
        assert float(np.max(np.abs(np.atleast_1d(cv.scal.value)))) == 0.0

    def test_laplacian_is_euclidean(self):
        # flat metric: laplacian(f) = sum of plain second partials
        md = metric_jets(flat_chart(), sample_points(3, 10), order=2)
        f = evaluate_jet(exprdsl.parse("x1^2 - x2^2 + x3"), md.coords)
        lap = laplacian(md, f)
        np.testing.assert_allclose(np.atleast_1d(lap.value), 0.0, atol=1e-14)
        # the positive convention: laplacian = codiff after d, so on flat
        # space laplacian(f) = -sum of second partials
        g = evaluate_jet(exprdsl.parse("x1^2 + x2^2"), md.coords)
        np.testing.assert_allclose(np.atleast_1d(laplacian(md, g).value), -4.0, rtol=1e-14)


class TestRoundSphere:
    def test_scalar_curvature_of_unit_three_sphere(self):
        # stereographic coordinates: g = 4 delta / (1 + |x|^2)^2 has
        # constant scalar curvature n(n-1) = 6 in our sign convention
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=0.5,
            metric={ij: "4/(1 + r^2)^2" for ij in ("11", "22", "33")},
            validate=False,
        )
        md = metric_jets(c, sample_points(3, 10, lo=0.6, hi=3.0), order=2)
        scal = curvature(christoffels(md)).scal
        np.testing.assert_allclose(np.atleast_1d(scal.value), 6.0, rtol=1e-11)


class TestConformallyFlat:
    def test_scalar_curvature_matches_laplacian_formula(self):
        # for g = u^4 delta in dimension 3: Scal(g) = 8 u^-5 (-sum d_i^2 u)
        # with our positive-sphere convention written via the metric
        # laplacian of the flat chart
        chart = iso_chart()
        X = sample_points(3, 25)
        md = metric_jets(chart, X, order=2)
        scal = curvature(christoffels(md)).scal
        r = np.linalg.norm(X, axis=0)
        u = 1 + 1 / (2 * r)
        # u is harmonic, so Scal vanishes identically for this profile
        assert np.max(np.abs(np.atleast_1d(scal.value))) <= 1e-9
        assert np.all(u > 1)  # sanity on the sample

    def test_nonharmonic_profile_matches_closed_form(self):
        # u = 1 + 1/(2 r^2) in n = 3: sum_i d_i^2 u = r^-4, and
        # Scal(u^4 delta) = -8 u^-5 sum_i d_i^2 u = -8 u^-5 r^-4
        c = make_chart(
            n=3,
            tau=0.99,
            r_min=1.0,
            metric={ij: "(1 + 1/(2*r^2))^4" for ij in ("11", "22", "33")},
            validate=False,
        )
        X = sample_points(3, 15)
        md = metric_jets(c, X, order=2)
        scal = curvature(christoffels(md)).scal
        r = np.linalg.norm(X, axis=0)
        u = 1 + 1 / (2 * r**2)
        want = -8.0 * u ** (-5) * r ** (-4)
        np.testing.assert_allclose(np.atleast_1d(scal.value), want, rtol=1e-10)


class TestOneFormCalculus:
    def test_laplacian_factors_through_codifferential(self):
        # laplacian(f) = codiff(df): exact one-forms close the triangle
        chart = iso_chart()
        md = metric_jets(chart, sample_points(3, 10), order=2)
        f = evaluate_jet(exprdsl.parse("1/r"), md.coords)
        df = f.grad()
        lhs = codiff_oneform(md, df)
        rhs = laplacian(md, f)
        np.testing.assert_allclose(
            np.atleast_1d(lhs.value), np.atleast_1d(rhs.value), rtol=1e-12
        )

    def test_trace_covd_is_minus_codiff(self):
        # g^{ij} nabla_i theta_j and -codiff(theta) evaluate the divergence
        # through different formulas; use a covector with nonzero divergence
        chart = iso_chart()
        md = metric_jets(chart, sample_points(3, 10), order=2)
        theta = Jet(md.space, np.stack([
            evaluate_jet(exprdsl.parse(s), md.coords).c
            for s in ("x1/r^2", "x2/r^2", "x3/r^2")
        ], axis=-1))
        cd = christoffels(md)
        tr = np.atleast_1d(trace_covd_oneform(cd, theta).value)
        co = np.atleast_1d(codiff_oneform(md, theta).value)
        assert np.min(np.abs(tr)) > 1e-4  # the probe really is non-degenerate
        np.testing.assert_allclose(tr, -co, rtol=1e-12)


class TestWeylScalar:
    def lee_chart(self):
        iso = "(1 + 1/(2*r))^4"
        return make_chart(
            n=3,
            tau=0.99,
            r_min=1.0,
            metric={"11": iso, "22": iso, "33": iso},
            lee=["-b*x1/r^3", "-b*x2/r^3", "-b*x3/r^3"],
            params={"b": 0.25},
        )

    def test_reduces_to_riemannian_for_zero_lee_form(self):
        chart = iso_chart()
        md = metric_jets(chart, sample_points(3, 10), order=2)
        theta = lee_jets(chart, md.coords)
        wd = weyl_data(md, theta)
        cv = curvature(christoffels(md))
        np.testing.assert_array_equal(
            np.atleast_1d(wd.scal.value), np.atleast_1d(cv.scal.value)
        )

    def test_two_path_agreement(self):
        # Scal^D computed from the formula with trace(nabla theta) and
        # |theta|^2 must match the direct curvature of the Weyl connection
        chart = self.lee_chart()
        md = metric_jets(chart, sample_points(3, 10), order=2)
        theta = lee_jets(chart, md.coords)
        wd = weyl_data(md, theta)
        assert divergence_gap(wd) <= 1e-11
        via = weyl_scalar_via_curvature(christoffels(md), theta)
        rel = np.max(
            np.abs(np.atleast_1d(wd.scal.value) - np.atleast_1d(via.value))
        ) / max(1.0, np.max(np.abs(np.atleast_1d(via.value))))
        assert rel <= 1e-10

    def test_divergence_gap_catches_inconsistent_metric_data(self):
        # the divergence is evaluated once through Christoffel symbols
        # (built from g) and once through the density formula (built from
        # sqrt det g); corrupting sqrt_det with a position-dependent factor
        # makes the paths disagree, and the gap shows it
        chart = self.lee_chart()
        md = metric_jets(chart, sample_points(3, 6), order=2)
        theta = lee_jets(chart, md.coords)
        assert divergence_gap(weyl_data(md, theta)) <= 1e-11
        bad = md._replace(sqrt_det=md.sqrt_det * (1.0 + 0.001 * md.coords[0]))
        assert divergence_gap(weyl_data(bad, theta)) > 1e-10

    def test_theta_norm2(self):
        chart = self.lee_chart()
        X = sample_points(3, 10)
        md = metric_jets(chart, X, order=2)
        theta = lee_jets(chart, md.coords)
        n2 = theta_norm2(md, theta)
        r = np.linalg.norm(X, axis=0)
        u4 = (1 + 1 / (2 * r)) ** 4
        want = 0.25**2 / (r**4 * u4)  # |theta|_g^2 = g^{ij} t_i t_j
        np.testing.assert_allclose(np.atleast_1d(n2.value), want, rtol=1e-12)


class TestBatchIndependence:
    """One column computed alone equals, bitwise, the same column inside
    batches of 7 and 257, as tests/test_spinor.py checks for the spinor
    layer.  The contractions run on BLAS, whose kernels can branch on
    alignment and on tails, so the 257 start at an odd offset and the 7
    are its tail."""

    def chart(self, n):
        metric = {f"{i}{i}": f"1 + {0.5 + 0.1 * i}/r^2" for i in range(1, n + 1)}
        metric["12"] = "0.3*x1*x2/r^4"
        metric[f"2{n}"] = f"0.1*sin(x2)*x{n}/r^4"
        lee = [f"{(-1) ** i * 0.1 * i}*x{n + 1 - i}/r^{n}" for i in range(1, n + 1)]
        return make_chart(n=n, tau=0.5 * (n - 2) + 0.25, r_min=1.0,
                          metric=metric, lee=lee)

    def evaluate(self, chart, X, order):
        md = metric_jets(chart, X, order=order)
        theta = lee_jets(chart, md.coords)
        cd = christoffels(md)
        out = {"christoffel": cd.christoffel.c,
               "codiff": codiff_oneform(md, theta).c}
        if order >= 2:
            cv = curvature(cd)
            wd = weyl_scalar(cv, theta)
            out.update(riemann=cv.riemann.c, ricci=cv.ricci.c, scal=cv.scal.c,
                       weyl_scal=wd.scal.c, weyl_gamma=wd.gamma.c,
                       trace_nabla_theta=wd.trace_nabla_theta.c,
                       norm2_theta=wd.norm2_theta.c)
        return out

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_single_column_matches_the_batch_bitwise(self, n, order):
        chart = self.chart(n)
        X = sample_points(n, 258)
        batches = {lo: self.evaluate(chart, X[:, lo:], order) for lo in (1, 251)}
        for q in (1, 251, 255, 257):
            one = self.evaluate(chart, X[:, q:q + 1], order)
            for lo, whole in batches.items():
                if q >= lo:
                    for name, arr in whole.items():
                        assert np.array_equal(one[name][:, 0], arr[:, q - lo]), name
