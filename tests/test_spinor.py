"""Tests for the weighted spinor calculus: spin frames, covariant
derivatives, the Dirac operator, and the two Lichnerowicz-type residuals."""

import numpy as np
import pytest

from confmass import exprdsl
from confmass.chart import ChartError, lee_jets, make_chart, metric_jets, spinor_program
from confmass.curvature import christoffels
from confmass.jets import Jet
from confmass.spinor import (
    covd_coord,
    dirac,
    dirac_composed,
    dirac_squared_expansion,
    frame_spin_connection,
    h_jet,
    lichnerowicz_I_residual,
    lichnerowicz_II_residual,
    norm_identity_residual,
    spinor_calc,
    spinor_jets,
    spinor_values,
)
from confmass.weyl import weyl_connection

RNG = np.random.Generator(np.random.PCG64(13))


def sample_points(n, count, lo=3.0, hi=30.0):
    v = RNG.normal(size=(n, count))
    v /= np.linalg.norm(v, axis=0)
    return v * RNG.uniform(lo, hi, size=count)


ISO = "(1 + 1/(2*r))^4"


def flat_chart():
    return make_chart(n=3, tau=0.75, r_min=1.0, metric={})


def iso_chart():
    return make_chart(n=3, tau=0.99, r_min=1.0, metric={"11": ISO, "22": ISO, "33": ISO})


def lee_chart():
    return make_chart(
        n=3,
        tau=0.99,
        r_min=1.0,
        metric={"11": ISO, "22": ISO, "33": ISO},
        lee=["-0.25*x1/r^3", "-0.25*x2/r^3", "-0.25*x3/r^3"],
    )


def field(chart, coords, pairs):
    """The spinor field of the (re, im) source ``pairs``, lowered on
    ``chart`` and run over ``coords``: one jet (m, B, N)."""
    psi = spinor_jets(spinor_program(chart, [pairs]), coords)
    return Jet(psi.space, psi.c[:, :, 0])


def calc_for(chart, X, order=2):
    md = metric_jets(chart, X, order=order)
    theta = lee_jets(chart, md.coords)
    has_theta = np.max(np.abs(theta.value)) > 0
    return spinor_calc(md, theta if has_theta else None)


class TestSpinFrame:
    def test_frame_diagonalizes_isotropic_metric(self):
        chart = iso_chart()
        X = sample_points(3, 10)
        md = metric_jets(chart, X, order=2)
        fr = frame_spin_connection(md)
        u2 = (1 + 1 / (2 * np.linalg.norm(X, axis=0))) ** 2
        for a in range(3):
            for i in range(3):
                want = 1 / u2 if a == i else np.zeros_like(u2)
                np.testing.assert_allclose(
                    np.atleast_1d(fr.E.value[:, a, i]), want, rtol=1e-13, atol=1e-15
                )

    def test_frame_is_orthonormal(self):
        # g(E_a, E_b) = delta_ab, checked through the jets of g and E
        chart = iso_chart()
        X = sample_points(3, 6)
        md = metric_jets(chart, X, order=2)
        fr = frame_spin_connection(md)
        def E(a, i):
            return Jet(fr.E.space, fr.E.c[:, :, a, i])

        for a in range(3):
            for b in range(3):
                acc = None
                for i in range(3):
                    for j in range(3):
                        t = Jet(md.space, md.g.c[:, :, i, j]) * E(a, i) * E(b, j)
                        acc = t if acc is None else acc + t
                want = 1.0 if a == b else 0.0
                np.testing.assert_allclose(
                    np.atleast_1d(acc.value), want, rtol=1e-12, atol=1e-13
                )

    def test_spin_coefficients_match_closed_form(self):
        """For g = u^4 delta (n = 3) the frame is E_a = u^-2 d_a and
        omega_i^{ab} = g(nabla_i E_a, E_b) = 2 (u_a d_i^b - u_b d_i^a)/u."""
        chart = iso_chart()
        X = sample_points(3, 8)
        md = metric_jets(chart, X, order=2)
        fr = frame_spin_connection(md)
        r = np.linalg.norm(X, axis=0)
        u = 1 + 1 / (2 * r)
        du = -X / (2 * r**3)  # du/dx_a
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    want = 2 * (du[a] * (i == b) - du[b] * (i == a)) / u
                    np.testing.assert_allclose(
                        np.atleast_1d(fr.omega.value[:, i, a, b]),
                        want,
                        rtol=1e-12,
                        atol=1e-14,
                    )

    def test_flat_frame_has_no_spin_coefficients(self):
        md = metric_jets(flat_chart(), sample_points(3, 5), order=2)
        fr = frame_spin_connection(md)
        worst = max(
            float(np.max(np.abs(np.atleast_1d(fr.omega.value[:, i, a, b]))))
            for i in range(3)
            for a in range(3)
            for b in range(3)
        )
        assert worst == 0.0


class TestCalculator:
    def test_first_order_calculator_has_no_scalar_curvature(self):
        md = metric_jets(lee_chart(), sample_points(3, 4), order=1)
        calc = spinor_calc(md, lee_jets(lee_chart(), md.coords))
        with pytest.raises(ValueError):
            calc.scal

    def test_connection_with_lee_form_is_the_weyl_connection(self):
        chart = lee_chart()
        md = metric_jets(chart, sample_points(3, 5), order=2)
        theta = lee_jets(chart, md.coords)
        calc = spinor_calc(md, theta)
        want = weyl_connection(christoffels(md), theta)
        assert calc.connection.space is want.space
        assert np.array_equal(calc.connection.c, want.c)


class TestSpinorProgram:
    def test_refuses_a_spec_with_another_component_count(self):
        # n = 3 has N = 2 components: four are not read as two fields
        spec = [("1", "0")] * 4
        with pytest.raises(ChartError, match="a spinor in n = 3 has 2 components, got 4"):
            spinor_program(flat_chart(), [spec])

    def test_fields_stack_on_the_third_axis(self):
        # one program of S fields runs to (m, B, S, N), each field's slice
        # bitwise the field run alone
        chart = iso_chart()
        md = metric_jets(chart, sample_points(3, 4), order=1)
        a, b = [("x1", "x2"), ("1", "x3/r")], [("0.5", "x3"), ("x2/r", "1")]
        both = spinor_jets(spinor_program(chart, [a, b]),
                           md.coords)
        assert both.c.shape == (4, 4, 2, 2)
        assert np.array_equal(both.c[:, :, 0], field(chart, md.coords, a).c)
        assert np.array_equal(both.c[:, :, 1], field(chart, md.coords, b).c)


class TestCovariantDerivative:
    def test_constant_spinor_flat_chart_is_parallel(self):
        chart = flat_chart()
        X = sample_points(3, 5)
        md = metric_jets(chart, X, order=2)
        calc = spinor_calc(md, None)
        psi = field(chart, md.coords, [("1", "0"), ("0", "1")])
        D = covd_coord(calc, psi, None)
        assert max(np.max(np.abs(D.value[:, i])) for i in range(3)) == 0.0

    def test_weight_enters_linearly_through_the_lee_form(self):
        # the derivative at two weights differs by (k1 - k2) theta_i psi;
        # everything else in the formula is weight independent
        chart = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={},
            lee=["0.1*x1/r^3", "0.1*x2/r^3", "0.1*x3/r^3"],
        )
        X = sample_points(3, 6)
        md = metric_jets(chart, X, order=2)
        theta = lee_jets(chart, md.coords)
        calc = spinor_calc(md, theta)
        psi = field(chart, md.coords, [("1 + x1/r", "x2/r"), ("x3/r", "0.5")])
        k1, k2 = -0.5, 1.5
        D1 = covd_coord(calc, psi, k1)
        D2 = covd_coord(calc, psi, k2)
        r = np.linalg.norm(X, axis=0)
        pv = spinor_values(psi)[:, :]  # (N, batch) value slots
        for i in range(3):
            diff = D1.value[:, i].T - D2.value[:, i].T
            want = (k1 - k2) * (0.1 * X[i] / r**3) * pv
            np.testing.assert_allclose(diff, want, rtol=1e-12, atol=1e-15)

    def test_parallel_spinor_for_exact_lee_form(self, unvalidated):
        """Flat metric, theta = -2 dr/r: psi = r^-2 (x . gamma) eta_0 with
        gamma_a = i sigma_a and eta_0 = (1, 0), whose components are
        r^-2 (i x3, -x2 + i x1), is parallel for
        D_X psi - X.theta.psi/2 + (k - 1/2) theta(X) psi at k = -1/2, and
        |psi|^2 = r^-2."""
        chart = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={},
            # this theta decays too slowly for a valid end: unvalidated
            lee=["-2*x1/r^2", "-2*x2/r^2", "-2*x3/r^2"],
        )
        X = sample_points(3, 8)
        md = metric_jets(chart, X, order=2)
        theta = lee_jets(chart, md.coords)
        calc = spinor_calc(md, theta)
        psi = field(chart, md.coords, [("0", "x3/r^2"), ("-x2/r^2", "x1/r^2")])
        D = covd_coord(calc, psi, -0.5)
        worst = max(np.max(np.abs(D.value[:, i])) for i in range(3))
        assert worst <= 1e-15
        # and its squared norm is r^-2 on the nose
        np.testing.assert_allclose(
            np.atleast_1d(h_jet(psi, psi).value.real),
            1 / np.sum(X * X, axis=0),
            rtol=1e-14,
        )


class TestDirac:
    def test_flat_linear_spinor(self):
        # D psi = sum_a gamma_a d_a psi; for psi = (x1, 0) this is
        # gamma_1 (1, 0) = (0, i) with the representation used here
        chart = flat_chart()
        X = sample_points(3, 4)
        md = metric_jets(chart, X, order=2)
        calc = spinor_calc(md, None)
        psi = field(chart, md.coords, [("x1", "0"), ("0", "0")])
        vals = spinor_values(dirac(calc, covd_coord(calc, psi, None)))
        np.testing.assert_allclose(vals[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(vals[1], 1j * np.ones(4), atol=1e-15)

    def test_dirac_square_expansion_residual_small(self):
        chart = lee_chart()
        X = sample_points(3, 10)
        calc = calc_for(chart, X, order=2)
        psi = field(chart, calc.frame.md.coords, [("1 + x2/r^2", "x1/r^3"), ("x3/r^2", "1")])
        # the expanded form must reproduce the composed square
        d2 = spinor_values(dirac_composed(calc, covd_coord(calc, psi, -0.5), -0.5))
        ex = spinor_values(dirac_squared_expansion(calc, psi, -0.5))
        scale = max(1.0, float(np.max(np.abs(d2))))
        assert np.max(np.abs(d2 - ex)) <= 1e-10 * scale


class TestResiduals:
    def make_psi(self, chart, coords):
        return field(chart, coords,
                     [("1 + x1/r^2", "0.2 - x3/r^3"), ("x2/r^2", "1 - x1/r^3")])

    @pytest.mark.parametrize("chartf", [iso_chart, lee_chart])
    def test_lichnerowicz_first(self, chartf):
        chart = chartf()
        X = sample_points(3, 12)
        calc = calc_for(chart, X)
        psi = self.make_psi(chart, calc.frame.md.coords)
        Dc = covd_coord(calc, psi, -0.5)
        res, scale = lichnerowicz_I_residual(calc, psi, Dc, dirac_composed(calc, Dc, -0.5))
        assert np.max(np.abs(res)) <= 1e-8 * max(1.0, scale)

    @pytest.mark.parametrize("chartf", [iso_chart, lee_chart])
    def test_lichnerowicz_pairing(self, chartf):
        chart = chartf()
        X = sample_points(3, 12)
        calc = calc_for(chart, X)
        psi = self.make_psi(chart, calc.frame.md.coords)
        phi = field(chart, calc.frame.md.coords, [("x3/r^2", "1"), ("0.5", "x1/r^2")])
        out = lichnerowicz_II_residual(calc, psi, phi, covd_coord(calc, psi, -0.5),
                                       covd_coord(calc, phi, -0.5))
        bound = 1e-8 * max(1.0, out["scale"])
        # the identity itself plus both sub-identities it splits into
        assert np.max(np.abs(out["main"])) <= bound
        assert np.max(np.abs(out["first"])) <= bound
        assert np.max(np.abs(out["second"])) <= bound

    def test_norm_identity(self):
        chart = lee_chart()
        X = sample_points(3, 12)
        calc = calc_for(chart, X)
        psi = self.make_psi(chart, calc.frame.md.coords)
        res = norm_identity_residual(calc, psi, [0.6, -0.8, 0.0],
                                     covd_coord(calc, psi, -0.5))
        assert np.max(np.abs(res)) <= 1e-10


class TestPairing:
    def test_h_jet_hermitian(self):
        chart = iso_chart()
        X = sample_points(3, 6)
        md = metric_jets(chart, X, order=2)
        psi = field(chart, md.coords, [("x1", "x2"), ("1", "x3/r")])
        phi = field(chart, md.coords, [("0.5", "x3"), ("x2/r", "1")])
        ab = h_jet(psi, phi).value
        ba = h_jet(phi, psi).value
        np.testing.assert_allclose(ab, np.conj(ba), rtol=1e-15)

    def test_h_jet_positive_on_diagonal(self):
        chart = iso_chart()
        X = sample_points(3, 6)
        md = metric_jets(chart, X, order=2)
        psi = field(chart, md.coords, [("1", "x1/r"), ("x2/r", "0")])
        d = h_jet(psi, psi)
        assert np.all(np.atleast_1d(d.value.real) > 0)
        np.testing.assert_allclose(np.atleast_1d(d.value.imag), 0.0, atol=1e-16)


class TestBatchIndependence:
    """One column computed alone equals, bitwise, the same column inside
    batches of 7 and 257, as tests/test_curvature.py checks for the
    curvature layer.  The contractions run on BLAS, whose kernels can
    branch on alignment and on tails, so the 257 start at an odd offset
    and the 7 are its tail."""

    def chart4(self):
        return make_chart(
            n=4,
            tau=1.5,
            r_min=1.0,
            metric={"11": "1 + 1/r^2", "22": "1 + 1/r^2", "33": "1 + 0.5/r^2",
                    "44": "1 + 1/r^2", "12": "0.3*x1*x2/r^4"},
            lee=["-0.2*x1/r^4", "0.1*x3/r^4", "-0.1*x2/r^4", "0.2*x4/r^4"],
        )

    def evaluate(self, chart, X):
        calc = calc_for(chart, X)
        coords = calc.frame.md.coords
        psi = field(chart, coords, [("1 + x1/r^2", "x2/r^2"), ("x3/r^2", "0.5"),
                                    ("0.2", "x4/r^2"), ("x1*x2/r^4", "1")])
        phi = field(chart, coords, [("x4/r^2", "1"), ("0.5", "x1/r^2"),
                                    ("1", "0"), ("x2/r^2", "x3/r^2")])
        Dpsi = covd_coord(calc, psi, -1.0)
        pairing = lichnerowicz_II_residual(calc, psi, phi, Dpsi, covd_coord(calc, phi, -1.0))
        return {
            "omega": calc.frame.omega.c,
            "covd_coord": Dpsi.c,
            "dirac": dirac(calc, Dpsi).c,
            "dirac_squared_expansion": dirac_squared_expansion(calc, psi, -1.0).c,
            "pairing": h_jet(psi, phi).c,
            **{f"lichnerowicz_II.{k}": pairing[k] for k in ("main", "first", "second")},
        }

    def test_single_column_matches_the_batch_bitwise(self):
        chart = self.chart4()
        X = sample_points(4, 258)
        batches = {lo: self.evaluate(chart, X[:, lo:]) for lo in (1, 251)}
        for q in (1, 251, 255, 257):
            one = self.evaluate(chart, X[:, q:q + 1])
            for lo, whole in batches.items():
                if q >= lo:
                    for name, arr in whole.items():
                        got = one[name][:, 0] if arr.ndim > 1 else one[name][0]
                        want = arr[:, q - lo] if arr.ndim > 1 else arr[q - lo]
                        assert np.array_equal(got, want), name
