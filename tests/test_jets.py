"""Tests for truncated multivariate Taylor (jet) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmass import exprdsl, jets
from confmass.jets import Jet, evaluate_jet, seed_constant, seed_point


def jet_of(src, point, order, params=None):
    space, xs = seed_point(point, order)
    return evaluate_jet(exprdsl.parse(src), xs, params=params)


class TestClosedForms:
    def test_inverse_radius(self):
        # f = 1/r at (1, 2, 2): r = 3.  Hand-derived partials:
        #   df/dxi   = -xi/r^3
        #   d2f/dxi2 = (3 xi^2 - r^2)/r^5,  d2f/dxixj = 3 xi xj / r^5
        f = jet_of("1/r", [1.0, 2.0, 2.0], 2)
        assert f.value == pytest.approx(1 / 3, rel=1e-15)
        assert f.partial((1, 0, 0)) == pytest.approx(-1 / 27, rel=1e-14)
        assert f.partial((0, 1, 0)) == pytest.approx(-2 / 27, rel=1e-14)
        assert f.partial((2, 0, 0)) == pytest.approx(-6 / 243, rel=1e-13)
        assert f.partial((1, 1, 0)) == pytest.approx(6 / 243, rel=1e-13)
        assert f.partial((0, 1, 1)) == pytest.approx(12 / 243, rel=1e-13)

    def test_composite_transcendental(self):
        # f = exp(sin(x1 * x2)) at (0.5, 0.8); s = x1 x2
        x1, x2 = 0.5, 0.8
        s = x1 * x2
        f = jet_of("exp(sin(x1*x2))", [x1, x2], 2)
        e = math.exp(math.sin(s))
        assert f.value == pytest.approx(e, rel=1e-15)
        # d/dx1 = x2 cos(s) e
        assert f.partial((1, 0)) == pytest.approx(x2 * math.cos(s) * e, rel=1e-14)
        # d2/dx1dx2 = e [cos s - s sin s + s cos^2 s]
        want = e * (math.cos(s) - s * math.sin(s) + s * math.cos(s) ** 2)
        assert f.partial((1, 1)) == pytest.approx(want, rel=1e-13)

    def test_third_order(self):
        # f = x1^3 x2 at (2, 5): d3/dx1^3 = 6 x2 = 30 exactly.
        f = jet_of("x1^3 * x2", [2.0, 5.0], 3)
        assert f.partial((3, 0)) == 30.0
        assert f.partial((2, 1)) == 12.0

    def test_params_flow_through(self):
        f = jet_of("m/r", [3.0, 0.0, 4.0], 1, params={"m": 2.0})
        assert f.value == pytest.approx(0.4, rel=1e-15)
        assert f.partial((0, 0, 1)) == pytest.approx(-2 * 4 / 125, rel=1e-14)


class TestExactness:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize(
        "src",
        ["(1 + 1/(2*r))^4", "sin(x1)*exp(x2/10) + sqrt(r)", "x1*x2*x3/r^2"],
    )
    def test_value_slot_matches_plain_evaluation_bitwise(self, src, order):
        # The order-0 slot of a jet must be the same floating-point number
        # that plain evaluation produces: seeding adds no rounding.
        pt = np.array([1.3, -0.7, 2.9])
        ast = exprdsl.parse(src)
        j = jet_of(src, pt, order)
        plain = float(np.atleast_1d(exprdsl.evaluate(ast, pt.reshape(-1, 1)))[0])
        assert j.value == plain  # bitwise


class TestArithmetic:
    def test_seed_constant(self):
        space, xs = seed_point([1.0, 2.0], 2)
        c = seed_constant(space, 7.5)
        assert c.value == 7.5
        assert c.partial((1, 0)) == 0.0

    def test_field_operations(self):
        space, (x, y) = seed_point([2.0, 3.0], 2)
        w = (x * y + 1.0) / (x - 1.0)
        # w = (xy + 1)/(x - 1) at (2, 3) = 7
        assert w.value == pytest.approx(7.0, rel=1e-15)
        # dw/dx = [y(x-1) - (xy+1)]/(x-1)^2 = (3 - 7)/1 = -4
        assert w.partial((1, 0)) == pytest.approx(-4.0, rel=1e-14)
        # dw/dy = x/(x-1) = 2
        assert w.partial((0, 1)) == pytest.approx(2.0, rel=1e-14)

    def test_division_by_zero_value_raises(self):
        space, (x, y) = seed_point([0.0, 1.0], 1)
        with pytest.raises(ZeroDivisionError):
            _ = y / x

    def test_truncate_lowers_the_space(self):
        space, (x, y) = seed_point([1.0, 1.0], 2)
        f = x * x + y
        t = f.truncate(1)
        assert t.space.order == 1
        assert t.value == f.value
        assert t.partial((1, 0)) == f.partial((1, 0))
        with pytest.raises(KeyError):
            t.partial((2, 0))  # out of range in the lowered space

    def test_derive_shifts_orders(self):
        # derive(v) returns the jet of the partial derivative, one order lower.
        space, (x, y) = seed_point([0.4, 0.9], 3)
        f = evaluate_jet(exprdsl.parse("sin(x1*x2)"), [x, y])
        g = f.derive(0)  # d/dx1, an order-2 jet
        assert g.value == pytest.approx(f.partial((1, 0)), rel=1e-15)
        assert g.partial((0, 1)) == pytest.approx(f.partial((1, 1)), rel=1e-13)

    def test_ipow(self):
        f = jet_of("x1^4", [3.0], 2)
        assert f.value == 81.0
        assert f.partial((1,)) == pytest.approx(108.0)
        assert f.partial((2,)) == pytest.approx(108.0)

    def test_max_order_guard(self):
        with pytest.raises(ValueError):
            seed_point([0.0], jets.MAX_ORDER + 1)


@st.composite
def _poly_and_point(draw):
    # A random dense quadratic in two variables plus a sine ripple.
    coeffs = [
        draw(st.floats(min_value=-2.0, max_value=2.0).map(lambda v: round(v, 3)))
        for _ in range(6)
    ]
    pt = [
        draw(st.floats(min_value=-1.5, max_value=1.5).map(lambda v: round(v, 3)))
        for _ in range(2)
    ]
    c = coeffs
    src = (
        f"{c[0]} + {c[1]}*x1 + {c[2]}*x2 + {c[3]}*x1^2 + {c[4]}*x1*x2"
        f" + {c[5]}*sin(x1 + x2)"
    )
    return src, pt


class TestAgainstFiniteDifferences:
    @settings(max_examples=60, deadline=None)
    @given(_poly_and_point())
    def test_gradient_matches_central_difference(self, case):
        src, pt = case
        ast = exprdsl.parse(src)
        j = jet_of(src, pt, 1)
        h = 1e-6
        for i in range(2):
            alpha = tuple(1 if k == i else 0 for k in range(2))
            pp = list(pt)
            pm = list(pt)
            pp[i] += h
            pm[i] -= h
            fp = float(np.atleast_1d(exprdsl.evaluate(ast, np.reshape(pp, (2, 1))))[0])
            fm = float(np.atleast_1d(exprdsl.evaluate(ast, np.reshape(pm, (2, 1))))[0])
            fd = (fp - fm) / (2 * h)
            assert j.partial(alpha) == pytest.approx(fd, abs=5e-6)

    @settings(max_examples=40, deadline=None)
    @given(_poly_and_point())
    def test_hessian_matches_second_difference(self, case):
        src, pt = case
        ast = exprdsl.parse(src)
        j = jet_of(src, pt, 2)
        h = 1e-4

        def at(q):
            return float(np.atleast_1d(exprdsl.evaluate(ast, np.reshape(q, (2, 1))))[0])

        # d2f/dx1^2 via 3-point stencil
        p0 = list(pt)
        pp = [pt[0] + h, pt[1]]
        pm = [pt[0] - h, pt[1]]
        fd = (at(pp) - 2 * at(p0) + at(pm)) / h**2
        assert j.partial((2, 0)) == pytest.approx(fd, abs=5e-4)
