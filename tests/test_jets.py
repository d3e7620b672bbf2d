"""Tests for truncated multivariate Taylor (jet) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmass import exprdsl, jetlinalg, jets
from confmass.jets import Jet, JetSpace, evaluate_jet, seed_point


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

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("src", ["sqrt(x1 - x1)", "pow(0, 0.5)", "pow(x1 - x1, 0.5)"])
    def test_constant_argument_at_an_infinite_derivative(self, src, order):
        # f'(0) is infinite but the argument is constant: the jet is f(0)
        # with zero derivatives, not inf * 0 = NaN
        pts = np.array([[1.3, 0.0, -2.0], [-0.7, 0.5, 1.0], [2.9, 0.0, 0.25]])
        ast = exprdsl.parse(src)
        _, xs = seed_point(pts, order)
        with np.errstate(invalid="ignore"):
            j = evaluate_jet(ast, xs)
        plain = np.broadcast_to(exprdsl.evaluate(ast, pts), (3,))
        assert np.array_equal(j.c[0], plain)
        assert np.array_equal(j.c[1:], np.zeros_like(j.c[1:]))

    def test_finite_columns_keep_their_bits_beside_a_constant_one(self):
        # at order 1, x1*x2 has a zero nilpotent part at the origin only;
        # the other column is what it is when evaluated alone
        ast = exprdsl.parse("sqrt(x1*x2)")
        _, xs = seed_point(np.array([[0.0, 1.3], [0.0, 2.9]]), 1)
        with np.errstate(invalid="ignore"):
            both = evaluate_jet(ast, xs).c
        alone = jet_of("sqrt(x1*x2)", [1.3, 2.9], 1).c
        assert np.array_equal(both[:, 0], [0.0, 0.0, 0.0])
        assert np.array_equal(both[:, 1], alone)


class TestArithmetic:
    def test_seed_constant(self):
        space, xs = seed_point([1.0, 2.0], 2)
        c = Jet.constant(space, 7.5)
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



# every JetSpace the kernels can build: nvars 1..8, order 0..3
SPACES = [(nvars, order) for nvars in range(1, 9) for order in range(jets.MAX_ORDER + 1)]


def _pair_tables(nvars, order):
    """(pair count, plan) of the multiplication table of a space and of
    every grade table of the jet linear algebra on it."""
    sp = JetSpace.get(nvars, order)
    tables = [(len(sp._mul_t), sp._mul_plan)]
    for k in range(1, order + 1):
        for nonzero_right in (False, True):
            i, _, plan = jetlinalg._grade_pairs(sp, k, nonzero_right)
            if plan is not None:
                tables.append((len(i), plan))
    return tables


def _pair_data(rng, shape, dtype):
    """Products with magnitudes 1e-6..1e6, so that the order of the
    additions shows in the last bits, plus inf, -inf, nan and -0."""
    def part():
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)

    c = part() + 1j * part() if dtype is complex else part()
    flat = c.reshape(-1)
    special = [np.inf, -np.inf, np.nan, -0.0][:flat.size]
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    return c


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def _left_fold(conv, starts):
    """((c_0 + c_1) + c_2) + ... per segment: not what reduceat computes."""
    ends = list(starts[1:]) + [len(conv)]
    out = []
    for a, b in zip(starts, ends):
        acc = conv[a]
        for k in range(a + 1, b):
            acc = acc + conv[k]
        out.append(acc)
    return np.stack(out)


class TestPairSum:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(), (5,), (5, 3, 3)])
    def test_bitwise_equal_to_reduceat(self, shape, dtype):
        rng = np.random.default_rng(11)
        for nvars, order in SPACES:
            for total, plan in _pair_tables(nvars, order):
                conv = _pair_data(rng, (total,) + shape, dtype)
                with np.errstate(invalid="ignore"):
                    want = np.add.reduceat(conv, plan[0], axis=0)
                    got = jets.pair_sum(conv, plan)
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want)), (nvars, order, total)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_data_tell_a_left_fold_apart(self, dtype):
        # the check above would catch a pair_sum that added left to right
        rng = np.random.default_rng(11)
        sp = JetSpace.get(3, 3)
        conv = _pair_data(rng, (len(sp._mul_t), 5, 3, 3), dtype)
        with np.errstate(invalid="ignore"):
            want = np.add.reduceat(conv, sp._mul_plan[0], axis=0)
            folded = _left_fold(conv, sp._mul_plan[0])
        assert not np.array_equal(_bits(folded), _bits(want))

    def test_segments_hold_at_most_max_pairs(self):
        # reduceat's sums switch to an unrolled pairwise tree at 9 real
        # pairs; the largest segment, alpha = (1, 1, 1), has 8
        longest = {}
        for nvars, order in SPACES:
            for total, plan in _pair_tables(nvars, order):
                seg = np.diff(np.append(plan[0], total))
                assert seg.min() >= 1
                longest[nvars, order] = max(longest.get((nvars, order), 0), int(seg.max()))
        assert max(longest.values()) == jets.MAX_PAIRS == 8
        assert longest[3, 3] == 8
        with pytest.raises(ValueError):
            jets.pair_plan(np.array([0, 9]), 10)


class TestUnreadCoefficients:
    @pytest.mark.parametrize("order", [1, 2])
    def test_huge_or_tiny_argument_does_not_overflow(self, order):
        # the third-order coefficients overflow (sqrt at 1e200, log at
        # 1e120, u^0.5 at 1e-200); a jet of order 1 or 2 never reads them
        sp = JetSpace.get(2, order)

        def at(v):
            return Jet.variable(sp, 0, np.array([v]))

        with np.errstate(over="raise"):
            root = jets.jet_sqrt(at(1e200))
            jets.jet_log(at(1e120))
            jets.jet_powc(at(1e-200), 0.5)
        assert root.value[0] == 1e100
        assert root.partial((1, 0))[0] == 0.5 / 1e100
