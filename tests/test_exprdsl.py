"""Tests for the scalar expression language: parsing, printing, evaluation,
symbolic differentiation, and substitution."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmass import exprdsl
from confmass.exprdsl import (
    Call,
    EvalError,
    Num,
    ParseError,
    Var,
    derivative,
    eadd,
    emul,
    evaluate,
    identifiers,
    is_coordinate_free,
    parse,
    substitute,
    to_source,
)
from confmass.jets import evaluate_jet, seed_point


def ev1(ast, pt, params=None):
    """Evaluate at a single column point, tolerating scalar constant folds."""
    return float(np.atleast_1d(evaluate(ast, pt, params=params))[0])


def ev(src, x1=0.0, x2=0.0, x3=0.0, params=None):
    return ev1(parse(src), np.array([[x1], [x2], [x3]]), params=params)


class TestParseEvaluate:
    def test_literals_and_coordinates(self):
        assert ev("2.5") == 2.5
        assert ev("x1 + 2*x2", x1=1.0, x2=3.0) == 7.0
        assert ev("-x3", x3=4.0) == -4.0

    def test_precedence_and_associativity(self):
        assert ev("2 + 3*4") == 14.0
        assert ev("2*3^2") == 18.0
        assert ev("-2^2") == -4.0  # unary minus binds looser than ^
        assert ev("2^3^2") == 64.0  # left associative: (2^3)^2
        assert ev("8/4/2") == 1.0  # left associative
        assert ev("(2 + 3)*4") == 20.0

    def test_functions(self):
        assert ev("sqrt(x1)", x1=9.0) == 3.0
        assert ev("sin(x1)^2 + cos(x1)^2", x1=0.7) == pytest.approx(1.0, abs=1e-15)
        assert ev("exp(log(x1))", x1=5.0) == pytest.approx(5.0, abs=1e-14)
        assert ev("atan(1)") == pytest.approx(math.pi / 4)

    def test_r_shorthand(self):
        # r is the Euclidean radius of the coordinate point
        assert ev("r", x1=3.0, x2=4.0) == 5.0
        assert ev("1/r^2", x1=0.0, x2=0.0, x3=2.0) == 0.25

    def test_named_parameters(self):
        assert ev("m*x1 + b", x1=2.0, params={"m": 3.0, "b": 1.0}) == 7.0
        with pytest.raises(EvalError):
            ev("m*x1")  # unbound parameter

    def test_parse_errors(self):
        for bad in ["", "1 +", "(x1", "x1 @ x2", "sin()", "sqrt(1, 2)", "foo(x1)"]:
            with pytest.raises(ParseError):
                parse(bad)

    def test_integer_exponent_guard(self):
        with pytest.raises(ParseError):
            parse(f"x1^{exprdsl.MAX_INT_EXPONENT + 1}")

    def test_vectorized_evaluation(self):
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        out = evaluate(parse("x1^2 + x2"), pts)
        assert out.shape == (3,)
        np.testing.assert_allclose(out, [1.0, 5.0, 11.0])

    def test_constant_expression_collapses_to_scalar(self):
        # Coordinate-free expressions fold to a scalar; callers broadcast.
        pts = np.zeros((3, 5))
        out = evaluate(parse("2 + 2"), pts)
        assert np.shape(out) == ()
        assert float(out) == 4.0


class TestDerivative:
    @pytest.mark.parametrize(
        "src,coord,want",
        [
            ("x1^3", "x1", lambda p: 3 * p[0] ** 2),
            ("sin(x1*x2)", "x2", lambda p: p[0] * math.cos(p[0] * p[1])),
            ("1/r", "x1", lambda p: -p[0] / np.linalg.norm(p) ** 3),
            ("exp(-x3)", "x3", lambda p: -math.exp(-p[2])),
            ("sqrt(x1^2 + 1)", "x1", lambda p: p[0] / math.sqrt(p[0] ** 2 + 1)),
        ],
    )
    def test_against_closed_forms(self, src, coord, want):
        p = np.array([0.7, -1.3, 2.1])
        d = derivative(parse(src), coord)
        got = ev1(d, p.reshape(3, 1))
        assert got == pytest.approx(want(p), rel=1e-14)

    def test_derivative_of_constant_is_zero(self):
        d = derivative(parse("3.5"), "x1")
        assert ev1(d, np.zeros((3, 1))) == 0.0

    def test_parameter_treated_as_constant(self):
        d = derivative(parse("m*x1"), "x1")
        assert ev1(d, np.zeros((3, 1)), params={"m": 4.0}) == 4.0


class TestAstUtilities:
    def test_identifiers(self):
        ast = parse("m*x1 + sin(x2)/r")
        ids = identifiers(ast)
        assert {"m", "x1", "x2", "r"} == ids

    def test_is_coordinate_free(self):
        assert is_coordinate_free(parse("2*m + 1"))
        assert not is_coordinate_free(parse("2*x1"))
        assert not is_coordinate_free(parse("r"))

    def test_substitute(self):
        ast = parse("u^2 + x1")
        out = substitute(ast, {"u": parse("1 + 1/x1")})
        assert ev1(out, np.array([[2.0], [0.0], [0.0]])) == pytest.approx((1.5) ** 2 + 2.0)

    def test_constructors_compose(self):
        ast = eadd(emul(Num(2.0), Var("x1")), Call("sin", (Var("x2"),)))
        assert ev1(ast, np.array([[3.0], [0.0], [0.0]])) == pytest.approx(6.0)


# A strategy for well-formed expression ASTs of bounded depth.
def _ast_strategy():
    leaves = st.one_of(
        st.floats(min_value=0.125, max_value=8.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from(["x1", "x2", "x3", "m"]).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: eadd(*ab)),
            st.tuples(children, children).map(lambda ab: emul(*ab)),
            children.map(lambda a: Call("sin", (a,))),
            children.map(lambda a: Call("exp", (a,))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestRoundTrip:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=200, deadline=None)
    @given(_ast_strategy())
    def test_print_parse_round_trip(self, ast):
        # to_source must emit text that parses back to an equivalent tree.
        src = to_source(ast)
        again = parse(src)
        assert to_source(again) == src
        pt = np.array([[0.3], [0.7], [-0.2]])
        a = np.atleast_1d(evaluate(ast, pt, params={"m": 1.5}))
        b = np.atleast_1d(evaluate(again, pt, params={"m": 1.5}))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["x1", "x2", "x3"]),
        _ast_strategy(),
    )
    def test_derivative_matches_forward_mode(self, coord, ast):
        # the oracle is the order-1 jet coefficient, an independent
        # forward-mode derivative; a central difference is no oracle here,
        # its truncation error reaches 6e-4 relative on sin(exp(exp(5*x1)))
        pt = np.array([[0.4], [-0.6], [0.9]])
        idx = int(coord[1]) - 1
        base = ev1(ast, pt, params={"m": 1.5})
        assume(math.isfinite(base) and abs(base) < 1e12)
        d = derivative(ast, coord)
        sym = ev1(d, pt, params={"m": 1.5})
        assume(math.isfinite(sym) and abs(sym) < 1e8)
        _, coords = seed_point(pt, 1)
        fwd = float(evaluate_jet(ast, coords, {"m": 1.5}).derive(idx).value[0])
        assert sym == pytest.approx(fwd, rel=2e-5, abs=2e-5)

    def test_forward_mode_oracle_on_the_steep_example(self):
        ast = parse("sin(exp(exp(5*x1)))")
        pt = np.array([[0.4], [-0.6], [0.9]])
        _, coords = seed_point(pt, 1)
        fwd = float(evaluate_jet(ast, coords).derive(0).value[0])
        sym = ev1(derivative(ast, "x1"), pt)
        assert sym == pytest.approx(-57808.74581727, rel=1e-10)
        assert sym == pytest.approx(fwd, rel=2e-5, abs=2e-5)
