"""Tests for the scalar expression language: parsing, printing, evaluation,
symbolic differentiation, and substitution."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confmass import exprdsl, jets
from confmass.exprdsl import (
    COORD_RE,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    derivative,
    eadd,
    emul,
    evaluate,
    identifiers,
    is_coordinate_free,
    lower,
    parse,
    substitute,
)
from confmass.jets import Jet, evaluate_jet, seed_point

# ---------------------------------------------------------------------------
# reference: recursive tree walkers, one per arithmetic, that evaluate each
# node in the order the program must reproduce bit for bit


def tree_evaluate(ast, coords, params=None):
    """Float evaluation by walking the tree; r is summed left to right,
    x^e is a left-fold product and pow(u, s) is a direct power only for a
    coordinate-free s."""
    coords = np.asarray(coords, dtype=np.float64)
    params = params or {}
    n = coords.shape[0]
    fns = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log,
           "sin": np.sin, "cos": np.cos, "atan": np.arctan}

    def go(node):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Var):
            if node.name == "r":
                s = coords[0] * coords[0]
                for i in range(1, n):
                    s = s + coords[i] * coords[i]
                return np.sqrt(s)
            if COORD_RE.match(node.name):
                idx = int(node.name[1:]) - 1
                if not 0 <= idx < n:
                    raise EvalError(f"coordinate {node.name} out of range for n={n}")
                return coords[idx]
            if node.name in params:
                return np.float64(params[node.name])
            raise EvalError(f"unbound identifier {node.name!r}")
        if isinstance(node, Neg):
            return -go(node.arg)
        if isinstance(node, BinOp):
            a, b = go(node.left), go(node.right)
            return {"+": np.add, "-": np.subtract, "*": np.multiply,
                    "/": np.divide}[node.op](a, b)
        if isinstance(node, Pow):
            value = go(node.base)
            if node.exponent == 0:
                return np.ones_like(value * 1.0)
            acc = value
            for _ in range(abs(node.exponent) - 1):
                acc = acc * value
            return np.divide(1.0, acc) if node.exponent < 0 else acc
        if node.fn == "pow":
            base, ex = go(node.args[0]), go(node.args[1])
            if is_coordinate_free(node.args[1]):
                return np.power(base, ex)
            return np.exp(ex * np.log(base))
        return fns[node.fn](go(node.args[0]))

    with np.errstate(invalid="ignore", divide="ignore"):
        return go(ast)


def tree_evaluate_jet(ast, coords, params=None):
    """Jet evaluation by walking the tree, in the order of ``tree_evaluate``."""
    params = params or {}
    space = coords[0].space
    n = len(coords)
    fns = {"sqrt": jets.jet_sqrt, "exp": jets.jet_exp, "log": jets.jet_log,
           "sin": jets.jet_sin, "cos": jets.jet_cos, "atan": jets.jet_atan}

    def const(v):
        return Jet.constant(space, np.full_like(coords[0].c[0], v))

    def go(node):
        if isinstance(node, Num):
            return const(node.value)
        if isinstance(node, Var):
            if node.name == "r":
                s = coords[0] * coords[0]
                for x in coords[1:]:
                    s = s + x * x
                return jets.jet_sqrt(s)
            if COORD_RE.match(node.name):
                return coords[int(node.name[1:]) - 1]
            if node.name in params:
                return const(params[node.name])
            raise EvalError(f"unbound identifier {node.name!r}")
        if isinstance(node, Neg):
            return -go(node.arg)
        if isinstance(node, BinOp):
            a, b = go(node.left), go(node.right)
            return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__,
                    "/": a.__truediv__}[node.op](b)
        if isinstance(node, Pow):
            value = go(node.base)
            if node.exponent == 0:
                return const(1.0)
            acc = value
            for _ in range(abs(node.exponent) - 1):
                acc = acc * value
            return const(1.0) / acc if node.exponent < 0 else acc
        if node.fn == "pow":
            base = go(node.args[0])
            if is_coordinate_free(node.args[1]):
                return jets.jet_powc(base, tree_evaluate(node.args[1], np.zeros(n), params))
            return jets.jet_exp(go(node.args[1]) * jets.jet_log(base))
        return fns[node.fn](go(node.args[0]))

    return go(ast)


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

    def test_minus_chains_and_powers_keep_their_tree(self):
        # the parser counts leading minuses and takes powers in one frame
        assert parse("--x1^2^3*y") == BinOp(
            "*", Neg(Neg(Pow(Pow(Var("x1"), 2), 3))), Var("y"))
        assert parse("-sqrt(-x1)^-2") == Neg(Pow(Call("sqrt", (Neg(Var("x1")),)), -2))

    @pytest.mark.parametrize("opener", ["(", "sqrt("])
    def test_brackets_nest_at_most_max_nesting_deep(self, opener):
        # counted on the tokens before the parser recurses, which it does
        # four frames a bracket, a group's or a call's alike
        k = exprdsl.MAX_NESTING
        assert identifiers(parse(opener * k + "x1" + ")" * k)) == {"x1"}
        with pytest.raises(ParseError) as err:
            parse(opener * (k + 1) + "x1" + ")" * (k + 1))
        assert err.value.offset == len(opener) * (k + 1) - 1
        assert str(err.value) == f"brackets nest more than {k} deep at offset {err.value.offset}"

    def test_nested_coordinate_free_exponents_evaluate_from_a_deep_stack(self):
        # lower runs each coordinate-free pow exponent by a program of its
        # own, three frames per bracket, so the deepest nesting parse allows
        # still evaluates when the caller already holds 200 frames
        k = exprdsl.MAX_NESTING
        tree = parse("pow(x1, " + "pow(1, " * (k - 1) + "2" + ")" * k)

        def deeper(frames):
            return deeper(frames - 1) if frames else ev1(tree, np.array([[3.0], [0.0]]))

        assert deeper(200) == 3.0

    def test_chains_of_any_length_walk_without_recursion(self):
        # substitution, differentiation and lowering keep their own stacks
        k = 100_000
        tree = parse("x1" + "+0" * k)
        pts = np.array([[2.0], [0.0]])
        assert ev1(tree, pts) == 2.0
        assert ev1(substitute(tree, {"x1": parse("x2 + 5")}), pts) == 5.0
        assert derivative(tree, "x1") == Num(1.0)
        assert len(exprdsl.lower([tree, derivative(tree, "x2")], 2).code) == k + 2

    @pytest.mark.parametrize("source, code_len", [
        ("-" * 20_000 + "x1", 20_002),
        ("x1" + "^1" * 20_000, 2),
        ("pow(x1, 1" + "+0" * 20_000 + ")", 3),
    ], ids=["minus", "power", "pow"])
    def test_chains_of_every_shape_walk_without_recursion(self, source, code_len):
        # 20,000 minuses, powers or terms of a coordinate-free pow exponent:
        # parsed, substituted into, differentiated and lowered on the walks'
        # own stacks; x1 lowers once, to one slot, and d/dx2 to a constant 0
        tree = parse(source)
        pts = np.array([[2.0], [0.0]])
        assert ev1(tree, pts) == 2.0
        assert ev1(substitute(tree, {"x1": parse("x2 + 5")}), pts) == 5.0
        assert derivative(tree, "x2") == Num(0.0)
        assert len(exprdsl.lower([tree, derivative(tree, "x2")], 2).code) == code_len

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


# A strategy for well-formed expression ASTs of bounded depth.  Without
# ``extended`` it keeps to +, *, sin and exp over x1..x3 and m.
def _ast_strategy(extended=True):
    names = ["x1", "x2", "x3", "m", "r"] if extended else ["x1", "x2", "x3", "m"]
    leaves = st.one_of(
        st.floats(min_value=0.125, max_value=8.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from(names).map(Var),
    )
    # a pow exponent that is constant along the chart
    coord_free = st.sampled_from(
        [Num(0.5), Num(4.0 / 3.0), Var("m"), BinOp("/", Var("m"), Num(3.0))])

    def extend(children):
        pairs = st.tuples(children, children)
        core = [
            pairs.map(lambda ab: eadd(*ab)),
            pairs.map(lambda ab: emul(*ab)),
            children.map(lambda a: Call("sin", (a,))),
            children.map(lambda a: Call("exp", (a,))),
        ]
        if not extended:
            return st.one_of(*core)
        return st.one_of(
            *core,
            pairs.map(lambda ab: BinOp("-", *ab)),
            pairs.map(lambda ab: BinOp("/", *ab)),
            children.map(Neg),
            st.tuples(children, st.integers(-3, 4)).map(lambda ae: Pow(*ae)),
            st.tuples(st.sampled_from(["sqrt", "log", "atan"]), children)
            .map(lambda fa: Call(fa[0], (fa[1],))),
            st.tuples(children, coord_free).map(lambda ab: Call("pow", ab)),
            # an exponent that depends on the coordinates
            pairs.map(lambda ab: Call("pow", (ab[0], eadd(ab[1], Var("x2"))))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


# lists of trees that share subtrees, one of them twice
_shared_trees = st.tuples(_ast_strategy(), _ast_strategy()).map(
    lambda ab: [ab[0], BinOp("*", *ab), Call("sqrt", (BinOp("+", *ab),)), ab[1], ab[0]])


# eight points, n = 3: a wider batch shows more last-bit differences
PTS = np.random.Generator(np.random.PCG64(5)).uniform(-2.0, 2.0, (3, 8)).round(3)
PARAMS = {"m": 1.5}


def assert_bitwise(got, want):
    # assert_array_equal counts NaN equal to NaN but 0.0 equal to -0.0
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def jet_or_error(fn, *args):
    """fn(*args), or the ZeroDivisionError a jet division by zero raises."""
    try:
        return fn(*args)
    except ZeroDivisionError as e:
        return e


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestProgramAgainstTreeWalk:
    @settings(max_examples=150, deadline=None)
    @given(_ast_strategy())
    def test_float_single_tree(self, ast):
        assert_bitwise(evaluate(ast, PTS, PARAMS), tree_evaluate(ast, PTS, PARAMS))

    @settings(max_examples=60, deadline=None)
    @given(_shared_trees)
    def test_float_shared_trees(self, trees):
        want = np.stack([np.broadcast_to(tree_evaluate(t, PTS, PARAMS), (8,))
                         for t in trees], axis=-1)
        assert_bitwise(evaluate(trees, PTS, PARAMS), want)

    @settings(max_examples=150, deadline=None)
    @given(_ast_strategy(), st.integers(1, 3))
    # operand order shows in the last bits of order-3 jets of these
    @example(parse("(sin(x1*x2) + x3)^3"), 3)
    @example(parse("pow(2 + sin(x1*x2), cos(x3*x1))"), 3)
    @example(parse("sin(r)*r"), 3)
    def test_jet_single_tree(self, ast, order):
        _, coords = seed_point(PTS, order)
        want = jet_or_error(tree_evaluate_jet, ast, coords, PARAMS)
        if isinstance(want, ZeroDivisionError):
            with pytest.raises(ZeroDivisionError):
                evaluate_jet(ast, coords, PARAMS)
        else:
            assert_bitwise(evaluate_jet(ast, coords, PARAMS).c, want.c)

    @settings(max_examples=60, deadline=None)
    @given(_shared_trees, st.integers(1, 3))
    def test_jet_shared_trees(self, trees, order):
        _, coords = seed_point(PTS, order)
        want = [jet_or_error(tree_evaluate_jet, t, coords, PARAMS) for t in trees]
        if any(isinstance(w, ZeroDivisionError) for w in want):
            with pytest.raises(ZeroDivisionError):
                evaluate_jet(trees, coords, PARAMS)
        else:
            assert_bitwise(evaluate_jet(trees, coords, PARAMS).c,
                           np.stack([w.c for w in want], axis=-1))


class TestLowering:
    def test_signed_zero_constants_stay_apart(self):
        out = evaluate((Num(0.0), Num(-0.0)), np.zeros((3, 2)))
        assert out.shape == (2, 2)
        assert np.signbit(out).tolist() == [[False, True], [False, True]]

    def test_zero_power_still_lowers_its_base(self):
        with pytest.raises(EvalError, match="unbound identifier 'y'"):
            evaluate(parse("y^0"), np.zeros((3, 2)))
        with pytest.raises(EvalError, match="unbound identifier 'y'"):
            evaluate_jet(parse("y^0"), seed_point(np.zeros((3, 2)), 1)[1])

    def test_slots_follow_lowering_order(self):
        prog = lower([parse("sin(x2) + r*x1"), parse("x1*x1")], 2)
        assert prog.code == (
            ("coord", 1, ()), ("sin", None, (0,)),
            ("coord", 0, ()), ("*", None, (2, 2)), ("*", None, (0, 0)),
            ("+", None, (3, 4)), ("sqrt", None, (5,)),
            ("*", None, (6, 2)), ("+", None, (1, 7)),
        )
        assert prog.outputs == (8, 3)  # x1*x1 is the square inside r


class TestRoundTrip:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["x1", "x2", "x3"]),
        _ast_strategy(extended=False),
    )
    def test_derivative_matches_forward_mode(self, coord, ast):
        # the oracle is the order-1 jet coefficient, an independent
        # forward-mode derivative; a central difference is no oracle here,
        # its truncation error reaches 6e-4 relative on sin(exp(exp(5*x1)));
        # the extended trees reach sqrt(u) and pow(u, s) at u = 0, where
        # the symbolic rule folds du = 0 to 0 and forward mode gives NaN
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
