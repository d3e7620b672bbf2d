"""Small expression language for analytic chart data.

Metric components, Lee-form components, spinor components and conformal
factors are all given as strings in a tiny arithmetic language and parsed
to immutable trees.  Grammar (EBNF):

    expr      = term , { ("+" | "-") , term } ;
    term      = unary , { ("*" | "/") , unary } ;
    unary     = "-" , unary | power ;
    power     = atom , { "^" , exponent } ;
    exponent  = [ "-" ] , digits ;                (integer literal, |e| <= 64)
    atom      = number | identifier | call | "(" , expr , ")" ;
    call      = funcname , "(" , expr , [ "," , expr ] , ")" ;
    funcname  = "sqrt" | "exp" | "log" | "sin" | "cos" | "atan" | "pow" ;

Precedence is ``^`` > unary minus > ``*`` ``/`` > ``+`` ``-``, left
associative at equal precedence, so ``-x^2`` is ``-(x^2)`` and ``x^2^3``
is ``(x^2)^3``.  Numbers are decimal literals (binary64), optionally in
scientific notation.

Identifiers: ``x1 .. xn`` are the chart coordinates, ``r`` is the derived
radius sqrt(x1^2 + ... + xn^2), and anything else is a named parameter
bound at evaluation time.  Names matching ``x<digits>`` and ``r`` are
reserved and cannot be parameters.

``^`` takes integer literal exponents only and is evaluated by repeated
multiplication; fractional powers must be spelled with ``sqrt`` or
``pow``.  ``pow(u, s)`` uses a direct power when ``s`` contains no
coordinate (so it is constant along the chart) and exp(s*log(u))
otherwise.

Parse errors carry the 0-based byte offset of the offending token.
``parse`` also refuses brackets nested more than ``MAX_NESTING`` deep;
a tree may have any number of levels, since no walk recurses on them.

Evaluation goes through one straight-line program.  ``lower`` turns a
sequence of trees, with n and the parameters bound, into a ``Program``:
a list of instructions (op, literal, operand slots) in which equal
instructions share one slot, so a subexpression such as ``r`` or
``sqrt(r)`` is computed once however often the trees use it.  ``r``
lowers to the left-fold sum of squares under ``sqrt``; ``x^e`` to the
left-fold product, with ``1/acc`` after it for e < 0 and the constant 1
for e = 0 (its base is still lowered, so unbound names still raise);
``pow`` with a coordinate-free exponent to ``powc`` with that exponent
evaluated once as its literal, any other ``pow`` to exp(s*log(u)).
``evaluate`` runs the program with a numpy op table and
``jets.evaluate_jet`` runs the same program with a jet op table.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ExprAst", "Num", "Var", "Neg", "BinOp", "Pow", "Call",
    "ParseError", "EvalError",
    "Program", "RING_OPS", "parse", "as_expr", "lower", "evaluate",
    "identifiers", "is_coordinate_free",
    "substitute", "derivative", "eadd", "esub", "emul", "ediv",
    "FUNCTIONS", "MAX_INT_EXPONENT", "MAX_NESTING", "COORD_RE",
]

FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "atan": 1, "pow": 2}
MAX_INT_EXPONENT = 64
# how deep ``parse`` lets brackets nest, inside Python's default recursion
# limit of 1000 frames: the parser recurses four frames per bracket and
# ``lower`` three per nested coordinate-free ``pow`` exponent.
MAX_NESTING = 200

#: coordinate-like names are reserved: x1, x2, ... and the radius r
COORD_RE = re.compile(r"^x[0-9]+$")


class ParseError(ValueError):
    """Syntax or grammar error; ``offset`` is the 0-based byte position,
    None for an error of the whole expression."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    """Raised for unbound identifiers or malformed evaluation input."""


# ---------------------------------------------------------------------------
# AST

class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "ExprAst"


class BinOp(NamedTuple):
    op: str  # '+', '-', '*', '/'
    left: "ExprAst"
    right: "ExprAst"


class Pow(NamedTuple):
    base: "ExprAst"
    exponent: int


class Call(NamedTuple):
    fn: str
    args: tuple["ExprAst", ...]


ExprAst = Num | Var | Neg | BinOp | Pow | Call


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(src)))
    return out


# ---------------------------------------------------------------------------
# parser (recursive descent)

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(f"expected {op!r}, got {got}", t.offset)
        return self.next()

    def parse(self) -> ExprAst:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.offset)
        return e

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        # unary and power in one frame, the minuses counted, not recursed on
        signs = 0
        while self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            signs += 1
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = Pow(node, self.int_exponent())
        for _ in range(signs):
            node = Neg(node)
        return node

    def int_exponent(self) -> int:
        sign = 1
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            sign = -1
            t = self.peek()
        if t.kind != "num":
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(f"expected integer exponent, got {got}", t.offset)
        if not t.text.isdigit():
            raise ParseError(f"exponent must be an integer literal, got {t.text!r}", t.offset)
        self.next()
        e = sign * int(t.text)
        if abs(e) > MAX_INT_EXPONENT:
            raise ParseError(f"exponent {e} exceeds |e| <= {MAX_INT_EXPONENT}", t.offset)
        return e

    def atom(self) -> ExprAst:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(float(t.text))
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind != "name":
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(f"unexpected {got}", t.offset)
        name = self.next()
        nt = self.peek()
        if not (nt.kind == "op" and nt.text == "("):
            return Var(name.text)
        # a call, parsed in this frame: a bracket costs the same frames
        # whether it is a call's or a group's
        if name.text not in FUNCTIONS:
            raise ParseError(f"unknown function {name.text!r}", name.offset)
        self.next()
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        want = FUNCTIONS[name.text]
        if len(args) != want:
            raise ParseError(
                f"{name.text} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}",
                name.offset,
            )
        return Call(name.text, tuple(args))


def parse(src: str) -> ExprAst:
    """Parse ``src`` to an immutable expression tree.

    Raises:
        ParseError: on any syntax problem, with a 0-based byte offset, and
            on brackets nested more than ``MAX_NESTING`` deep.
    """
    parser = _Parser(src)
    nesting = 0
    for t in parser.toks:
        if t.kind == "op" and t.text in "()":
            nesting += 1 if t.text == "(" else -1
            if nesting > MAX_NESTING:
                raise ParseError(f"brackets nest more than {MAX_NESTING} deep", t.offset)
    return parser.parse()


def as_expr(e: str | ExprAst) -> ExprAst:
    """``e`` parsed when it is source text, else the tree itself."""
    return parse(e) if isinstance(e, str) else e


# ---------------------------------------------------------------------------
# evaluation: trees lowered to one straight-line program

def _children(node: ExprAst) -> tuple:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    return ()


def _fold(trees: Sequence[ExprAst], visit: Callable, children: Callable = _children) -> list:
    """``visit(tree, kids)`` for each of ``trees``, ``kids`` being what
    ``visit`` gave ``children(tree)``: every node visited after its children,
    left to right, tree after tree, on the walk's own stacks (no frame per level)."""
    order = []  # preorder, last child first; reversed, a left-to-right postorder
    stack = list(trees)
    while stack:
        node = stack.pop()
        kids = children(node)
        order.append((node, len(kids)))
        stack.extend(kids)
    values: list = []
    for node, k in reversed(order):
        kids = values[len(values) - k:]
        del values[len(values) - k:]
        values.append(visit(node, kids))
    return values


def _rebuild(node: ExprAst, kids: Sequence[ExprAst]) -> ExprAst:
    """``node`` with the children ``kids`` in place of its own."""
    if isinstance(node, Neg):
        return Neg(kids[0])
    if isinstance(node, BinOp):
        return BinOp(node.op, kids[0], kids[1])
    if isinstance(node, Pow):
        return Pow(kids[0], node.exponent)
    if isinstance(node, Call):
        return Call(node.fn, tuple(kids))
    return node


def identifiers(ast: ExprAst) -> set[str]:
    """All identifier names appearing in the tree."""
    out: set[str] = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        stack.extend(_children(node))
    return out


def is_coordinate_free(ast: ExprAst) -> bool:
    """True if the expression references no coordinate and not ``r``.

    Used to decide the ``pow`` lowering: a coordinate-free exponent is
    constant along the chart, so ``pow(u, s)`` can take the direct power
    branch; otherwise it becomes exp(s*log(u)).
    """
    return not any(name == "r" or COORD_RE.match(name) for name in identifiers(ast))


#: the ring operations, shared by the numpy and the jet op tables
RING_OPS: dict[str, Callable] = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv,
}

_NUMPY_OPS: dict[str, Callable] = dict(
    RING_OPS, const=np.float64, sqrt=np.sqrt, exp=np.exp, log=np.log,
    sin=np.sin, cos=np.cos, atan=np.arctan, powc=np.power)


class Program(NamedTuple):
    """Straight-line code for a sequence of trees, n and params bound.

    ``code[k]`` is the instruction ``(op, literal, operand slots)`` that
    fills slot k; operands name earlier slots, and ``literal`` is None
    except for ``const`` (the value), ``coord`` (the coordinate index)
    and ``powc`` (the exponent).  ``outputs`` holds each tree's slot.
    """
    code: tuple[tuple[str, object, tuple[int, ...]], ...]
    outputs: tuple[int, ...]

    def run(self, ops: Mapping[str, Callable]) -> list:
        """The output values, computing slot k as ``ops[op](*operands)``,
        or ``ops[op](*operands, literal)`` when it has a literal."""
        slots: list = []
        for op, lit, args in self.code:
            vals = [slots[a] for a in args]
            slots.append(ops[op](*vals) if lit is None else ops[op](*vals, lit))
        return [slots[k] for k in self.outputs]


def lower(trees: Sequence[ExprAst], n: int,
          params: Mapping[str, float] | None = None) -> Program:
    """Lower ``trees`` over n coordinates to one program.

    Equal instructions share one slot; constants are keyed by their bit
    pattern, so 0.0 and -0.0 stay apart.  Slots are numbered in lowering
    order.  Unbound identifiers and coordinates beyond n raise EvalError.
    """
    params = params or {}
    code: list = []
    slot_of: dict = {}
    radius: list = []  # r's slot, lowered on first use

    def emit(op: str, lit=None, *args: int) -> int:
        key = (op, lit.hex() if isinstance(lit, float) else lit, args)
        k = slot_of.get(key)
        if k is None:
            k = slot_of[key] = len(code)
            code.append((op, lit, args))
        return k

    def children(node: ExprAst) -> tuple:
        if isinstance(node, Call) and node.fn == "pow" and is_coordinate_free(node.args[1]):
            return node.args[:1]
        return _children(node)

    def visit(node: ExprAst, kids: Sequence[int]) -> int:
        if isinstance(node, Num):
            return emit("const", float(node.value))
        if isinstance(node, Var):
            name = node.name
            if name == "r":
                if not radius:
                    acc = None
                    for i in range(n):
                        x = emit("coord", i)
                        sq = emit("*", None, x, x)
                        acc = sq if acc is None else emit("+", None, acc, sq)
                    radius.append(emit("sqrt", None, acc))
                return radius[0]
            if COORD_RE.match(name):
                idx = int(name[1:]) - 1
                if not 0 <= idx < n:
                    raise EvalError(f"coordinate {name} out of range for n={n}")
                return emit("coord", idx)
            if name in params:
                return emit("const", float(params[name]))
            raise EvalError(f"unbound identifier {name!r}")
        if isinstance(node, Neg):
            return emit("neg", None, kids[0])
        if isinstance(node, BinOp):
            return emit(node.op, None, kids[0], kids[1])
        if isinstance(node, Pow):
            base = kids[0]
            if node.exponent == 0:
                return emit("const", 1.0)
            acc = base
            for _ in range(abs(node.exponent) - 1):
                acc = emit("*", None, acc, base)
            return acc if node.exponent > 0 else emit("/", None, emit("const", 1.0), acc)
        if isinstance(node, Call):
            base = kids[0]
            if node.fn != "pow":
                return emit(node.fn, None, base)
            if len(kids) == 1:  # a coordinate-free exponent, run on its own
                with np.errstate(invalid="ignore", divide="ignore"):
                    (s,) = lower([node.args[1]], n, params).run(_NUMPY_OPS)
                return emit("powc", float(s), base)
            return emit("exp", None, emit("*", None, kids[1], emit("log", None, base)))
        raise EvalError(f"unknown node {node!r}")

    outputs = tuple(_fold(trees, visit, children))
    return Program(code=tuple(code), outputs=outputs)


def evaluate(ast: ExprAst | Sequence[ExprAst], coords,
             params: Mapping[str, float] | None = None):
    """Evaluate at a point (shape (n,)) or batch of points (shape (n, B)).

    One tree gives a numpy float64 scalar or array (a coordinate-free tree
    gives a scalar); a sequence of trees gives their values broadcast to
    the batch and stacked on a last axis.  Unbound identifiers raise
    EvalError; domain violations (log of a negative number, ...) follow
    IEEE semantics and propagate NaN.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim not in (1, 2):
        raise EvalError(f"coords must have shape (n,) or (n, B), got {coords.shape}")
    single = isinstance(ast, ExprAst)
    prog = lower([ast] if single else ast, coords.shape[0], params)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = prog.run(dict(_NUMPY_OPS, coord=coords.__getitem__))
    if single:
        return out[0]
    stacked = np.empty(coords.shape[1:] + (len(out),))
    for k, v in enumerate(out):
        stacked[..., k] = v
    return stacked


# ---------------------------------------------------------------------------
# structural helpers: substitution and symbolic derivative
#
# These exist so charts can be transformed in closed form (conformal
# rescaling g -> f g with theta -> theta - df/(2f), and coordinate scaling
# z -> z/sqrt(a)).  They are deliberately simple -- enough algebraic
# simplification to keep trees small, no more.

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_const(node: ExprAst, v: float) -> bool:
    return isinstance(node, Num) and node.value == v


def eadd(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def esub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def emul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def ediv(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def substitute(ast: ExprAst, mapping: Mapping[str, ExprAst]) -> ExprAst:
    """Replace identifiers by subtrees.  Note ``r`` must be mapped
    explicitly when the coordinates are transformed."""
    def visit(node: ExprAst, kids: Sequence[ExprAst]) -> ExprAst:
        return mapping.get(node.name, node) if isinstance(node, Var) else _rebuild(node, kids)

    return _fold([ast], visit)[0]


def derivative(ast: ExprAst, coord: str) -> ExprAst:
    """Symbolic partial derivative with respect to coordinate ``coord``.

    The derived radius obeys the chain rule d r / d x_i = x_i / r.
    Parameters differentiate to zero.
    """
    if not COORD_RE.match(coord):
        raise ValueError(f"derivative is with respect to a coordinate, got {coord!r}")

    def d(node: ExprAst, kids: Sequence[ExprAst]) -> ExprAst:
        if isinstance(node, Num):
            return _ZERO
        if isinstance(node, Var):
            if node.name == coord:
                return _ONE
            if node.name == "r":
                return ediv(Var(coord), Var("r"))
            return _ZERO
        if isinstance(node, Neg):
            (da,) = kids
            return _ZERO if _is_const(da, 0.0) else Neg(da)
        if isinstance(node, BinOp):
            da, db = kids
            if node.op == "+":
                return eadd(da, db)
            if node.op == "-":
                return esub(da, db)
            if node.op == "*":
                return eadd(emul(da, node.right), emul(node.left, db))
            # quotient rule
            num = esub(emul(da, node.right), emul(node.left, db))
            return ediv(num, Pow(node.right, 2))
        if isinstance(node, Pow):
            (db,) = kids
            if node.exponent == 0 or _is_const(db, 0.0):
                return _ZERO
            coef = emul(Num(float(node.exponent)), Pow(node.base, node.exponent - 1))
            return emul(coef, db)
        if isinstance(node, Call):
            if node.fn == "pow":
                (u, s), (du, ds) = node.args, kids
                # d(u^s) = u^s * (ds*log u + s*du/u)
                terms = eadd(emul(ds, Call("log", (u,))), emul(s, ediv(du, u)))
                return emul(Call("pow", (u, s)), terms)
            (u,), (du,) = node.args, kids
            if _is_const(du, 0.0):
                return _ZERO
            if node.fn == "sqrt":
                return ediv(du, emul(Num(2.0), Call("sqrt", (u,))))
            if node.fn == "exp":
                return emul(Call("exp", (u,)), du)
            if node.fn == "log":
                return ediv(du, u)
            if node.fn == "sin":
                return emul(Call("cos", (u,)), du)
            if node.fn == "cos":
                return Neg(emul(Call("sin", (u,)), du))
            if node.fn == "atan":
                return ediv(du, eadd(_ONE, Pow(u, 2)))
        raise TypeError(f"unknown node {node!r}")

    return _fold([ast], d)[0]
