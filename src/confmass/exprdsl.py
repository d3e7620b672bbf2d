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
``jets.evaluate_jet`` runs the same program with a jet op table; both
take only a ``Program``, lowered once where its trees are made, and
refuse a coordinate count other than its n.

Transforms build programs on lowered ones, never on trees, through
``lower``'s value numbering: ``derivative`` is forward mode over the
slots (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3),
linear in the program; ``pullback`` reads x as s x; ``conformal_join``
emits f g and theta - df/(2f).  They fold a constant 0 operand and a
factor or divisor 1, emitting nothing for them.
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
    "derivative", "pullback", "conformal_join",
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
    and ``powc`` (the exponent).  ``outputs`` holds each tree's slot,
    and ``n`` the number of coordinates the program runs on.
    """
    code: tuple[tuple[str, object, tuple[int, ...]], ...]
    outputs: tuple[int, ...]
    n: int

    def run(self, ops: Mapping[str, Callable]) -> list:
        """The output values, computing slot k as ``ops[op](*operands)``,
        or ``ops[op](*operands, literal)`` when it has a literal."""
        slots: list = []
        for op, lit, args in self.code:
            vals = [slots[a] for a in args]
            slots.append(ops[op](*vals) if lit is None else ops[op](*vals, lit))
        return [slots[k] for k in self.outputs]


class _Emitter:
    """Straight-line code under construction: ``emit`` returns the slot
    of an equal instruction if there is one, so ``lower`` shares slots.
    The transforms also use ``add``, ``sub``, ``mul`` and ``div``, which
    fold a constant 0 operand and a factor or divisor 1, with None for a
    zero never emitted; ``program`` emits one only where an output is 0.
    """

    def __init__(self, n: int):
        self.n, self.code, self.slot_of = n, [], {}

    def emit(self, op: str, lit=None, *args: int) -> int:
        key = (op, lit.hex() if isinstance(lit, float) else lit, args)
        k = self.slot_of.get(key)
        if k is None:
            k = self.slot_of[key] = len(self.code)
            self.code.append((op, lit, args))
        return k

    def slot(self, k: int | None) -> int:
        return self.emit("const", 0.0) if k is None else k

    def program(self, outputs: Sequence[int | None]) -> Program:
        outputs = tuple(self.slot(k) for k in outputs)
        return Program(code=tuple(self.code), outputs=outputs, n=self.n)

    def copy(self, prog: Program, coord: Callable[[int], int] | None = None) -> list[int]:
        """Emit ``prog``'s code on top of this code: the new slot of each
        of its slots, coordinate i read as the slot ``coord(i)`` if given."""
        slots: list[int] = []
        for op, lit, args in prog.code:
            slots.append(coord(lit) if op == "coord" and coord else
                         self.emit(op, lit, *(slots[a] for a in args)))
        return slots

    def _is(self, k: int | None, v: float) -> bool:
        return v == 0.0 if k is None else self.code[k][0] == "const" and self.code[k][1] == v

    def add(self, a, b):
        if self._is(a, 0.0):
            return b
        return a if self._is(b, 0.0) else self.emit("+", None, a, b)

    def sub(self, a, b):
        if self._is(b, 0.0):
            return a
        return self.emit("neg", None, b) if self._is(a, 0.0) else self.emit("-", None, a, b)

    def mul(self, a, b):
        if self._is(a, 0.0) or self._is(b, 0.0):
            return None
        if self._is(a, 1.0):
            return b
        return a if self._is(b, 1.0) else self.emit("*", None, a, b)

    def div(self, a, b):
        if self._is(a, 0.0):
            return None
        return a if self._is(b, 1.0) else self.emit("/", None, a, self.slot(b))

    def forward(self, coord: int, count: int) -> list:
        """d/dx_coord of each of the first ``count`` slots, a slot or None
        for zero, which propagates emitting nothing.  Each instruction takes
        the rule of the tree it lowered from: a square a*a (``^2``) as
        (2*a)*da, any other product by the product rule, a quotient as
        (da*b - a*db)/(b*b), sqrt(u) as du/(2*sqrt(u)), u^s as u^s*(s*(du/u))."""
        emit, d = self.emit, []
        for k, (op, lit, args) in enumerate(self.code[:count]):
            da = [d[a] for a in args]
            a, b = (args + (None, None))[:2]
            if op == "coord":
                dk = emit("const", 1.0) if lit == coord else None
            elif all(self._is(x, 0.0) for x in da):  # constant along x_coord
                dk = None
            elif op == "+":
                dk = self.add(*da)
            elif op == "-":
                dk = self.sub(*da)
            elif op == "*" and a != b:
                dk = self.add(self.mul(da[0], b), self.mul(a, da[1]))
            elif op == "/":
                num = self.sub(self.mul(da[0], b), self.mul(a, da[1]))
                dk = None if self._is(num, 0.0) else emit("/", None, num, emit("*", None, b, b))
            elif op == "*":
                dk = self.mul(emit("*", None, emit("const", 2.0), a), da[0])
            elif op == "neg":
                dk = emit("neg", None, da[0])
            elif op == "sqrt":
                dk = emit("/", None, da[0], emit("*", None, emit("const", 2.0), k))
            elif op == "exp":
                dk = self.mul(k, da[0])
            elif op == "log":
                dk = self.div(da[0], a)
            elif op == "sin":
                dk = self.mul(emit("cos", None, a), da[0])
            elif op == "cos":
                dk = emit("neg", None, self.mul(emit("sin", None, a), da[0]))
            elif op == "atan":
                dk = emit("/", None, da[0],
                          emit("+", None, emit("const", 1.0), emit("*", None, a, a)))
            elif op == "powc":
                dk = self.mul(k, self.mul(emit("const", lit), self.div(da[0], a)))
            else:
                raise EvalError(f"no derivative rule for {op!r}")
            d.append(dk)
        return d


def lower(trees: Sequence[ExprAst], n: int,
          params: Mapping[str, float] | None = None) -> Program:
    """Lower ``trees`` over n coordinates to one program.

    Equal instructions share one slot; constants are keyed by their bit
    pattern, so 0.0 and -0.0 stay apart.  Slots are numbered in lowering
    order.  Unbound identifiers and coordinates beyond n raise EvalError.
    """
    params = params or {}
    out = _Emitter(n)
    emit = out.emit
    radius: list = []  # r's slot, lowered on first use

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
                # silently: an overflow to inf is refused where it is evaluated
                with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                    (s,) = lower([node.args[1]], n, params).run(_NUMPY_OPS)
                return emit("powc", float(s), base)
            return emit("exp", None, emit("*", None, kids[1], emit("log", None, base)))
        raise EvalError(f"unknown node {node!r}")

    return out.program(_fold(trees, visit, children))


def evaluate(prog: Program, coords) -> np.ndarray:
    """Run ``prog`` at a point (shape (n,)) or batch of points (shape
    (n, B)), n the program's own: its outputs broadcast to the batch and
    stacked on a last axis.  Other coordinate shapes raise EvalError;
    domain violations (log of a negative number, ...) follow IEEE
    semantics and propagate NaN.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim not in (1, 2) or coords.shape[0] != prog.n:
        raise EvalError(f"coords must have shape ({prog.n},) or ({prog.n}, B), "
                        f"got {coords.shape}")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = prog.run(dict(_NUMPY_OPS, coord=coords.__getitem__))
    stacked = np.empty(coords.shape[1:] + (len(out),))
    for k, v in enumerate(out):
        stacked[..., k] = v
    return stacked


# ---------------------------------------------------------------------------
# transforms: new programs emitted on top of lowered ones

def derivative(prog: Program) -> Program:
    """``prog``'s outputs, then for each coordinate index i < n in turn
    d/dx_i of every output, by forward mode over its slots: at most five
    instructions per instruction and coordinate (a quotient's)."""
    out = _Emitter(prog.n)
    slots = out.copy(prog)
    outputs = [slots[k] for k in prog.outputs]
    for i in range(prog.n):
        d = out.forward(i, len(slots))
        outputs += [d[slots[k]] for k in prog.outputs]
    return out.program(outputs)


def pullback(prog: Program, s: float, factor: float = 1.0) -> Program:
    """The program of ``factor`` * prog(s x): every coordinate read as
    s*x_i, every output multiplied by ``factor``; s = 1 and factor 1
    emit nothing."""
    out = _Emitter(prog.n)
    slots = out.copy(prog, None if s == 1.0 else lambda i: out.emit(
        "*", None, out.emit("const", float(s)), out.emit("coord", i)))
    c = None if factor == 1.0 else out.emit("const", float(factor))
    return out.program([slots[k] if c is None else out.mul(c, slots[k]) for k in prog.outputs])


def conformal_join(metric: Program, lee: Program, factor: Program) -> tuple[Program, Program]:
    """The programs of f*g and theta - df/(2f), f the one output of
    ``factor``: every output of ``metric`` times f, and from the i-th
    output of ``lee`` (d/dx_i f)/(2*f) subtracted."""
    grad = derivative(factor)  # f, then its n derivatives
    g, t = _Emitter(metric.n), _Emitter(lee.n)
    f, entries = g.copy(factor)[factor.outputs[0]], g.copy(metric)
    fs, theta = t.copy(grad), t.copy(lee)
    two_f = t.mul(t.emit("const", 2.0), fs[grad.outputs[0]])
    return (g.program([g.mul(f, entries[k]) for k in metric.outputs]),
            t.program([t.sub(theta[k], t.div(fs[df], two_f))
                       for k, df in zip(lee.outputs, grad.outputs[1:])]))
