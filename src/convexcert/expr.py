"""A small expression language for functions of one variable ``x``.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := number | "x" | "(" expr ")" | ident "(" expr ")"
    ident  := "exp" | "log" | "abs"

Precedence is the usual one — ``^`` binds tightest and associates to
the right, then unary minus, then ``*``/``/``, then ``+``/``-`` — so
``-x^2`` means ``-(x^2)`` and ``2^3^2`` means ``2^(3^2)``.

The module provides parsing, evaluation (a compiled fast path, and one
AST walker with per-node domain errors that runs on floats or on
intervals through an op table), symbolic differentiation with light
simplification, a printer whose output re-parses to a structurally
identical tree, and one analysis of f'' on an interval that feeds both
the curvature band and the convexity guard.  ``abs`` is parseable
(weights may need it) but rejected by :func:`differentiate` — weights
need not be differentiable, integrands do.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar, Union

from .core import (
    ConvexityViolated,
    CurvatureBounds,
    DomainError,
    Interval,
    NonConstantExponent,
    NonSmoothExpression,
    ParseError,
    Provenance,
    _midpoint,
)

__all__ = [
    "Node",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "parse",
    "to_text",
    "evaluate",
    "differentiate",
    "simplify",
    "FunctionSpec",
    "function_spec",
    "evaluation_spec",
    "curvature_range",
    "require_convex",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

UNARY_OPS = ("neg", "exp", "log", "abs")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

# Nodes are tuples, so ``Var()`` is empty and falsy: test an optional
# node with ``is None``, never by its truth value.


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    pass


class Unary(NamedTuple):
    op: str  # one of UNARY_OPS
    arg: "Node"


class Binary(NamedTuple):
    op: str  # one of BINARY_OPS
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int


_OPS = set("+-*/^")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            # optional exponent part: e / E, optional sign, digits
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", start) from None
            tokens.append(_Token("num", lit, start))
        elif ch.isalpha():
            start = i
            while i < n and text[i].isalnum():
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            node = Binary("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            node = Binary("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            arg = self.parse_factor()
            # Fold a negated literal into a signed constant so that the
            # printer's output for negative constants re-parses to the
            # same tree.
            if isinstance(arg, Const):
                return Const(-arg.value)
            return Unary("neg", arg)
        node = self.parse_base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            expo = self.parse_factor()  # right-associative
            return Binary("pow", node, expo)
        return node

    def parse_base(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in ("exp", "log", "abs"):
                self.expect("lparen", "'(' after function name")
                arg = self.parse_expr()
                self.expect("rparen", "')'")
                return Unary(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str) -> Node:
    """Parse expression text into an AST.

    Raises:
        ParseError: with the byte offset of the offending token.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

# Precedence levels used by the printer: 1 add/sub, 2 mul/div,
# 3 unary minus, 4 pow, 5 atoms.


def _emit(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        text = repr(node.value)
        # A negative literal prints with a leading '-' and therefore
        # behaves like a unary-minus expression for parenthesisation.
        return text, (3 if node.value < 0 else 5)
    if isinstance(node, Var):
        return "x", 5
    if isinstance(node, Unary):
        inner, prec = _emit(node.arg)
        if node.op == "neg":
            if prec < 3:
                inner = f"({inner})"
            return f"-{inner}", 3
        return f"{node.op}({inner})", 5
    assert isinstance(node, Binary)
    left, lp = _emit(node.left)
    right, rp = _emit(node.right)
    if node.op in ("add", "sub"):
        sym = "+" if node.op == "add" else "-"
        if lp < 1:
            left = f"({left})"
        # the grammar is left-associative, so an add-level right
        # operand must be parenthesised to survive a round trip
        if rp <= 1:
            right = f"({right})"
        return f"{left} {sym} {right}", 1
    if node.op in ("mul", "div"):
        sym = "*" if node.op == "mul" else "/"
        if lp < 2:
            left = f"({left})"
        if rp <= 2:
            right = f"({right})"
        return f"{left}{sym}{right}", 2
    # pow: right-associative, left operand must be an atom
    if lp < 5:
        left = f"({left})"
    if rp < 3:
        right = f"({right})"
    return f"{left}^{right}", 4


def to_text(node: Node) -> str:
    """Render an AST as expression text.

    The output uses the minimal parenthesisation that still re-parses
    to a structurally identical tree.
    """
    return _emit(node)[0]


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def _walk(node: Node, x, ops: dict):
    """Evaluate the AST at ``x`` in the arithmetic given by the op table ``ops``.

    A math failure of an op becomes a :class:`DomainError` carrying the
    innermost node whose op failed.
    """
    try:
        if isinstance(node, Binary):
            return ops[node.op](_walk(node.left, x, ops), _walk(node.right, x, ops))
        if isinstance(node, Unary):
            return ops[node.op](_walk(node.arg, x, ops))
        if isinstance(node, Const):
            return ops["const"](node.value)
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"{to_text(node)}: {exc}", node) from exc
    return x


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:  # saturate, keeping the sign of an odd power
        return -math.inf if a < 0.0 and b % 2.0 == 1.0 else math.inf


_FLOAT = {
    "const": float,
    "neg": operator.neg,
    "exp": _exp,
    "log": math.log,
    "abs": abs,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": _pow,
}


def evaluate(node: Node, x: float) -> float:
    """Interpret the AST at ``x`` with per-node domain checking.

    ``exp`` and ``pow`` saturate to ``±inf`` on overflow, node by node,
    so an overflow that a later op absorbs (``1/exp(800*x)``) does not
    make the whole value infinite.

    Raises:
        DomainError: carrying the offending sub-node, for ``log`` of a
            nonpositive value, division by zero, or a power that leaves
            the reals.
    """
    return _walk(node, x, _FLOAT)


# Interval arithmetic on (lo, hi) pairs, rounded to nearest: each end is
# the float op on ends of the operands, and an end that is not finite
# raises, so no interval ever holds an infinity or a NaN.  There is no
# abs: it runs on second derivatives, which never contain one.


def _hull(*ends: float) -> tuple[float, float]:
    lo, hi = min(ends), max(ends)
    if -math.inf < lo <= hi < math.inf:  # false for a NaN, which only a NaN constant brings
        return lo, hi
    raise OverflowError("interval left the finite range")


def _interval_pow(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    c = b[0]
    if b[1] != c:
        raise ValueError("interval power needs a constant exponent")
    ends = _pow(a[0], c), _pow(a[1], c)
    if a[0] < 0.0 < a[1]:  # an integer power of a base that crosses 0
        if c < 0.0:
            raise ZeroDivisionError("negative power of an interval containing 0")
        if c > 0.0 and c % 2.0 == 0.0:
            return _hull(0.0, *ends)
    return _hull(*ends)


def _interval_div(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    if b[0] <= 0.0 <= b[1]:
        raise ZeroDivisionError("division by an interval containing 0")
    return _hull(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


_INTERVAL = {
    "const": lambda v: _hull(v),
    "neg": lambda a: _hull(-a[0], -a[1]),
    "exp": lambda a: _hull(_exp(a[0]), _exp(a[1])),
    "log": lambda a: _hull(math.log(a[0]), math.log(a[1])),
    "add": lambda a, b: _hull(a[0] + b[0], a[1] + b[1]),
    "sub": lambda a, b: _hull(a[0] - b[1], a[1] - b[0]),
    "mul": lambda a, b: _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]),
    "div": _interval_div,
    "pow": _interval_pow,
}

# counts the occurrences of x
_OCCURRENCES = {
    "const": lambda v: 0,
    **dict.fromkeys(UNARY_OPS, lambda n: n),
    **dict.fromkeys(BINARY_OPS, operator.add),
}


# a compiled form: a list of points in, the list of their values out
_Batch = Callable[[Sequence[float]], list[float]]


def _compile(node: Node) -> _Batch:
    """Compile an AST to a plain Python batch callable (the fast path).

    The code depends only on the AST's shape: each ``Const`` becomes a
    parameter ``k0…kn``, in walk order, of a factory compiled once per
    shape (:func:`_shape`), and the form is that factory applied to the
    constants, with the float operations of the constants written inline.

    Domain failures surface as ValueError/ZeroDivisionError/Overflow
    from the math layer; :class:`FunctionSpec` maps them to
    :class:`DomainError` at its boundary.
    """
    consts: list[float] = []

    def src(n: Node) -> str:
        if isinstance(n, Const):
            consts.append(n.value)
            return f"k{len(consts) - 1}"
        if isinstance(n, Var):
            return "x"
        if isinstance(n, Unary):
            inner = src(n.arg)
            if n.op == "neg":
                return f"(-{inner})"
            return f"_{n.op}({inner})"
        assert isinstance(n, Binary)
        a, b = src(n.left), src(n.right)
        if n.op == "pow":
            return f"_pow({a}, {b})"
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[n.op]
        return f"({a} {sym} {b})"

    body = src(node)
    params = ", ".join(f"k{i}" for i in range(len(consts)))
    return _shape(f"lambda {params}: lambda xs: [{body} for x in xs]")(*consts)


@lru_cache(maxsize=256)  # holds code only, never a constant or a spec
def _shape(source: str) -> Callable[..., _Batch]:
    env = {"_exp": math.exp, "_log": math.log, "_abs": abs, "_pow": math.pow, "__builtins__": {}}
    return eval(source, env)  # noqa: S307 - our own AST


# --------------------------------------------------------------------------
# Differentiation and simplification
# --------------------------------------------------------------------------


def simplify(node: Node) -> Node:
    """Bottom-up constant folding plus the obvious identities.

    Deliberately conservative: it never rewrites in a way that could
    change values on the expression's domain, but (like any CAS-style
    fold) ``0 * u -> 0`` does drop domain errors of ``u``.
    """
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Unary):
        arg = simplify(node.arg)
        if node.op == "neg":
            if isinstance(arg, Const):
                return Const(-arg.value)
            if isinstance(arg, Unary) and arg.op == "neg":
                return arg.arg
            return Unary("neg", arg)
        if isinstance(arg, Const):
            try:
                if node.op == "exp":
                    return Const(math.exp(arg.value))
                if node.op == "log" and arg.value > 0.0:
                    return Const(math.log(arg.value))
                if node.op == "abs":
                    return Const(abs(arg.value))
            except OverflowError:
                pass
        return Unary(node.op, arg)
    assert isinstance(node, Binary)
    a = simplify(node.left)
    b = simplify(node.right)
    ca = a.value if isinstance(a, Const) else None
    cb = b.value if isinstance(b, Const) else None
    if node.op == "add":
        if ca is not None and cb is not None:
            return Const(ca + cb)
        if ca == 0.0:
            return b
        if cb == 0.0:
            return a
    elif node.op == "sub":
        if ca is not None and cb is not None:
            return Const(ca - cb)
        if cb == 0.0:
            return a
        if ca == 0.0:
            return simplify(Unary("neg", b))
    elif node.op == "mul":
        if ca is not None and cb is not None:
            return Const(ca * cb)
        if ca == 0.0 or cb == 0.0:
            return Const(0.0)
        if ca == 1.0:
            return b
        if cb == 1.0:
            return a
        if cb is not None:  # canonical: constant factor on the left
            return Binary("mul", Const(cb), a)
    elif node.op == "div":
        if ca is not None and cb is not None and cb != 0.0:
            return Const(ca / cb)
        if cb == 1.0:
            return a
        if ca == 0.0:
            return Const(0.0)
    else:  # pow
        if ca is not None and cb is not None:
            try:
                return Const(math.pow(ca, cb))
            except (ValueError, OverflowError):
                pass
        if cb == 1.0:
            return a
        if cb == 0.0:
            return Const(1.0)
    return Binary(node.op, a, b)


def differentiate(node: Node) -> Node:
    """Symbolic derivative with respect to ``x``, simplified.

    Raises:
        NonConstantExponent: for ``u ^ v`` with non-constant ``v``.
        NonSmoothExpression: for ``abs`` (weights may use it,
            differentiable integrands must not).
    """
    return simplify(_diff(node))


def _diff(node: Node) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Unary):
        du = _diff(node.arg)
        if node.op == "neg":
            return Unary("neg", du)
        if node.op == "exp":
            return Binary("mul", Unary("exp", node.arg), du)
        if node.op == "log":
            return Binary("div", du, node.arg)
        raise NonSmoothExpression("abs(...) is not differentiable")
    assert isinstance(node, Binary)
    u, v = node.left, node.right
    du, dv = None, None
    if node.op != "pow":
        du, dv = _diff(u), _diff(v)
    if node.op == "add":
        return Binary("add", du, dv)
    if node.op == "sub":
        return Binary("sub", du, dv)
    if node.op == "mul":
        return Binary("add", Binary("mul", du, v), Binary("mul", u, dv))
    if node.op == "div":
        num = Binary("sub", Binary("mul", du, v), Binary("mul", u, dv))
        return Binary("div", num, Binary("pow", v, Const(2.0)))
    # pow with constant exponent: d(u^c) = c * u^(c-1) * u'
    if not isinstance(v, Const):
        raise NonConstantExponent(
            f"cannot differentiate {to_text(node)!r}: exponent must be a constant"
        )
    du = _diff(u)
    scaled = Binary("mul", Const(v.value), Binary("pow", u, Const(v.value - 1.0)))
    return Binary("mul", scaled, du)


# --------------------------------------------------------------------------
# FunctionSpec
# --------------------------------------------------------------------------


class FunctionSpec:
    """An evaluatable function, optionally with symbolic derivatives.

    Calling the spec evaluates the compiled form of ``ast``; raw math
    errors are mapped to :class:`DomainError` at this boundary.  ``d1``
    and ``d2`` are ``None`` for evaluation-only specs (weights).  Each
    form is built on first use, once, as a batch callable whose code is
    compiled once per expression shape per process, with this spec's
    constants bound to it (see :func:`_compile`); a call at one point is
    a batch of one.

    A spec remembers its pure analyses (integrals, moments, weight
    profile, f'' range, and the node values of the quadrature's starting
    panels) in a private memo that lives and dies with it; see
    :func:`_remember`.

    Immutable: it equals another spec with the same ``ast``, ``d1`` and
    ``d2``, and assigning to any attribute raises ``AttributeError``.
    Not a tuple, since the memo must die with it (a weak reference) and
    the forms are kept as cached properties (an instance ``__dict__``).
    """

    ast: Node
    d1: Node | None
    d2: Node | None
    _memo: dict

    def __init__(self, ast: Node, d1: Node | None = None, d2: Node | None = None) -> None:
        self.__dict__.update(ast=ast, d1=d1, d2=d2, _memo={})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ast, self.d1, self.d2) == (other.ast, other.d1, other.d2)

    def __repr__(self) -> str:
        return f"FunctionSpec(ast={self.ast!r}, d1={self.d1!r}, d2={self.d2!r})"

    @cached_property
    def _fn(self) -> _Batch:
        return _compile(self.ast)

    @cached_property
    def _d1fn(self) -> _Batch | None:
        return None if self.d1 is None else _compile(self.d1)

    @cached_property
    def _d2fn(self) -> _Batch | None:
        return None if self.d2 is None else _compile(self.d2)

    @cached_property
    def text(self) -> str:
        return to_text(self.ast)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing walks the whole AST, and a weight is hashed on every
        # memo lookup of an integral against it
        return hash((self.ast, self.d1, self.d2))

    def __call__(self, x: float) -> float:
        try:
            return self._fn((x,))[0]
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{self.text} undefined at x={x}: {exc}") from exc
        except OverflowError:  # re-run the point, saturating only the nodes that overflow
            return evaluate(self.ast, x)

    def _call_node(self, fn: _Batch | None, node: Node | None, what: str, x: float) -> float:
        if fn is None:
            raise NonSmoothExpression(f"{what} unavailable for {self.text!r}")
        try:
            return fn((x,))[0]
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{what} of {self.text} undefined at x={x}: {exc}") from exc
        except OverflowError:
            return evaluate(node, x)

    def derivative(self, x: float) -> float:
        return self._call_node(self._d1fn, self.d1, "first derivative", x)

    def second_derivative(self, x: float) -> float:
        return self._call_node(self._d2fn, self.d2, "second derivative", x)

    def _values(self, xs: Sequence[float]) -> list[float]:
        """The spec at each of ``xs``, in one batch: bit for bit the values,
        and the first :class:`DomainError`, of calls one point at a time."""
        return _batch(self._fn, self, xs)

    def _second_derivatives(self, xs: Sequence[float]) -> list[float]:
        """f'' at each of ``xs``, in one batch, like :meth:`_values`."""
        return _batch(self._d2fn, self.second_derivative, xs)


def _batch(fn: _Batch, point: Callable[[float], float], xs: Sequence[float]) -> list[float]:
    try:
        return fn(xs)
    except (ArithmeticError, ValueError):  # redo point by point: that call's error text, or its saturation
        return [point(x) for x in xs]


_T = TypeVar("_T")


def _remember(owner: object, key: tuple, compute: Callable[[], _T]) -> _T:
    """``compute()``, kept under ``key`` in the memo of ``owner`` when it
    is a :class:`FunctionSpec`.

    A spec is pure, so a hit returns exactly what the computation would.
    Any other callable may not be, so it always computes.  Nothing
    outside the spec holds an entry: it goes when the spec goes.  Keys
    compare floats by value, so -0.0 and 0.0 share an entry; a result
    that can tell them apart is keyed on their signs too.
    """
    if not isinstance(owner, FunctionSpec):
        return compute()
    memo = owner._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def function_spec(source: str | Node) -> FunctionSpec:
    """Build a :class:`FunctionSpec` with symbolic first and second
    derivatives.  Rejects ``abs`` and non-constant exponents."""
    ast = parse(source) if isinstance(source, str) else source
    ast = simplify(ast)
    d1 = differentiate(ast)
    d2 = differentiate(d1)
    return FunctionSpec(ast=ast, d1=d1, d2=d2)


def evaluation_spec(source: str | Node) -> FunctionSpec:
    """Build an evaluation-only :class:`FunctionSpec` (no derivatives).
    This is the right constructor for weights, which may contain
    ``abs``."""
    ast = parse(source) if isinstance(source, str) else source
    return FunctionSpec(ast=simplify(ast), d1=None, d2=None)


# --------------------------------------------------------------------------
# Curvature range
# --------------------------------------------------------------------------

_WIDEN = 1e-9
_NODES = 33  # Chebyshev nodes of the heuristic band


def _chebyshev_grid(interval: Interval, samples: int) -> list[float]:
    a, b = interval.a, interval.b
    mid, half = _midpoint(a, b), 0.5 * (b - a)
    nodes = [mid + half * math.cos((2 * k + 1) * math.pi / (2 * samples)) for k in range(samples)]
    return [a, *nodes, b]


def _f2_range(f: FunctionSpec, interval: Interval, what: str) -> tuple[float, float, Provenance]:
    """f''s range on the interval before widening, and its provenance (see
    :func:`curvature_range`), computed once per spec and interval."""
    if f.d2 is None:
        raise NonSmoothExpression(f"{what} needs a second derivative for {f.text!r}")
    # keyed on the signs of the ends too: the walker can return an end
    # itself (f'' = x), and -0.0 == 0.0 would otherwise share an entry
    a, b = interval.a, interval.b
    key = ("f2_range", a, math.copysign(1.0, a), b, math.copysign(1.0, b))
    return _remember(f, key, lambda: _f2_analysis(f, interval))


def _f2_analysis(f: FunctionSpec, interval: Interval) -> tuple[float, float, Provenance]:
    a, b = interval.a, interval.b
    try:
        m, M = _walk(f.d2, (a, b), _INTERVAL)
    except DomainError:
        pass
    else:
        if _walk(f.d2, 1, _OCCURRENCES) <= 1 or _hull(*f._second_derivatives((a, b))) == (m, M):
            return m, M, Provenance.EXACT
    values = [v for v in f._second_derivatives(_chebyshev_grid(interval, _NODES)) if not math.isnan(v)]
    return min(values, default=math.nan), max(values, default=math.nan), Provenance.SAMPLED_HEURISTIC


def curvature_range(f: FunctionSpec, interval: Interval) -> CurvatureBounds:
    """Bound f'' on the interval: a band m <= f'' <= M.

    The band is the interval evaluation of f'' over I, tagged ``EXACT``
    when that enclosure is the range itself: when x occurs at most once
    in f'' (Moore's single-use theorem; this covers interior extrema
    such as ``(x - s)^4``), or when its ends are f''(a) and f''(b)
    (co-monotone sums).  Arithmetic is rounded to nearest.  Otherwise —
    overestimation, a domain limit such as ``log``, a division or a
    power across 0, or a result that is not finite — the band is the
    min/max of f'' over 33 Chebyshev nodes plus the endpoints (NaN values
    skipped), widened by ``1e-9 * (1 + |value|)`` on each side, and
    tagged ``SAMPLED_HEURISTIC`` — a usable default, not a certificate.
    """
    lo, hi, provenance = _f2_range(f, interval, "curvature_range")
    if provenance is Provenance.EXACT:
        return CurvatureBounds(lo, hi, provenance)
    return CurvatureBounds(lo - _WIDEN * (1.0 + abs(lo)), hi + _WIDEN * (1.0 + abs(hi)), provenance)


def require_convex(f: FunctionSpec, interval: Interval) -> None:
    """Convexity guard: ``ConvexityViolated`` unless the lower end lo of
    f''s range, as :func:`curvature_range` finds it before widening, is
    at least -2⁻³⁶·max(|lo|, |hi|), hi being the upper end: a slack above
    the rounding of an f'' that cancels (softplus reaches about 1e-13).

    So convexity is proved where that band is ``EXACT``.  A NaN lower
    end is refused, and an upper end that is not finite gives no slack.
    """
    lo, hi, _ = _f2_range(f, interval, "convexity check")
    if not lo >= (-(2.0**-36) * abs(hi) if math.isfinite(hi) else 0.0):
        raise ConvexityViolated(f"f'' reaches {lo} on [{interval.a}, {interval.b}] for f = {f.text}")
