"""Parser for the ``#pragma css task`` clause grammar (sections II, V.A).

The paper defines the task construct as::

    # pragma css task [clause [clause] ...]

where *clause* is one of ``input(parameter-list)``,
``output(parameter-list)``, ``inout(parameter-list)`` or
``highpriority``.  Parameters may carry *dimension specifiers*
(``a[M][M]``) and, with the section V.A language extension, *array
region specifiers*::

    {l..u} | {l:L} | {}

This module implements that grammar for the Python binding: the string
passed to :func:`repro.css_task` is exactly the clause list that would
follow ``#pragma css task`` in C.  Dimension and region bound
expressions are a C99 arithmetic subset (integers, parameter names,
``+ - * / %`` and parentheses) evaluated at invocation time against the
actual argument values — the paper requires this because bounds like
``data{i1..j1}`` reference other parameters.

We additionally accept an ``opaque(parameter-list)`` clause as the
binding of the paper's ``void *`` opaque pointers (Python has no
pointer types to infer it from).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .task import Direction

__all__ = [
    "PragmaError",
    "Expr",
    "RegionSpec",
    "ParamSpec",
    "ParsedPragma",
    "parse_pragma",
    "parse_expression",
]


class PragmaError(ValueError):
    """Raised on a malformed pragma clause string."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>      [\s\\]+            )
  | (?P<INT>     \d+                )
  | (?P<IDENT>   [A-Za-z_]\w*       )
  | (?P<DOTDOT>  \.\.               )
  | (?P<SYM>     [()\[\]{},:+\-*/%] )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PragmaError(
                f"unexpected character {text[pos]!r} at position {pos} in pragma {text!r}"
            )
        kind = m.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Expressions (C99 arithmetic subset)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """A parsed bound/dimension expression, compiled at parse time.

    :func:`_compile` turns the parser's tree into one tree of closures
    ``fn(env, load)``; ``load(value, name, source)`` is what a name's
    *env* value passes through — the only point where the integer and
    the abstract evaluation differ.
    """

    source: str
    _fn: Callable = field(compare=False, repr=False)
    _names: frozenset = field(compare=False, repr=False)

    def evaluate(self, env: dict) -> int:
        """Evaluate against *env* (parameter name -> value)."""

        return self._fn(env, _as_int)

    def names(self) -> frozenset:
        """All identifiers referenced by the expression."""

        return self._names

    def evaluate_symbolic(self, env: dict):
        """Evaluate over an arbitrary arithmetic domain.

        Like :meth:`evaluate`, but *env* values may be any objects
        implementing ``+ - * / %`` (e.g. the intervals of
        :mod:`repro.check.intervals`); plain ints keep the exact C99
        semantics of :meth:`evaluate`.  This is the symbolic-execution
        hook the whole-program analyzer uses to resolve region bounds
        under loop variables it has summarized rather than unrolled.
        """

        return self._fn(env, _as_is)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.source


def _as_int(value, name: str, source: str) -> int:
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise PragmaError(
            f"parameter {name!r} used in expression {source!r} is not an integer"
        ) from None
    return as_int


def _as_is(value, name: str, source: str):
    return value


def _c99_div(left, right, source: str):
    """``/``: C99 truncation toward zero on ints; an abstract operand
    (an interval) brings its own over-approximating operator."""

    if not (isinstance(left, int) and isinstance(right, int)):
        return left / right
    if right == 0:
        raise PragmaError(f"division by zero evaluating {source!r}")
    q = abs(left) // abs(right)
    return q if (left >= 0) == (right >= 0) else -q


def _c99_mod(left, right, source: str):
    if not (isinstance(left, int) and isinstance(right, int)):
        return left % right
    return left - right * _c99_div(left, right, source)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compile(ast: tuple, source: str, names: set) -> Callable:
    """The closure ``fn(env, load)`` of one parser node — ``("int", v)``,
    ``("name", id)``, ``("unary", op, x)`` or ``("binop", op, l, r)`` —
    adding every identifier met to *names*."""

    kind = ast[0]
    if kind == "int":
        value = ast[1]
        return lambda env, load: value
    if kind == "name":
        name = ast[1]
        names.add(name)

        def lookup(env, load):
            try:
                value = env[name]
            except KeyError:
                raise PragmaError(
                    f"expression {source!r} references unknown parameter {name!r}"
                ) from None
            return load(value, name, source)

        return lookup
    if kind == "unary":
        operand = _compile(ast[2], source, names)
        if ast[1] == "-":
            return lambda env, load: -operand(env, load)
        return lambda env, load: +operand(env, load)
    op = ast[1]
    left = _compile(ast[2], source, names)
    right = _compile(ast[3], source, names)
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]
        return lambda env, load: apply(left(env, load), right(env, load))
    divide = _c99_div if op == "/" else _c99_mod
    return lambda env, load: divide(left(env, load), right(env, load), source)


def _expr(ast: tuple, source: str) -> Expr:
    names: set[str] = set()
    fn = _compile(ast, source, names)
    return Expr(source, fn, frozenset(names))


class _Cursor:
    """A position ``i`` in ``tokens``; running out is an error about
    ``what`` is being parsed."""

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise PragmaError(f"unexpected end of {self.what}")
        self.i += 1
        return tok


class _ExprParser(_Cursor):
    """Recursive-descent parser for the arithmetic subset."""

    def __init__(self, tokens: Sequence[_Token], source: str, start: int = 0):
        self.tokens = tokens
        self.source = source
        self.i = start
        self.what = f"expression in {source!r}"

    def parse(self) -> tuple:
        return self._additive()

    def _additive(self) -> tuple:
        return self._binops("+-", self._multiplicative)

    def _multiplicative(self) -> tuple:
        return self._binops("*/%", self._unary)

    def _binops(self, ops: str, operand) -> tuple:
        """Left-associative *ops* between *operand* parses."""

        node = operand()
        while (tok := self.peek()) and tok.kind == "SYM" and tok.text in ops:
            self.advance()
            node = ("binop", tok.text, node, operand())
        return node

    def _unary(self) -> tuple:
        tok = self.peek()
        if tok and tok.kind == "SYM" and tok.text in "+-":
            self.advance()
            return ("unary", tok.text, self._unary())
        return self._primary()

    def _primary(self) -> tuple:
        tok = self.advance()
        if tok.kind == "INT":
            return ("int", int(tok.text))
        if tok.kind == "IDENT":
            return ("name", tok.text)
        if tok.kind == "SYM" and tok.text == "(":
            node = self._additive()
            closing = self.advance()
            if not (closing.kind == "SYM" and closing.text == ")"):
                raise PragmaError(f"missing ')' in expression in {self.source!r}")
            return node
        raise PragmaError(
            f"unexpected token {tok.text!r} at position {tok.pos} in {self.source!r}"
        )


def parse_expression(text: str) -> Expr:
    """Parse a standalone bound expression such as ``i+2*quarter-1``."""

    tokens = _tokenize(text)
    if not tokens:
        raise PragmaError("empty expression")
    parser = _ExprParser(tokens, text)
    ast = parser.parse()
    if parser.i != len(tokens):
        stray = tokens[parser.i]
        raise PragmaError(f"trailing input {stray.text!r} in expression {text!r}")
    return _expr(ast, text)


# ---------------------------------------------------------------------------
# Region specifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """One per-dimension region specifier (section V.A).

    Three surface forms, normalised here:

    * ``{l..u}``  -> ``lower``, ``upper`` set, ``is_length=False``
    * ``{l:L}``   -> ``lower`` set, ``upper`` holds the length,
      ``is_length=True``
    * ``{}``      -> ``full=True`` ("the dimension will be fully
      accessed")
    """

    full: bool = False
    lower: Optional[Expr] = None
    upper: Optional[Expr] = None
    is_length: bool = False

    def bounds(self, env: dict, extent: Optional[int] = None) -> tuple[int, int]:
        """Resolve to inclusive ``(lo, hi)`` bounds.

        *extent*, when known, resolves ``{}`` to ``(0, extent - 1)``;
        an unknown extent resolves to the sentinel ``(0, -1)`` meaning
        "whole dimension" (handled by :mod:`repro.core.regions`).
        """

        if self.full:
            if extent is None:
                return (0, -1)
            return (0, extent - 1)
        assert self.lower is not None and self.upper is not None
        lo = self.lower.evaluate(env)
        if self.is_length:
            length = self.upper.evaluate(env)
            if length < 0:
                raise PragmaError(f"negative region length {length}")
            return (lo, lo + length - 1)
        return (lo, self.upper.evaluate(env))

    def symbolic_bounds(self, env: dict, extent=None) -> Optional[tuple]:
        """Resolve bounds over an arbitrary arithmetic domain.

        Like :meth:`bounds`, but *env* values (and the returned pair)
        may be abstract — e.g. :class:`repro.check.intervals.Interval`
        objects standing for a summarized loop variable.  Returns
        ``None`` for ``{}`` with unknown extent ("the whole dimension").
        """

        if self.full:
            if extent is None:
                return None
            return (0, extent - 1)
        assert self.lower is not None and self.upper is not None
        lo = self.lower.evaluate_symbolic(env)
        if self.is_length:
            return (lo, lo + self.upper.evaluate_symbolic(env) - 1)
        return (lo, self.upper.evaluate_symbolic(env))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.full:
            return "{}"
        sep = ":" if self.is_length else ".."
        return "{%s%s%s}" % (self.lower, sep, self.upper)


# ---------------------------------------------------------------------------
# Parameter specs and the pragma itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One parameter appearance inside a directionality clause."""

    name: str
    direction: Direction
    #: dimension specifiers, outermost first (may be empty)
    dims: tuple[Expr, ...] = ()
    #: region specifiers, one per dimension (empty = whole object)
    regions: tuple[RegionSpec, ...] = ()

    @property
    def has_region(self) -> bool:
        return bool(self.regions)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "".join(f"[{d}]" for d in self.dims)
        regions = "".join(str(r) for r in self.regions)
        return f"{self.name}{dims}{regions}"


@dataclass
class ParsedPragma:
    """The full parsed clause list of one task construct."""

    params: list[ParamSpec] = field(default_factory=list)
    high_priority: bool = False
    source: str = ""

    def specs_for(self, name: str) -> list[ParamSpec]:
        return [p for p in self.params if p.name == name]


_DIRECTIONS = {
    "input": Direction.INPUT,
    "output": Direction.OUTPUT,
    "inout": Direction.INOUT,
    "opaque": Direction.OPAQUE,
}


class _PragmaParser(_Cursor):
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.what = f"pragma {text!r}"

    def expect_sym(self, sym: str) -> None:
        tok = self.advance()
        if not (tok.kind == "SYM" and tok.text == sym):
            raise PragmaError(
                f"expected {sym!r} at position {tok.pos} in pragma {self.text!r}, "
                f"got {tok.text!r}"
            )

    def parse(self) -> ParsedPragma:
        pragma = ParsedPragma(source=self.text)
        while self.peek() is not None:
            tok = self.advance()
            if tok.kind != "IDENT":
                raise PragmaError(
                    f"expected a clause name at position {tok.pos} in {self.text!r}"
                )
            word = tok.text
            if word == "highpriority":
                pragma.high_priority = True
                continue
            if word == "task":
                # Tolerate "task input(...)" so the full pragma line
                # ("#pragma css task ...") can be passed verbatim.
                continue
            if word == "css":
                continue
            if word not in _DIRECTIONS:
                raise PragmaError(
                    f"unknown clause {word!r} in pragma {self.text!r} "
                    f"(expected input/output/inout/opaque/highpriority)"
                )
            direction = _DIRECTIONS[word]
            self.expect_sym("(")
            pragma.params.extend(self._param_list(direction))
            self.expect_sym(")")
        self._validate(pragma)
        return pragma

    def _param_list(self, direction: Direction) -> Iterator[ParamSpec]:
        specs: list[ParamSpec] = []
        while True:
            specs.append(self._param(direction))
            tok = self.peek()
            if tok and tok.kind == "SYM" and tok.text == ",":
                self.advance()
                continue
            return specs

    def _param(self, direction: Direction) -> ParamSpec:
        tok = self.advance()
        if tok.kind != "IDENT":
            raise PragmaError(
                f"expected a parameter name at position {tok.pos} in {self.text!r}"
            )
        name = tok.text
        dims: list[Expr] = []
        while True:
            nxt = self.peek()
            if nxt and nxt.kind == "SYM" and nxt.text == "[":
                self.advance()
                dims.append(self._bounded_expr("]"))
            else:
                break
        regions: list[RegionSpec] = []
        while True:
            nxt = self.peek()
            if nxt and nxt.kind == "SYM" and nxt.text == "{":
                self.advance()
                regions.append(self._region())
            else:
                break
        return ParamSpec(name, direction, tuple(dims), tuple(regions))

    def _bounded_expr(self, closing: str) -> Expr:
        start = self.i
        parser = _ExprParser(self.tokens, self.text, start)
        ast = parser.parse()
        self.i = parser.i
        close_tok = self.advance()
        if not (close_tok.kind == "SYM" and close_tok.text == closing):
            raise PragmaError(
                f"expected {closing!r} at position {close_tok.pos} in {self.text!r}"
            )
        source = " ".join(t.text for t in self.tokens[start : self.i - 1])
        return _expr(ast, source)

    def _region(self) -> RegionSpec:
        tok = self.peek()
        if tok and tok.kind == "SYM" and tok.text == "}":
            self.advance()
            return RegionSpec(full=True)
        lower = self._region_expr()
        sep = self.advance()
        if sep.kind == "DOTDOT":
            upper = self._region_expr()
            self.expect_sym("}")
            return RegionSpec(lower=lower, upper=upper, is_length=False)
        if sep.kind == "SYM" and sep.text == ":":
            length = self._region_expr()
            self.expect_sym("}")
            return RegionSpec(lower=lower, upper=length, is_length=True)
        raise PragmaError(
            f"expected '..' or ':' in region specifier at position {sep.pos} "
            f"in {self.text!r}"
        )

    def _region_expr(self) -> Expr:
        start = self.i
        parser = _ExprParser(self.tokens, self.text, start)
        ast = parser.parse()
        self.i = parser.i
        source = " ".join(t.text for t in self.tokens[start : self.i])
        return _expr(ast, source)

    def _validate(self, pragma: ParsedPragma) -> None:
        directions: dict[str, set[Direction]] = {}
        for spec in pragma.params:
            directions.setdefault(spec.name, set()).add(spec.direction)
        for name, dirs in directions.items():
            if Direction.OPAQUE in dirs and len(dirs) > 1:
                raise PragmaError(
                    f"parameter {name!r} is opaque and also has a "
                    f"directionality clause in {self.text!r}"
                )
        # A parameter appearing several times must use regions for every
        # appearance (section V.A) — otherwise the appearances are
        # ambiguous duplicates.  The error names the parameter and the
        # clauses so the conflicting declarations are easy to find.
        appearances: dict[str, list] = {}
        for spec in pragma.params:
            appearances.setdefault(spec.name, []).append(spec)
        for name, specs in appearances.items():
            if len(specs) == 1 or all(s.has_region for s in specs):
                continue
            clauses = [s.direction.value for s in specs]
            if len(set(clauses)) == 1:
                times = "twice" if len(specs) == 2 else f"{len(specs)} times"
                where = f"{times} in the {clauses[0]!r} clause"
            else:
                listed = " and ".join(repr(c) for c in dict.fromkeys(clauses))
                where = f"in both the {listed} clauses"
            raise PragmaError(
                f"parameter {name!r} is listed {where} of {self.text!r}; "
                f"a parameter may appear in several directionality clauses "
                f"only when every appearance carries an array region "
                f"specifier"
            )
        for spec in pragma.params:
            if spec.regions and spec.dims and len(spec.regions) != len(spec.dims):
                raise PragmaError(
                    f"parameter {spec.name!r} has {len(spec.dims)} dimension "
                    f"specifiers but {len(spec.regions)} region specifiers "
                    f"in {self.text!r} (one region per dimension required)"
                )


def parse_pragma(text: str) -> ParsedPragma:
    """Parse the clause list of a ``#pragma css task`` construct.

    >>> p = parse_pragma("input(a, b) inout(c)")
    >>> [str(s) for s in p.params]
    ['a', 'b', 'c']
    >>> p = parse_pragma("inout(data{i..j}) input(i, j) highpriority")
    >>> p.high_priority
    True
    """

    return _PragmaParser(text).parse()
