"""Formula language for a bimodal deontic logic.

The AST covers the Boolean connectives plus three modal operators:
``O`` (obligation), ``Ps`` (strong permission), both box-like, and ``Pw``
(weak permission).  ``Pw`` is a first-class node with its own semantic
clause; ``expand_pw`` rewrites it to the equivalent ``~O~`` form when a
normalised view is needed (the proof checker uses this to treat the two
spellings interchangeably).

The node classes are the connective table.  Each states its ``symbol``
and its JSON ``tag`` once; each ``Binary`` class also states its ``prec``
and whether it is ``right_assoc``.  ``Not`` is ``Unary``, the three modal
operators are ``Modal`` (a ``Unary``).  The parser, the renderer, the JSON
form and the structural walkers read the table and dispatch on these
shapes; only ``eval_bits`` has a case per connective.

Concrete syntax (ASCII)::

    formula := iff
    iff     := impl ("<->" impl)*          left associative
    impl    := disj ("->" impl)?           right associative
    disj    := conj ("|" conj)*            left associative
    conj    := unary ("&" unary)*          left associative
    unary   := "~" unary | "O" unary | "Ps" unary | "Pw" unary
             | atom | "T" | "F" | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

``O``, ``Ps``, ``Pw``, ``T`` and ``F`` are reserved and not valid atoms.

``eval_bits`` is the one Boolean evaluator: it computes a formula's truth
as a bitmask, one bit per world or per truth-table row, and asks a
caller-supplied ``leaf`` for the mask of each atom and modal node.
``is_tautology`` uses it for bit-parallel truth tables, ``model.truth_mask``
for truth sets and schema validity.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple

__all__ = [
    "Formula", "Atom", "Top", "Bottom", "Unary", "Modal", "Binary",
    "Not", "And", "Or", "Implies", "Iff", "Obl", "PermS", "PermW", "TOP", "BOTTOM",
    "ParseError", "parse", "render", "formula_to_dict", "atoms", "bare_atoms", "modal_depth",
    "expand_pw", "flatten", "Schema", "schema", "match_schema", "instantiate",
    "eval_bits", "is_tautology", "tautological_consequence",
]


class Formula:
    """Base class for AST nodes; all nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    tag = "atom"


@dataclass(frozen=True)
class Top(Formula):
    symbol, tag = "T", "top"


@dataclass(frozen=True)
class Bottom(Formula):
    symbol, tag = "F", "bottom"


@dataclass(frozen=True)
class Unary(Formula):
    """A connective applied to one operand."""

    operand: Formula


class Not(Unary):
    symbol, tag = "~", "not"


class Modal(Unary):
    """A modal operator; the propositional abstraction treats its node as an opaque unit."""


class Obl(Modal):
    symbol = tag = "O"


class PermS(Modal):
    symbol = tag = "Ps"


class PermW(Modal):
    symbol = tag = "Pw"


@dataclass(frozen=True)
class Binary(Formula):
    """A connective joining two operands; a higher ``prec`` binds tighter."""

    left: Formula
    right: Formula
    right_assoc = False


class And(Binary):
    symbol, tag, prec = "&", "and", 4


class Or(Binary):
    symbol, tag, prec = "|", "or", 3


class Implies(Binary):
    symbol, tag, prec, right_assoc = "->", "implies", 2, True


class Iff(Binary):
    symbol, tag, prec = "<->", "iff", 1


TOP = Top()
BOTTOM = Bottom()

_UNARY = {c.symbol: c for c in (Not, Obl, PermS, PermW)}
_BINARY = {c.symbol: c for c in (Iff, Implies, Or, And)}
_CONSTANTS = {f.symbol: f for f in (TOP, BOTTOM)}
_PREC_UNARY = 1 + max(c.prec for c in _BINARY.values())  # operands of unary connectives


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    """Syntax error with the offending position and the expected tokens."""

    def __init__(self, message: str, position: int, expected: Iterable[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# One token per match, whitespace skipped: an operator, a name, or any other character.
_TOKEN = re.compile(r"(?P<op><->|->|[&|~()])|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<other>\S)")
_ATOM = re.compile(r"[a-z][a-z0-9_]*")


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, word, i = m.lastgroup, m.group(), m.start()
        if kind == "op" or word in _UNARY or word in _CONSTANTS:
            out.append(_Token(word, word, i))
        elif kind == "other":
            raise ParseError(f"unexpected character {word!r}", i)
        elif _ATOM.fullmatch(word):
            out.append(_Token("atom", word, i))
        else:
            raise ParseError(f"invalid name {word!r}; atoms match [a-z][a-z0-9_]*", i, ("atom",))
    out.append(_Token("end", "", len(text)))
    return out


_FORMULA_STARTERS = (*_UNARY, *_CONSTANTS, "atom", "(")


def _unexpected(tok: _Token, expected: tuple[str, ...]) -> ParseError:
    what = "end of input" if tok.kind == "end" else f"token {tok.text!r}"
    return ParseError(f"unexpected {what}", tok.pos, expected)


class _Parser:
    """Precedence climbing: ``expr(p)`` reads binary connectives of ``prec`` at least ``p``."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self, min_prec: int = 1) -> Formula:
        f = self.unary()
        while (op := _BINARY.get(self.peek().kind)) and op.prec >= min_prec:
            self.take()
            f = op(f, self.expr(op.prec if op.right_assoc else op.prec + 1))
        return f

    def unary(self) -> Formula:
        tok = self.take()
        if tok.kind in _UNARY:
            return _UNARY[tok.kind](self.unary())
        if tok.kind in _CONSTANTS:
            return _CONSTANTS[tok.kind]
        if tok.kind == "atom":
            return Atom(tok.text)
        if tok.kind == "(":
            f = self.expr()
            closing = self.take()
            if closing.kind != ")":
                raise _unexpected(closing, (")",))
            return f
        raise _unexpected(tok, _FORMULA_STARTERS)


def parse(text: str) -> Formula:
    """Parse concrete syntax into the unique AST under the stated precedence."""
    p = _Parser(_tokenize(text))
    f = p.expr()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected token {trailing.text!r} after formula", trailing.pos, ("end of input",)
        )
    return f


# ---------------------------------------------------------------------------
# Rendering

def render(f: Formula) -> str:
    """Minimal-parenthesis text; ``parse(render(f)) == f``."""
    return _render(f, 0)


def _mod_operand(x: Formula) -> str:
    s = _render(x, _PREC_UNARY)
    return s if s.startswith("(") else " " + s


def _render(f: Formula, ctx: int) -> str:
    match f:
        case Atom(name):
            return name
        case Top() | Bottom():
            return f.symbol
        case Modal(x):
            return f.symbol + _mod_operand(x)
        case Unary(x):
            return f.symbol + _render(x, _PREC_UNARY)
        case Binary(l, r):
            # Only the operand on the associative side may share the connective's precedence.
            p = f.prec
            lp, rp = (p + 1, p) if f.right_assoc else (p, p + 1)
            s = f"{_render(l, lp)} {f.symbol} {_render(r, rp)}"
            return f"({s})" if p < ctx else s
    raise TypeError(f"not a formula: {f!r}")


def formula_to_dict(f: Formula) -> dict:
    """JSON form of the AST: ``{"op", "args"}`` nodes, atoms as ``{"op": "atom", "name"}``."""
    args = list(map(formula_to_dict, _children(f)))  # first: a non-formula raises TypeError here
    if isinstance(f, Atom):
        return {"op": f.tag, "name": f.name}
    return {"op": f.tag, "args": args} if args else {"op": f.tag}


# ---------------------------------------------------------------------------
# Structural helpers

def _children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Unary(x):
            return (x,)
        case Binary(l, r):
            return (l, r)
        case Atom() | Top() | Bottom():
            return ()
    raise TypeError(f"not a formula: {f!r}")


def _rebuild(f: Formula, walk: Callable[..., Formula], *args) -> Formula:
    """``f`` with ``walk(x, *args)`` applied to each direct subformula x."""
    match f:
        case Unary(x):
            return type(f)(walk(x, *args))
        case Binary(l, r):
            return type(f)(walk(l, *args), walk(r, *args))
        case Atom() | Top() | Bottom():
            return f
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in ``f``."""
    names, todo = set(), [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        else:
            todo += _children(g)
    return frozenset(names)


def bare_atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms with an occurrence outside every modal operator."""
    names, todo = set(), [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Atom):
            names.add(g.name)
        elif not isinstance(g, Modal):
            todo += _children(g)
    return frozenset(names)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of modal operators."""
    depth = 0
    for x in _children(f):
        depth = max(depth, modal_depth(x))
    return depth + isinstance(f, Modal)


def expand_pw(f: Formula) -> Formula:
    """Rewrite every ``Pw x`` to ``~O~x``; the result contains no Pw node."""
    if isinstance(f, PermW):
        return Not(Obl(Not(expand_pw(f.operand))))
    return _rebuild(f, expand_pw)


def flatten(f: Formula, op: type[Binary]) -> list[Formula]:
    """Operands of the ``op`` chain at the top of ``f``: ``flatten(a | (b | c), Or) == [a, b, c]``."""
    return flatten(f.left, op) + flatten(f.right, op) if isinstance(f, op) else [f]


# ---------------------------------------------------------------------------
# Schemata

@dataclass(frozen=True)
class Schema:
    """A formula whose atoms are split into metavariables and concrete atoms.

    Metavariables range over arbitrary formulas, so instances may plug in
    compound formulas.
    """

    body: Formula
    metavars: frozenset[str]


def schema(text: str, metavars: str | Iterable[str]) -> Schema:
    names = tuple(metavars.split()) if isinstance(metavars, str) else tuple(metavars)
    return Schema(parse(text), frozenset(names))


def match_schema(s: Schema, f: Formula) -> dict[str, Formula] | None:
    """Purely syntactic matching: a substitution with instantiate(s, .) == f, or None."""
    binding: dict[str, Formula] = {}
    return binding if _match(s.body, f, s.metavars, binding) else None


def _match(pat: Formula, tgt: Formula, metavars: frozenset[str],
           binding: dict[str, Formula]) -> bool:
    # Module-level rather than a closure over the binding: a nested walker that calls itself
    # holds its own cell, a reference cycle left for the cyclic collector on every call.
    match pat:
        case Atom(name) if name in metavars:
            seen = binding.get(name)
            if seen is None:
                binding[name] = tgt
                return True
            return seen == tgt
        case Unary(x):
            return type(pat) is type(tgt) and _match(x, tgt.operand, metavars, binding)
        case Binary(l, r):
            return (type(pat) is type(tgt) and _match(l, tgt.left, metavars, binding)
                    and _match(r, tgt.right, metavars, binding))
        case Atom() | Top() | Bottom():
            return pat == tgt
    raise TypeError(f"not a formula: {pat!r}")


def instantiate(s: Schema, subst: Mapping[str, Formula]) -> Formula:
    """Homomorphic replacement of metavariables; raises on a missing binding."""
    return _substitute(s.body, s.metavars, subst)


def _substitute(f: Formula, metavars: frozenset[str], subst: Mapping[str, Formula]) -> Formula:
    if isinstance(f, Atom) and f.name in metavars:
        try:
            return subst[f.name]
        except KeyError:
            raise ValueError(f"substitution is missing metavariable {f.name!r}") from None
    return _rebuild(f, _substitute, metavars, subst)


# ---------------------------------------------------------------------------
# Propositional reasoning under modal abstraction

def _abstraction_units(f: Formula, acc: dict[Formula, None]) -> None:
    # Maximal modal subformulas and atoms become the propositional alphabet;
    # syntactically identical modal subformulas share one unit.
    match f:
        case Atom() | Modal():
            acc.setdefault(f)
        case _:
            for x in _children(f):
                _abstraction_units(x, acc)


def eval_bits(f: Formula, leaf: Callable[[Formula], int], full: int) -> int:
    """Bitwise truth of ``f``: ``leaf(node)`` gives the mask of each atom and modal node.

    ``full`` is the all-true mask.  Truth sets on a model, schema validity
    on a frame and bit-parallel truth tables all evaluate through this walk.
    """
    match f:
        case Atom() | Modal():
            return leaf(f)
        case Top():
            return full
        case Bottom():
            return 0
        case Not(x):
            return full ^ eval_bits(x, leaf, full)
        case And(l, r):
            return eval_bits(l, leaf, full) & eval_bits(r, leaf, full)
        case Or(l, r):
            return eval_bits(l, leaf, full) | eval_bits(r, leaf, full)
        case Implies(l, r):
            return (full ^ eval_bits(l, leaf, full)) | eval_bits(r, leaf, full)
        case Iff(l, r):
            return full ^ eval_bits(l, leaf, full) ^ eval_bits(r, leaf, full)
    raise TypeError(f"not a formula: {f!r}")


_CHUNK_UNITS = 12  # units packed into one walk: 2^12 rows, ints of at most 512 bytes


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology check with maximal modal subformulas abstracted as atoms.

    Bit-parallel: bit r of unit i's column is bit i of r, so one walk evaluates 2^12 rows.
    Units past the first 12 are fixed per chunk; the first chunk not all true ends the check.
    """
    units: dict[Formula, None] = {}
    _abstraction_units(f, units)
    keys = list(units)
    full = (1 << (1 << min(len(keys), _CHUNK_UNITS))) - 1
    cols = {u: full - full // ((1 << (1 << i)) + 1) for i, u in enumerate(keys[:_CHUNK_UNITS])}
    for values in itertools.product((0, full), repeat=len(keys[_CHUNK_UNITS:])):
        cols.update(zip(keys[_CHUNK_UNITS:], values))
        if eval_bits(f, cols.__getitem__, full) != full:
            return False
    return True


def tautological_consequence(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """True iff (P1 & ... & Pn) -> conclusion is a tautology under the same abstraction."""
    ps = list(premises)
    if not ps:
        return is_tautology(conclusion)
    return is_tautology(Implies(reduce(And, ps), conclusion))
