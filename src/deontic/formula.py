"""Formula language for a bimodal deontic logic.

The AST covers the Boolean connectives plus three modal operators:
``O`` (obligation), ``Ps`` (strong permission), both box-like, and ``Pw``
(weak permission).  ``Pw`` is a first-class node with its own semantic
clause; ``expand_pw`` rewrites it to the equivalent ``~O~`` form when a
normalised view is needed (the proof checker uses this to treat the two
spellings interchangeably).

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
    "Formula", "Atom", "Top", "Bottom", "Not", "And", "Or", "Implies", "Iff",
    "Obl", "PermS", "PermW", "TOP", "BOTTOM",
    "ParseError", "parse", "render", "formula_to_dict", "atoms", "modal_depth", "expand_pw",
    "Schema", "schema", "match_schema", "instantiate",
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


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Obl(Formula):
    operand: Formula


@dataclass(frozen=True)
class PermS(Formula):
    operand: Formula


@dataclass(frozen=True)
class PermW(Formula):
    operand: Formula


TOP = Top()
BOTTOM = Bottom()


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
_RESERVED = ("O", "Ps", "Pw", "T", "F")


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, word, i = m.lastgroup, m.group(), m.start()
        if kind == "op" or word in _RESERVED:
            out.append(_Token(word, word, i))
        elif kind == "other":
            raise ParseError(f"unexpected character {word!r}", i)
        elif _ATOM.fullmatch(word):
            out.append(_Token("atom", word, i))
        else:
            raise ParseError(f"invalid name {word!r}; atoms match [a-z][a-z0-9_]*", i, ("atom",))
    out.append(_Token("end", "", len(text)))
    return out


_FORMULA_STARTERS = ("~", "O", "Ps", "Pw", "T", "F", "atom", "(")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def iff(self) -> Formula:
        f = self.impl()
        while self.peek().kind == "<->":
            self.take()
            f = Iff(f, self.impl())
        return f

    def impl(self) -> Formula:
        f = self.disj()
        if self.peek().kind == "->":
            self.take()
            return Implies(f, self.impl())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.unary())
        if tok.kind == "O":
            self.take()
            return Obl(self.unary())
        if tok.kind == "Ps":
            self.take()
            return PermS(self.unary())
        if tok.kind == "Pw":
            self.take()
            return PermW(self.unary())
        if tok.kind == "T":
            self.take()
            return TOP
        if tok.kind == "F":
            self.take()
            return BOTTOM
        if tok.kind == "atom":
            self.take()
            return Atom(tok.text)
        if tok.kind == "(":
            self.take()
            f = self.iff()
            closing = self.peek()
            if closing.kind != ")":
                if closing.kind == "end":
                    raise ParseError("unexpected end of input", closing.pos, (")",))
                raise ParseError(f"unexpected token {closing.text!r}", closing.pos, (")",))
            self.take()
            return f
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos, _FORMULA_STARTERS)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos, _FORMULA_STARTERS)


def parse(text: str) -> Formula:
    """Parse concrete syntax into the unique AST under the stated precedence."""
    p = _Parser(_tokenize(text))
    f = p.iff()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected token {trailing.text!r} after formula", trailing.pos, ("end of input",)
        )
    return f


# ---------------------------------------------------------------------------
# Rendering

_PREC_IFF, _PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def render(f: Formula) -> str:
    """Minimal-parenthesis text; ``parse(render(f)) == f``."""
    return _render(f, 0)


def _wrap(s: str, prec: int, ctx: int) -> str:
    return f"({s})" if prec < ctx else s


def _mod_operand(x: Formula) -> str:
    s = _render(x, _PREC_UNARY)
    return s if s.startswith("(") else " " + s


def _render(f: Formula, ctx: int) -> str:
    match f:
        case Atom(name):
            return name
        case Top():
            return "T"
        case Bottom():
            return "F"
        case Not(x):
            return "~" + _render(x, _PREC_UNARY)
        case Obl(x):
            return "O" + _mod_operand(x)
        case PermS(x):
            return "Ps" + _mod_operand(x)
        case PermW(x):
            return "Pw" + _mod_operand(x)
        case And(l, r):
            return _wrap(_render(l, _PREC_AND) + " & " + _render(r, _PREC_AND + 1), _PREC_AND, ctx)
        case Or(l, r):
            return _wrap(_render(l, _PREC_OR) + " | " + _render(r, _PREC_OR + 1), _PREC_OR, ctx)
        case Implies(l, r):
            return _wrap(
                _render(l, _PREC_IMPL + 1) + " -> " + _render(r, _PREC_IMPL), _PREC_IMPL, ctx
            )
        case Iff(l, r):
            return _wrap(_render(l, _PREC_IFF) + " <-> " + _render(r, _PREC_IFF + 1), _PREC_IFF, ctx)
    raise TypeError(f"not a formula: {f!r}")


_DICT_OPS = {Not: "not", And: "and", Or: "or", Implies: "implies", Iff: "iff",
             Obl: "O", PermS: "Ps", PermW: "Pw"}


def formula_to_dict(f: Formula) -> dict:
    """JSON form of the AST: ``{"op", "args"}`` nodes, atoms as ``{"op": "atom", "name"}``."""
    match f:
        case Atom(name):
            return {"op": "atom", "name": name}
        case Top():
            return {"op": "top"}
        case Bottom():
            return {"op": "bottom"}
        case Not(x) | Obl(x) | PermS(x) | PermW(x):
            return {"op": _DICT_OPS[type(f)], "args": [formula_to_dict(x)]}
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return {"op": _DICT_OPS[type(f)], "args": [formula_to_dict(l), formula_to_dict(r)]}
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Structural helpers

def atoms(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in ``f``."""
    match f:
        case Atom(name):
            return frozenset((name,))
        case Top() | Bottom():
            return frozenset()
        case Not(x) | Obl(x) | PermS(x) | PermW(x):
            return atoms(x)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return atoms(l) | atoms(r)
    raise TypeError(f"not a formula: {f!r}")


def modal_depth(f: Formula) -> int:
    """Maximum nesting of modal operators."""
    match f:
        case Atom() | Top() | Bottom():
            return 0
        case Not(x):
            return modal_depth(x)
        case Obl(x) | PermS(x) | PermW(x):
            return 1 + modal_depth(x)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return max(modal_depth(l), modal_depth(r))
    raise TypeError(f"not a formula: {f!r}")


def expand_pw(f: Formula) -> Formula:
    """Rewrite every ``Pw x`` to ``~O~x``; the result contains no Pw node."""
    match f:
        case Atom() | Top() | Bottom():
            return f
        case Not(x):
            return Not(expand_pw(x))
        case And(l, r):
            return And(expand_pw(l), expand_pw(r))
        case Or(l, r):
            return Or(expand_pw(l), expand_pw(r))
        case Implies(l, r):
            return Implies(expand_pw(l), expand_pw(r))
        case Iff(l, r):
            return Iff(expand_pw(l), expand_pw(r))
        case Obl(x):
            return Obl(expand_pw(x))
        case PermS(x):
            return PermS(expand_pw(x))
        case PermW(x):
            return Not(Obl(Not(expand_pw(x))))
    raise TypeError(f"not a formula: {f!r}")


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

    def walk(pat: Formula, tgt: Formula) -> bool:
        match pat:
            case Atom(name) if name in s.metavars:
                seen = binding.get(name)
                if seen is None:
                    binding[name] = tgt
                    return True
                return seen == tgt
            case Atom() | Top() | Bottom():
                return pat == tgt
            case Not(x):
                return isinstance(tgt, Not) and walk(x, tgt.operand)
            case Obl(x):
                return isinstance(tgt, Obl) and walk(x, tgt.operand)
            case PermS(x):
                return isinstance(tgt, PermS) and walk(x, tgt.operand)
            case PermW(x):
                return isinstance(tgt, PermW) and walk(x, tgt.operand)
            case And(l, r):
                return isinstance(tgt, And) and walk(l, tgt.left) and walk(r, tgt.right)
            case Or(l, r):
                return isinstance(tgt, Or) and walk(l, tgt.left) and walk(r, tgt.right)
            case Implies(l, r):
                return isinstance(tgt, Implies) and walk(l, tgt.left) and walk(r, tgt.right)
            case Iff(l, r):
                return isinstance(tgt, Iff) and walk(l, tgt.left) and walk(r, tgt.right)
        raise TypeError(f"not a formula: {pat!r}")

    return dict(binding) if walk(s.body, f) else None


def instantiate(s: Schema, subst: Mapping[str, Formula]) -> Formula:
    """Homomorphic replacement of metavariables; raises on a missing binding."""

    def walk(f: Formula) -> Formula:
        match f:
            case Atom(name) if name in s.metavars:
                try:
                    return subst[name]
                except KeyError:
                    raise ValueError(f"substitution is missing metavariable {name!r}") from None
            case Atom() | Top() | Bottom():
                return f
            case Not(x):
                return Not(walk(x))
            case And(l, r):
                return And(walk(l), walk(r))
            case Or(l, r):
                return Or(walk(l), walk(r))
            case Implies(l, r):
                return Implies(walk(l), walk(r))
            case Iff(l, r):
                return Iff(walk(l), walk(r))
            case Obl(x):
                return Obl(walk(x))
            case PermS(x):
                return PermS(walk(x))
            case PermW(x):
                return PermW(walk(x))
        raise TypeError(f"not a formula: {f!r}")

    return walk(s.body)


# ---------------------------------------------------------------------------
# Propositional reasoning under modal abstraction

def _abstraction_units(f: Formula, acc: dict[Formula, None]) -> None:
    # Maximal modal subformulas and atoms become the propositional alphabet;
    # syntactically identical modal subformulas share one unit.
    match f:
        case Atom() | Obl() | PermS() | PermW():
            acc.setdefault(f)
        case Top() | Bottom():
            pass
        case Not(x):
            _abstraction_units(x, acc)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            _abstraction_units(l, acc)
            _abstraction_units(r, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def eval_bits(f: Formula, leaf: Callable[[Formula], int], full: int) -> int:
    """Bitwise truth of ``f``: ``leaf(node)`` gives the mask of each atom and modal node.

    ``full`` is the all-true mask.  Truth sets on a model, schema validity
    on a frame and bit-parallel truth tables all evaluate through this walk.
    """
    match f:
        case Atom() | Obl() | PermS() | PermW():
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
