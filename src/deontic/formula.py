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
shapes; only ``eval_bits`` has a case per connective.  Nodes are immutable
``__slots__`` objects that store their hash (see ``Formula``).

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
``parse`` reads this grammar in one loop by operator precedence, without
recursion, so it takes any nesting depth; the walkers that recurse (render,
equality, ``expand_pw``, ``eval_bits``) bound it at about 495 modal levels.
The loop reads the plain strings one word regex finds; a word's position is
computed only for a ``ParseError``, by lexing the text again.

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
from typing import Callable, Iterable, Mapping

__all__ = [
    "Formula", "Atom", "Top", "Bottom", "Unary", "Modal", "Binary",
    "Not", "And", "Or", "Implies", "Iff", "Obl", "PermS", "PermW", "TOP", "BOTTOM",
    "ParseError", "parse", "render", "formula_to_dict", "atoms", "bare_atoms", "modal_depth",
    "expand_pw", "flatten", "Schema", "schema", "match_schema", "instantiate",
    "eval_bits", "is_tautology", "tautological_consequence",
]


class Formula:
    """Base class for AST nodes: immutable, hashable and compared by value.

    A node is a ``__slots__`` object that stores its hash, computed once when it is built
    as the hash of the tuple of its fields, so hashing a formula never walks it.  ``==``
    checks class, identity and stored hash, and only then the fields, so shared subtrees
    compare at once.  ``__match_args__`` names the fields, which ``repr``, copy and pickle
    read; assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __init__(self) -> None:  # T and F have no fields
        _set_hash(self, hash(()))

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"formulas are immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return True if type(other) is type(self) else NotImplemented

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        return render(self)


_set_hash = Formula._hash.__set__  # __setattr__ raises: constructors set slots through these


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)
    __hash__ = Formula.__hash__  # a class that defines __eq__ inherits no __hash__
    tag = "atom"

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((name,)))

    def __eq__(self, other: object) -> bool:  # a name compares as fast as a hash
        return self.name == other.name if type(other) is type(self) else NotImplemented


class Top(Formula):
    __slots__ = ()
    symbol, tag = "T", "top"


class Bottom(Formula):
    __slots__ = ()
    symbol, tag = "F", "bottom"


class Unary(Formula):
    """A connective applied to one operand."""

    __slots__ = __match_args__ = ("operand",)
    __hash__ = Formula.__hash__

    def __init__(self, operand: Formula) -> None:
        _set_operand(self, operand)
        _set_hash(self, hash((operand,)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._hash == other._hash and self.operand == other.operand


class Not(Unary):
    __slots__ = ()
    symbol, tag = "~", "not"


class Modal(Unary):
    """A modal operator; the propositional abstraction treats its node as an opaque unit."""

    __slots__ = ()


class Obl(Modal):
    __slots__ = ()
    symbol = tag = "O"


class PermS(Modal):
    __slots__ = ()
    symbol = tag = "Ps"


class PermW(Modal):
    __slots__ = ()
    symbol = tag = "Pw"


class Binary(Formula):
    """A connective joining two operands; a higher ``prec`` binds tighter."""

    __slots__ = __match_args__ = ("left", "right")
    __hash__ = Formula.__hash__
    right_assoc = False

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self._hash == other._hash and self.left == other.left
                                 and self.right == other.right)


class And(Binary):
    __slots__ = ()
    symbol, tag, prec = "&", "and", 4


class Or(Binary):
    __slots__ = ()
    symbol, tag, prec = "|", "or", 3


class Implies(Binary):
    __slots__ = ()
    symbol, tag, prec, right_assoc = "->", "implies", 2, True


class Iff(Binary):
    __slots__ = ()
    symbol, tag, prec = "<->", "iff", 1


_set_name, _set_operand = Atom.name.__set__, Unary.operand.__set__
_set_left, _set_right = Binary.left.__set__, Binary.right.__set__
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


_ATOM = re.compile(r"[a-z][a-z0-9_]*")
# One word per match, whitespace skipped: a connective or parenthesis, a name (running to the
# first character not a letter, digit or _), or any other character.
_WORD = re.compile(r"<->|->|[&|~()]|[A-Za-z][A-Za-z0-9_]*|\S")
_KEYWORDS = frozenset((*_UNARY, *_BINARY, *_CONSTANTS, "(", ")"))


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each word of ``text`` with its position, then ``("", len(text))`` for the end.

    Raises on the first word that is no token: a name neither reserved nor an atom, or any
    other character.  ``parse`` reads words alone and calls this only to report an error.
    """
    out = []
    for m in _WORD.finditer(text):
        word = m[0]
        if word not in _KEYWORDS and not ("a" <= word[:1] <= "z" and word.islower()):
            if word[0].isascii() and word[0].isalpha():
                raise ParseError(f"invalid name {word!r}; atoms match {_ATOM.pattern}",
                                 m.start(), ("atom",))
            raise ParseError(f"unexpected character {word!r}", m.start())
        out.append((word, m.start()))
    out.append(("", len(text)))
    return out


_FORMULA_STARTERS = (*_UNARY, *_CONSTANTS, "atom", "(")
_PREFIX = frozenset(_UNARY.values())


def _unexpected(text: str, i: int, expected: tuple[str, ...], after: str = "") -> ParseError:
    """The error for the ``i``-th word of ``text``, which ``parse`` could not take, or for an
    invalid name or character anywhere in ``text``, which the whole text's lexing finds first."""
    word, pos = _tokenize(text)[i]
    what = f"token {word!r}{after}" if word else "end of input"
    return ParseError(f"unexpected {what}", pos, expected)


def parse(text: str) -> Formula:
    """Parse concrete syntax into the unique AST under the stated precedence.

    One loop, by operator precedence: ``pending`` holds the prefix and binary connectives
    not yet applied and None for each open parenthesis, ``lefts`` the left operand of each
    pending binary connective.  No recursion, so nesting depth is bounded only by memory.
    """
    words = _WORD.findall(text)
    words.append("")  # the end of input
    pending: list[type[Formula] | None] = []
    lefts: list[Formula] = []
    i = 0
    while True:
        word = words[i]
        i += 1
        if word in _UNARY or word == "(":
            pending.append(_UNARY.get(word))
            continue
        if "a" <= word[:1] <= "z" and word.islower():
            f = Atom(word)
        elif word in _CONSTANTS:
            f = _CONSTANTS[word]
        else:
            raise _unexpected(text, i - 1, _FORMULA_STARTERS)
        while True:  # f is a whole operand: apply its prefix connectives, then read what follows
            while pending and pending[-1] in _PREFIX:
                f = pending.pop()(f)
            word = words[i]
            i += 1
            op = _BINARY.get(word)
            if op is not None:
                while pending and pending[-1] is not None and (pending[-1].prec > op.prec or (
                        pending[-1].prec == op.prec and not op.right_assoc)):
                    f = pending.pop()(lefts.pop(), f)
                pending.append(op)
                lefts.append(f)
                break
            while pending and pending[-1] is not None:
                f = pending.pop()(lefts.pop(), f)
            if not pending:
                if not word:
                    return f
                raise _unexpected(text, i - 1, ("end of input",), " after formula")
            if word != ")":
                raise _unexpected(text, i - 1, (")",))
            pending.pop()


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
    """Rewrite every ``Pw x`` to ``~O~x``; the result contains no Pw node.

    Only the nodes above a ``Pw`` are rebuilt: every other subformula is shared with ``f``,
    and ``expand_pw(f) is f`` when ``f`` holds no Pw.
    """
    if isinstance(f, Binary):
        l, r = expand_pw(f.left), expand_pw(f.right)
        return f if l is f.left and r is f.right else type(f)(l, r)
    if isinstance(f, PermW):
        return Not(Obl(Not(expand_pw(f.operand))))
    if isinstance(f, Unary):
        x = expand_pw(f.operand)
        return f if x is f.operand else type(f)(x)
    if isinstance(f, (Atom, Top, Bottom)):
        return f
    raise TypeError(f"not a formula: {f!r}")


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
    match f:
        case Atom(name) if name in metavars:
            try:
                return subst[name]
            except KeyError:
                raise ValueError(f"substitution is missing metavariable {name!r}") from None
        case Unary(x):
            return type(f)(_substitute(x, metavars, subst))
        case Binary(l, r):
            return type(f)(_substitute(l, metavars, subst), _substitute(r, metavars, subst))
        case Atom() | Top() | Bottom():
            return f
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Propositional reasoning under modal abstraction

def eval_bits(f: Formula, leaf: Callable[[Formula], int], full: int) -> int:
    """Bitwise truth of ``f``: ``leaf(node)`` gives the mask of each atom and modal node.

    ``full`` is the all-true mask.  Truth sets on a model, schema validity
    on a frame and bit-parallel truth tables all evaluate through this walk.
    """
    # Tests of isinstance and type: a class pattern of ``match`` costs about twice as much.
    if isinstance(f, Binary):
        op, l, r = type(f), eval_bits(f.left, leaf, full), eval_bits(f.right, leaf, full)
        if op is And:
            return l & r
        if op is Or:
            return l | r
        if op is Implies:
            return (full ^ l) | r
        if op is Iff:
            return full ^ l ^ r
    elif isinstance(f, Not):
        return full ^ eval_bits(f.operand, leaf, full)
    elif isinstance(f, (Atom, Modal)):
        return leaf(f)
    elif isinstance(f, Top):
        return full
    elif isinstance(f, Bottom):
        return 0
    raise TypeError(f"not a formula: {f!r}")


_CHUNK_UNITS = 12  # units in one walk: 2^12 rows, ints of at most 512 bytes
_ALL_ROWS = (1 << (1 << _CHUNK_UNITS)) - 1
# Bit r of column i is bit i of r, so the twelve columns list every row of a 12-unit table.
_COLUMNS = [_ALL_ROWS - _ALL_ROWS // ((1 << (1 << i)) + 1) for i in range(_CHUNK_UNITS)]


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology check with maximal modal subformulas abstracted as atoms.

    Atoms and maximal modal subformulas are the units; syntactically identical ones share a
    unit.  Bit-parallel: one walk gives each unit a column of ``_COLUMNS`` when it is first
    met, so it evaluates 2^12 rows at once, with any unit past the twelfth false.  Only a
    formula with more units walks again, once per remaining assignment of those units; the
    first walk not all true ends the check.
    """
    cols: dict[Formula, int] = {}

    def leaf(unit: Formula) -> int:
        col = cols.get(unit)
        if col is None:
            col = cols[unit] = _COLUMNS[len(cols)] if len(cols) < _CHUNK_UNITS else 0
        return col

    if eval_bits(f, leaf, _ALL_ROWS) != _ALL_ROWS:
        return False
    rest = list(cols)[_CHUNK_UNITS:]
    for values in itertools.islice(itertools.product((0, _ALL_ROWS), repeat=len(rest)), 1, None):
        cols.update(zip(rest, values))
        if eval_bits(f, cols.__getitem__, _ALL_ROWS) != _ALL_ROWS:
            return False
    return True


def tautological_consequence(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """True iff (P1 & ... & Pn) -> conclusion is a tautology under the same abstraction."""
    ps = list(premises)
    if not ps:
        return is_tautology(conclusion)
    return is_tautology(Implies(reduce(And, ps), conclusion))
