import copy
import itertools
import pickle
import re
import time
from functools import reduce
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deontic import (
    BOTTOM, And, Atom, Bottom, Formula, Iff, Implies, Not, Obl, Or, ParseError,
    PermS, PermW, Schema, TOP, Top, atoms, expand_pw, instantiate, is_tautology,
    match_schema, modal_depth, parse, render, schema, tautological_consequence,
)
from deontic.formula import bare_atoms, flatten, formula_to_dict
from deontic.systems import SCHEMAS

from conftest import formulas

p, q, a, b = Atom("p"), Atom("q"), Atom("a"), Atom("b")


class TestParse:
    def test_modal_conjunction(self):
        assert parse("Ps(p | q) & O ~p") == And(PermS(Or(p, q)), Obl(Not(p)))

    def test_distribution_shape(self):
        assert parse("O(a & b) -> O a & O b") == Implies(
            Obl(And(a, b)), And(Obl(a), Obl(b))
        )

    def test_incomplete_input(self):
        with pytest.raises(ParseError) as exc:
            parse("p ->")
        assert exc.value.position == 4
        assert exc.value.expected

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("Ps(p|q")

    def test_reserved_words_are_not_atoms(self):
        with pytest.raises(ParseError):
            parse("Obj")  # uppercase-led identifier that is not an operator

    def test_precedence(self):
        assert parse("~p & q | r -> s <-> t") == Iff(
            Implies(Or(And(Not(p), q), Atom("r")), Atom("s")), Atom("t")
        )

    def test_implication_right_associative(self):
        f = parse("a -> b -> a")
        assert f == Implies(a, Implies(b, a))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("p q")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p <- q", "unexpected character '<' at position 2"),
            ("p\t- q", "unexpected character '-' at position 2"),
            ("p & Abc", "invalid name 'Abc'; atoms match [a-z][a-z0-9_]* at position 4 (expected atom)"),
            ("  <->p", "unexpected token '<->' at position 2"),
            ("Ps p T", "unexpected token 'T' after formula at position 5 (expected end of input)"),
            ("p_1 -> ", "unexpected end of input at position 7"),
        ],
    )
    def test_error_messages_and_positions(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value).startswith(message)

    def test_400_nested_parentheses(self):
        assert parse("(" * 400 + "a" + ")" * 400) == Atom("a")

    def test_3000_nested_parentheses(self):
        # The parser keeps open parentheses on a list, not on the call stack.
        assert parse("(" * 3000 + "a" + ")" * 3000) == Atom("a")


# Reference for parse: the recursive-descent parser with one method per
# precedence level, over its own lexer (the group of each match gives the
# token's kind), independent of the word regex parse reads.

class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# One token per match, whitespace skipped.  The group that matched gives the kind: 1 a
# connective, parenthesis or reserved word (its own kind), 2 an atom, 3 any other name,
# 4 any other character.  A name runs to the first character not a letter, digit or _.
_TOKEN = re.compile(r"(<->|->|[&|~()]|(?:O|Ps|Pw|T|F)(?![A-Za-z0-9_]))"
                    r"|([a-z][a-z0-9_]*)(?![A-Za-z0-9_])|([A-Za-z][A-Za-z0-9_]*)|(\S)")


def _tokenize(text: str) -> list[_Token]:
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            out.append(_Token(m[1], m[1], m.start()))
        elif group == 2:
            out.append(_Token("atom", m[2], m.start()))
        elif group == 3:
            raise ParseError(f"invalid name {m[3]!r}; atoms match [a-z][a-z0-9_]*", m.start(),
                             ("atom",))
        else:
            raise ParseError(f"unexpected character {m[4]!r}", m.start())
    out.append(_Token("end", "", len(text)))
    return out


_ORACLE_STARTERS = ("~", "O", "Ps", "Pw", "T", "F", "atom", "(")


class _OracleParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def iff(self):
        f = self.impl()
        while self.peek().kind == "<->":
            self.take()
            f = Iff(f, self.impl())
        return f

    def impl(self):
        f = self.disj()
        if self.peek().kind == "->":
            self.take()
            return Implies(f, self.impl())
        return f

    def disj(self):
        f = self.conj()
        while self.peek().kind == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self):
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
            raise ParseError("unexpected end of input", tok.pos, _ORACLE_STARTERS)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos, _ORACLE_STARTERS)


def _oracle_parse(text: str) -> Formula:
    p = _OracleParser(_tokenize(text))
    f = p.iff()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected token {trailing.text!r} after formula", trailing.pos, ("end of input",)
        )
    return f


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.position, exc.expected


_VOCAB = st.sampled_from(["~", "O", "Ps", "Pw", "T", "F", "a", "b", "p_1", "(", ")", "&", "|",
                          "->", "<->", "<", "-", "Abc", "#", "aB", "Psx", "O1", "1", "_x", "é"])
_TEXT_FORMULAS = formulas(max_leaves=12)
_RANDOM_TOKENS = st.lists(_VOCAB, max_size=20)
_NESTING = st.integers(0, 60)
_ONE_IN_FOUR = st.integers(0, 3).map(lambda n: n == 0)


@st.composite
def formula_texts(draw):
    """Token strings: a rendered formula or random tokens, each time with a token dropped
    or inserted one in four, inside up to 60 parentheses, unbalanced one in four.  One in
    four is joined without spaces, so neighbours may merge (``O`` ``a`` gives ``Oa``)."""
    if draw(st.booleans()):
        tokens = [t.text for t in _tokenize(render(draw(_TEXT_FORMULAS)))[:-1]]
    else:
        tokens = draw(_RANDOM_TOKENS)
    if tokens and draw(_ONE_IN_FOUR):
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    if draw(_ONE_IN_FOUR):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_VOCAB))
    opening = draw(_NESTING)
    closing = draw(_NESTING) if draw(_ONE_IN_FOUR) else opening
    return ("" if draw(_ONE_IN_FOUR) else " ").join(["("] * opening + tokens + [")"] * closing)


class TestParseOracle:
    """parse against the recursive-descent reference: the same AST or the same error."""

    @settings(max_examples=250, deadline=None)
    @given(formula_texts())
    def test_agrees_with_recursive_descent(self, text):
        assert _outcome(parse, text) == _outcome(_oracle_parse, text)


class TestRender:
    def test_negated_obligation(self):
        assert render(Obl(Not(p))) == "O ~p"

    def test_mixed(self):
        assert render(And(PermS(Or(p, q)), Obl(Not(p)))) == "Ps(p | q) & O ~p"

    def test_constants(self):
        assert render(Iff(TOP, TOP)) == "T <-> T"

    def test_nested_implications(self):
        assert render(Implies(Implies(a, b), a)) == "(a -> b) -> a"
        assert render(Implies(a, Implies(b, a))) == "a -> b -> a"

    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_round_trip(self, f):
        assert parse(render(f)) == f


class TestExpandPw:
    def test_single(self):
        assert expand_pw(PermW(p)) == parse("~O~p")

    def test_no_pw(self):
        assert expand_pw(Obl(p)) == Obl(p)

    def test_nested(self):
        assert expand_pw(PermW(PermW(q))) == parse("~O~(~O~q)")

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_fixpoint_has_no_pw(self, f):
        out = expand_pw(f)
        assert "Pw" not in render(out)
        assert expand_pw(out) == out


def _subformulas(f):
    yield f
    for name in f.__match_args__:
        child = getattr(f, name)
        if isinstance(child, Formula):
            yield from _subformulas(child)


class TestNodeContract:
    """Nodes store the hash of their fields' tuple, refuse assignment, and copy and pickle by
    value."""

    @settings(max_examples=100, deadline=None)
    @given(formulas())
    def test_hash_is_the_hash_of_the_fields(self, f):
        for g in _subformulas(f):
            assert hash(g) == hash(tuple(getattr(g, name) for name in g.__match_args__))

    def test_assigning_an_attribute_raises(self):
        f = And(Not(a), PermW(TOP))
        for node, name in ((f, "left"), (f.left, "operand"), (a, "name"), (TOP, "tag"),
                           (f, "_hash"), (f, "extra")):
            with pytest.raises(AttributeError):
                setattr(node, name, b)
        with pytest.raises(AttributeError):
            del f.right
        assert f == And(Not(Atom("a")), PermW(Top())) and a == Atom("a")

    @settings(max_examples=100, deadline=None)
    @given(formulas())
    def test_copy_deepcopy_and_pickle_give_equal_nodes(self, f):
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is type(f) and g == f and hash(g) == hash(f)
            assert render(g) == render(f)

    @settings(max_examples=100, deadline=None)
    @given(formulas())
    def test_expand_pw_returns_a_formula_without_pw_itself(self, f):
        out = expand_pw(f)
        assert expand_pw(out) is out
        if not any(isinstance(g, PermW) for g in _subformulas(f)):
            assert out is f

    def test_expand_pw_shares_the_subtrees_it_leaves(self):
        big = parse("O(a & b) -> Ps(a | ~b)")
        out = expand_pw(And(big, PermW(p)))
        assert out.left is big and out == And(big, parse("~O~p"))


class TestSchema:
    def test_match_distribution(self):
        assert match_schema(SCHEMAS["M_O"], parse("O(a & b) -> O a & O b")) == {"p": a, "q": b}

    def test_match_guarded_axiom(self):
        got = match_schema(
            SCHEMAS["AFCP_O"], parse("Ps(refund | exchange) & O ~refund -> Ps exchange")
        )
        assert got == {"p": Atom("refund"), "q": Atom("exchange")}

    def test_match_shape_mismatch(self):
        assert match_schema(SCHEMAS["M_O"], parse("O a -> O a")) is None

    def test_match_requires_consistent_binding(self):
        s = schema("O p -> Ps p", "p")
        assert match_schema(s, parse("O a -> Ps b")) is None

    def test_instantiate_consistency_axiom(self):
        got = instantiate(SCHEMAS["D_s"], {"p": Atom("e")})
        assert got == parse("O e & Ps ~e -> F")
        assert render(got) == "O e & Ps ~e -> F"

    def test_instantiate_without_metavars(self):
        s = schema("O a -> O a", ())
        assert instantiate(s, {}) == parse("O a -> O a")

    def test_instantiate_two_vars(self):
        got = instantiate(SCHEMAS["AFCP_P"], {"p": a, "q": Atom("c")})
        assert got == parse("(Ps(a | c) & Pw a & Pw c) -> Ps a & Ps c")

    def test_instantiate_missing_binding(self):
        with pytest.raises(ValueError, match="metavariable"):
            instantiate(SCHEMAS["M_O"], {"p": a})

    @settings(max_examples=200, deadline=None)
    @given(formulas(atom_names="pqab"))
    def test_match_then_instantiate_is_identity(self, f):
        s = Schema(f, frozenset({"p", "q"}))
        sigma = match_schema(s, f)
        assert sigma is not None
        assert instantiate(s, sigma) == f


class TestTautology:
    def test_guarded_reduction_instance(self):
        assert is_tautology(parse("(Ps(p | q) & (Ps p & Ps q)) -> (Ps p & Ps q)"))
        assert is_tautology(parse("Ps(p | q) & Ps p & Ps q -> Ps p & Ps q"))

    def test_excluded_middle(self):
        assert is_tautology(parse("p | ~p"))

    def test_distinct_modal_units(self):
        assert not is_tautology(parse("O p -> O q"))

    def test_modal_content_is_opaque(self):
        # p | ~p inside a box is a unit, not a tautology position
        assert not is_tautology(parse("O(p | ~p)"))

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_leaves=12))
    def test_invariant_under_unit_renaming(self, f):
        # Replacing every maximal modal subformula and atom by a fresh atom
        # turns the formula purely propositional without changing its status.
        units: dict = {}
        fresh = {}

        def walk(g):
            if isinstance(g, (Atom, Obl, PermS, PermW)):
                if g not in fresh:
                    fresh[g] = Atom(f"u{len(fresh)}")
                return fresh[g]
            if isinstance(g, Not):
                return Not(walk(g.operand))
            if isinstance(g, (And, Or, Implies, Iff)):
                return type(g)(walk(g.left), walk(g.right))
            return g

        assert is_tautology(f) == is_tautology(walk(f)) == _oracle_is_tautology(f)


# Reference for is_tautology: the row-by-row truth table, one dict and one
# whole-formula walk per row.

def _oracle_units(f: Formula, acc: dict) -> None:
    match f:
        case Atom() | Obl() | PermS() | PermW():
            acc.setdefault(f)
        case Top() | Bottom():
            pass
        case Not(x):
            _oracle_units(x, acc)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            _oracle_units(l, acc)
            _oracle_units(r, acc)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _oracle_eval(f: Formula, env: dict) -> bool:
    match f:
        case Atom() | Obl() | PermS() | PermW():
            return env[f]
        case Top():
            return True
        case Bottom():
            return False
        case Not(x):
            return not _oracle_eval(x, env)
        case And(l, r):
            return _oracle_eval(l, env) and _oracle_eval(r, env)
        case Or(l, r):
            return _oracle_eval(l, env) or _oracle_eval(r, env)
        case Implies(l, r):
            return (not _oracle_eval(l, env)) or _oracle_eval(r, env)
        case Iff(l, r):
            return _oracle_eval(l, env) == _oracle_eval(r, env)
    raise TypeError(f"not a formula: {f!r}")


def _oracle_is_tautology(f: Formula) -> bool:
    units: dict = {}
    _oracle_units(f, units)
    keys = list(units)
    for values in itertools.product((False, True), repeat=len(keys)):
        if not _oracle_eval(f, dict(zip(keys, values))):
            return False
    return True


_UNIT_CONTENT = formulas("ab", max_leaves=3)
_UNIT_KIND = st.sampled_from([Atom, Obl, PermS, PermW])
_CONNECTIVE = st.sampled_from([And, Or, Implies, Iff])


@st.composite
def unit_formulas(draw, min_units: int, max_units: int):
    """Boolean formulas over exactly k distinct units (atoms and modal
    subformulas, Pw among them), with T, F and repeated units as leaves.

    Three shapes: a random combination g (rarely a tautology), g | ~g (always
    one), and g | ~m where m is true in a single row of the truth table (a
    tautology iff g holds in that row, so failing rows land in any chunk).
    """
    k = draw(st.integers(min_units, max_units))
    units = []
    for i in range(k):
        op = draw(_UNIT_KIND)
        u = Atom(f"u{i}")
        units.append(u if op is Atom else op(Or(u, draw(_UNIT_CONTENT))))
    extra = draw(st.lists(st.sampled_from(units + [TOP, BOTTOM]), max_size=4))
    leaves = draw(st.permutations(units + extra)) or [draw(st.sampled_from([TOP, BOTTOM]))]

    def combine(xs):
        if len(xs) == 1:
            return Not(xs[0]) if draw(st.booleans()) else xs[0]
        cut = draw(st.integers(1, len(xs) - 1))
        op = draw(_CONNECTIVE)
        return op(combine(xs[:cut]), combine(xs[cut:]))

    g = combine(leaves)
    shape = draw(st.sampled_from(["plain", "excluded_middle", "one_row"]))
    if shape == "excluded_middle":
        return Or(g, Not(g))
    if shape == "one_row" and units:
        row = [u if draw(st.booleans()) else Not(u) for u in units]
        return Or(g, Not(reduce(And, row)))
    return g


class TestTautologyKernel:
    """is_tautology against the row-by-row oracle."""

    @settings(max_examples=200, deadline=None)
    @given(unit_formulas(0, 10))
    def test_matches_row_oracle(self, f):
        assert is_tautology(f) == _oracle_is_tautology(f)

    @settings(max_examples=6, deadline=None)
    @given(unit_formulas(13, 16))
    def test_matches_row_oracle_across_chunks(self, f):
        # 13-16 units: the units past the 12 packed ones are enumerated per chunk
        assert is_tautology(f) == _oracle_is_tautology(f)

    def test_wide_disjunction_exits_early(self):
        # 40 units would be 2^40 rows; the first chunk already has a false row
        f = reduce(Or, [Atom(f"p{i}") for i in range(40)])
        start = time.perf_counter()
        assert not is_tautology(f)
        assert time.perf_counter() - start < 1.0

    def test_failure_in_a_later_chunk(self):
        # 15 units; the only false rows make the 15th unit (O p0) true, past the first chunk
        g = reduce(Or, [PermW(Atom(f"p{i}")) for i in range(14)])
        extra = Obl(Atom("p0"))
        assert is_tautology(Implies(g, Or(g, extra)))
        assert not is_tautology(Implies(Or(g, extra), g))

    def test_failure_only_when_the_thirteenth_unit_is_true(self):
        # The first walk gives the 13th unit met, O p12, no column, so it is false in every
        # row, where f holds; f fails only in the later walk where O p12 is true and p13 false.
        f = reduce(Or, [Atom(f"p{i}") for i in range(12)] + [Not(Obl(Atom("p12"))), Atom("p13")])
        assert not is_tautology(f) and not _oracle_is_tautology(f)
        assert is_tautology(Or(f, And(Obl(Atom("p12")), Not(Atom("p13")))))


class TestTautologicalConsequence:
    def test_detachment_chain(self):
        premises = [
            parse("Ps(p | q)"),
            parse("O ~p"),
            parse("(Ps(p | q) & O ~p) -> Ps q"),
        ]
        assert tautological_consequence(premises, parse("Ps q"))

    def test_empty_premises(self):
        assert tautological_consequence([], parse("p -> p"))

    def test_unrelated_obligations(self):
        assert not tautological_consequence([parse("O p")], parse("O q"))


def test_atoms_collects_names():
    assert atoms(parse("Ps(p | q) & O ~p")) == frozenset({"p", "q"})
    assert atoms(TOP) == frozenset()


def test_bare_atoms_are_those_outside_every_modal_operator():
    assert bare_atoms(parse("O p -> p & Ps(q | ~r)")) == frozenset({"p"})
    assert bare_atoms(parse("Ps(a | b) & Pw a -> Ps a")) == frozenset()
    assert bare_atoms(parse("~(a <-> O Pw b)")) == frozenset({"a"})


def test_flatten_splits_one_connective():
    f = parse("(a | b) | (a & b | p)")
    assert flatten(f, Or) == [a, b, And(a, b), p]
    assert flatten(f, And) == [f]


def test_repr_and_equality_name_the_concrete_class():
    f = And(Not(a), PermW(TOP))
    assert repr(f) == "And(left=Not(operand=Atom(name='a')), right=PermW(operand=Top()))"
    assert f == And(Not(Atom("a")), PermW(Top()))
    assert Obl(a) != PermS(a) and Obl(a) != Not(a) and And(a, b) != Or(a, b)


_NON_FORMULA_CALLS = {
    "render": render,
    "formula_to_dict": formula_to_dict,
    "atoms": atoms,
    "modal_depth": modal_depth,
    "expand_pw": expand_pw,
    "instantiate": lambda f: instantiate(Schema(f, frozenset()), {}),
    "match_schema": lambda f: match_schema(Schema(f, frozenset()), f),
    "is_tautology": is_tautology,
}


@pytest.mark.parametrize("node", [And(Atom("a"), 3), Not(3)], ids=["and", "not"])
@pytest.mark.parametrize("name", list(_NON_FORMULA_CALLS))
def test_non_formula_child_raises_type_error(name, node):
    with pytest.raises(TypeError, match="not a formula: 3"):
        _NON_FORMULA_CALLS[name](node)
