import re

import pytest
from hypothesis import given, settings

from deontic import (
    And, Atom, Bottom, FrameProperty, Iff, Implies, NeighbourhoodModel, Not, Obl, Or, PermS,
    PermW, Top,
    check_property, dump_model, evaluate, expand_pw, load_model, make_model, model_from_dict,
    model_to_dict, model_valid, parse, truth_set, validate_model,
)
from deontic import bundled

from conftest import formulas, models


@pytest.fixture(scope="module")
def model1():
    return bundled.load_fixture_model("corollary3_model1")


@pytest.fixture(scope="module")
def model2():
    return bundled.load_fixture_model("corollary3_model2")


class TestValidate:
    def test_fixture_is_well_formed(self, model1):
        assert validate_model(model1) == []

    def test_member_outside_worlds(self):
        m = make_model(["w1"], n_obl={"w1": [["w9"]]})
        problems = validate_model(m)
        assert any("outside W" in v and "w9" in v for v in problems)

    def test_single_world_empty_model(self):
        m = make_model(["w1"])
        assert validate_model(m) == []

    def test_empty_world_list(self):
        assert validate_model(make_model([])) != []

    def test_undeclared_neighbourhood_key(self):
        m = make_model(["w1"], n_perm={"w2": []})
        assert any("undeclared world" in v for v in validate_model(m))

    def test_valuation_outside_worlds(self):
        m = make_model(["w1"], valuation={"a": ["w2"]})
        assert any("valuation(a)" in v for v in validate_model(m))


    @pytest.mark.parametrize("name", ["O", "1x"])
    def test_invalid_atom_name(self, name):
        m = make_model(["w1"], valuation={name: ["w1"]})
        assert validate_model(m) == [f"valuation: invalid atom name {name!r}"]


class TestEvaluate:
    def test_strong_permission_of_disjunction(self, model1):
        assert evaluate(model1, "w1", parse("Ps(~a | c)")) is True

    def test_strong_permission_fails(self, model1):
        assert evaluate(model1, "w1", parse("Ps c")) is False

    def test_obligation_of_conjunction(self, model1):
        # [[a & b]] = {w1,w4,w5} n {w2,w3,w4} = {w4}, which is obligatory at w1
        va = model1.valuation["a"]
        vb = model1.valuation["b"]
        assert va & vb == frozenset({"w4"})
        assert evaluate(model1, "w1", parse("O(a & b)")) is True
        # with c instead of b the intersection is {w1}, not obligatory
        assert (va & model1.valuation["c"]) == frozenset({"w1"})
        assert evaluate(model1, "w1", parse("O(a & c)")) is False

    def test_unknown_world(self, model1):
        with pytest.raises(ValueError, match="unknown world"):
            evaluate(model1, "w9", parse("p"))

    def test_unknown_atom_is_false_everywhere(self, model1):
        assert truth_set(model1, parse("zz")) == frozenset()


class TestTruthSet:
    def test_disjunction(self, model1):
        assert truth_set(model1, parse("~a | c")) == frozenset({"w1", "w2", "w3"})

    def test_top_is_whole_domain(self, model1):
        assert truth_set(model1, parse("T")) == frozenset(model1.worlds)

    def test_second_fixture_conjunction(self, model2):
        assert truth_set(model2, parse("a & b")) == frozenset({"w1"})


class TestModelValid:
    def test_tautology(self, model1):
        assert model_valid(model1, parse("p | ~p"))

    def test_fails_at_one_world(self, model1):
        assert not model_valid(model1, parse("Ps c"))

    def test_weak_permission_with_empty_obligations(self):
        m = make_model(["w1"])
        assert model_valid(m, parse("Pw q"))


class TestSemanticProperties:
    @settings(max_examples=150, deadline=None)
    @given(models(), formulas(max_leaves=10))
    def test_weak_permission_duality(self, m, f):
        for w in m.worlds:
            assert evaluate(m, w, PermW(f)) == evaluate(m, w, parse(f"~O~({f})"))

    @settings(max_examples=150, deadline=None)
    @given(models(), formulas(max_leaves=10))
    def test_expand_pw_preserves_evaluation(self, m, f):
        expanded = expand_pw(f)
        for w in m.worlds:
            assert evaluate(m, w, f) == evaluate(m, w, expanded)

    @settings(max_examples=150, deadline=None)
    @given(models(), formulas(max_leaves=8), formulas(max_leaves=8))
    def test_replacement_of_coextensional_contents(self, m, f, g):
        if truth_set(m, f) == truth_set(m, g):
            for w in m.worlds:
                assert evaluate(m, w, Obl(f)) == evaluate(m, w, Obl(g))
                assert evaluate(m, w, PermS(f)) == evaluate(m, w, PermS(g))

    @settings(max_examples=150, deadline=None)
    @given(models(), formulas(max_leaves=10), formulas(max_leaves=10))
    def test_truth_set_algebra(self, m, f, g):
        w_all = frozenset(m.worlds)
        assert truth_set(m, Not(f)) == w_all - truth_set(m, f)
        assert truth_set(m, Or(f, g)) == truth_set(m, f) | truth_set(m, g)


class TestModelView:
    @pytest.mark.parametrize(
        "model,field",
        [
            (make_model(["w1"], n_obl={"w1": [["w9"]]}), "N_O(w1)"),
            (make_model(["w1", "w2"], n_perm={"w2": [["w1", "w9"]]}), "N_P(w2)"),
            (make_model(["w1"], valuation={"a": ["w9"]}), "valuation(a)"),
        ],
    )
    def test_world_outside_w_names_it(self, model, field):
        for use in (lambda m: check_property(m, FrameProperty.AFCP_O),
                    lambda m: truth_set(m, parse("a"))):
            with pytest.raises(ValueError, match=rf"^{re.escape(field)}: world 'w9' is not in W$"):
                use(model)

    def test_missing_entry_is_the_empty_neighbourhood(self):
        direct = NeighbourhoodModel(("w1", "w2"), {"w1": frozenset()}, {}, {"a": frozenset({"w1"})})
        normalised = make_model(["w1", "w2"], valuation={"a": ["w1"]})
        for text in ("a", "O a", "Ps ~a", "Pw a"):
            assert truth_set(direct, parse(text)) == truth_set(normalised, parse(text))


def _eval_oracle(m, w, f):
    """Direct clause-by-clause recursion, recomputing truth sets per node."""
    if isinstance(f, Atom):
        return w in m.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _eval_oracle(m, w, f.operand)
    if isinstance(f, And):
        return _eval_oracle(m, w, f.left) and _eval_oracle(m, w, f.right)
    if isinstance(f, Or):
        return _eval_oracle(m, w, f.left) or _eval_oracle(m, w, f.right)
    if isinstance(f, Implies):
        return (not _eval_oracle(m, w, f.left)) or _eval_oracle(m, w, f.right)
    if isinstance(f, Iff):
        return _eval_oracle(m, w, f.left) == _eval_oracle(m, w, f.right)
    content = frozenset(v for v in m.worlds if _eval_oracle(m, v, f.operand))
    if isinstance(f, Obl):
        return content in m.n_obl[w]
    if isinstance(f, PermS):
        return content in m.n_perm[w]
    if isinstance(f, PermW):
        return (frozenset(m.worlds) - content) not in m.n_obl[w]
    raise TypeError(f)


@settings(max_examples=200, deadline=None)
@given(models(), formulas(max_leaves=10))
def test_evaluator_matches_bruteforce_oracle(m, f):
    for w in m.worlds:
        assert evaluate(m, w, f) == _eval_oracle(m, w, f)


def test_dict_round_trip(model1):
    again = model_from_dict(model_to_dict(model1))
    assert again == model1


@pytest.mark.parametrize("name", bundled.fixture_names("models"))
def test_dump_model_round_trip(name, tmp_path):
    m = bundled.load_fixture_model(name)
    path = tmp_path / name
    dump_model(m, path)
    assert model_to_dict(load_model(path)) == model_to_dict(m)
