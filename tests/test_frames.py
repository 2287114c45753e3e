import random
import time
import tracemalloc
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from deontic import (
    FrameProperty, NeighbourhoodModel, check_property, classify_frame,
    entailment_closure, make_model, recheck_witness, rule_valid_on_frame,
    schema_valid_on_frame, supplementation_closure,
)
from deontic import frames
from deontic.formula import Atom, Obl, PermS, PermW, atoms, eval_bits, schema
from deontic.frames import GUARDED_RULES, PROPERTY_ENTAILMENTS, find_schema_violation
from deontic import bundled, search
from deontic import model as model_module
from deontic.systems import CONDITIONS, FRAME_CLASSES, SCHEMAS

from conftest import formulas, models, random_frame, satisfying_frame


@pytest.fixture(scope="module")
def model1():
    return bundled.load_fixture_model("corollary3_model1")


@pytest.fixture(scope="module")
def model1_mod():
    return bundled.load_fixture_model("corollary3_model1_mod")


def _subsets(ws):
    xs = sorted(ws)
    return [frozenset(c) for k in range(len(xs) + 1) for c in combinations(xs, k)]


class TestCheckProperty:
    def test_fixture_is_obligation_guard_permitted(self, model1):
        assert check_property(model1, FrameProperty.AFCP_O) is None

    def test_fixture_violates_rule_condition(self, model1):
        wit = check_property(model1, FrameProperty.IFCP_O)
        assert wit is not None
        assert recheck_witness(model1, wit)
        assert wit.world == "w1"
        assert wit.z == frozenset({"w4"})

    def test_modified_fixture_not_o_supplemented(self, model1_mod):
        wit = check_property(model1_mod, FrameProperty.O_SUPPLEMENTED)
        assert wit is not None
        assert recheck_witness(model1_mod, wit)
        assert wit.x & wit.y == frozenset({"w4"})

    def test_complement_pair_breaks_pw_coherence(self):
        m = make_model(["w1", "w2"], n_obl={"w1": [["w1"], ["w2"]]})
        wit = check_property(m, FrameProperty.PW_COHERENT)
        assert wit is not None and recheck_witness(m, wit)


# What the three strictness fixtures, shipped as printed, show when checked.  Two facts
# contradict what they were printed to show: model1_mod violates IFCPO and model2 IFCP2P.
FIXTURE_FACTS = [
    ("corollary3_model1", "property", "AFCPO", True),
    ("corollary3_model1", "rule", "IFCP_O", False),
    ("corollary3_model1_mod", "property", "OSupplemented", False),
    ("corollary3_model1_mod", "schema", "M_O", False),
    ("corollary3_model1_mod", "property", "IFCPO", False),
    ("corollary3_model2", "property", "AFCP2P", False),
    ("corollary3_model2", "property", "IFCP2P", False),
]


class TestClassify:
    def test_empty_neighbourhoods_satisfy_everything(self):
        m = make_model(["w1", "w2"])
        assert classify_frame(m) == set(FrameProperty)

    def test_one_view_per_model(self, monkeypatch, model1):
        built = []

        class CountingView(model_module.ModelView):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        expected = classify_frame(model1)
        monkeypatch.setattr(model_module, "ModelView", CountingView)
        fresh = make_model(model1.worlds, model1.n_obl, model1.n_perm, model1.valuation)
        assert classify_frame(fresh) == expected
        schema_valid_on_frame(fresh, SCHEMAS["AFCP_O"])
        rule_valid_on_frame(fresh, "IFCP_O")
        assert built == [fresh.view]

    def test_one_column_table_per_view(self, monkeypatch, model1):
        # The ten conditions read one table of the view's N_P columns, built on first use.
        expected = classify_frame(model1)
        built = []
        members = model_module.column_members
        monkeypatch.setattr(model_module, "column_members",
                            lambda *args: built.append(args) or members(*args))
        fresh = make_model(model1.worlds, model1.n_obl, model1.n_perm, model1.valuation)
        assert classify_frame(fresh) == expected
        assert classify_frame(fresh) == expected
        assert len(built) == 1

    def test_fixture_classification(self, model1):
        props = classify_frame(model1)
        assert FrameProperty.AFCP_O in props
        assert FrameProperty.IFCP_O not in props
        for fixture, kind, name, holds in FIXTURE_FACTS:
            m = bundled.load_fixture_model(fixture)
            if kind == "property":
                found = check_property(m, FrameProperty.from_name(name))
            elif kind == "schema":
                found = schema_valid_on_frame(m, SCHEMAS[name])
            else:
                found = rule_valid_on_frame(m, name)
            assert (found is None) == holds, (fixture, kind, name)

    @settings(max_examples=120, deadline=None)
    @given(models(max_worlds=3))
    def test_every_violation_rechecks(self, m):
        for prop in FrameProperty:
            wit = check_property(m, prop)
            if wit is not None:
                assert recheck_witness(m, wit), (prop, wit)

    @settings(max_examples=120, deadline=None)
    @given(models(max_worlds=3))
    def test_classification_is_entailment_closed(self, m):
        props = classify_frame(m)
        assert entailment_closure(props) == props

    @settings(max_examples=120, deadline=None)
    @given(models(max_worlds=3))
    def test_rule_conditions_imply_axiom_conditions(self, m):
        props = classify_frame(m)
        if FrameProperty.IFCP_O in props:
            assert FrameProperty.AFCP_O in props
        if FrameProperty.IFCP_P in props:
            assert FrameProperty.AFCP_P in props
        if FrameProperty.IFCP2_P in props:
            assert FrameProperty.AFCP2_P in props
        if FrameProperty.AFCP2_P in props:
            assert FrameProperty.AFCP_P in props


def _naive_property_check(m, prop):
    """Direct quantification over all subsets, straight from the definitions."""
    w_all = frozenset(m.worlds)
    subsets = _subsets(w_all)
    for w in m.worlds:
        no, np_ = m.n_obl[w], m.n_perm[w]
        if prop is FrameProperty.O_SUPPLEMENTED:
            ok = all(not ((x & y) in no) or (x in no and y in no)
                     for x in subsets for y in subsets)
        elif prop is FrameProperty.P_SUPPLEMENTED:
            ok = all(not ((x & y) in np_) or (x in np_ and y in np_)
                     for x in subsets for y in subsets)
        elif prop is FrameProperty.PW_COHERENT:
            ok = all(not (x in no) or (w_all - x) not in no for x in subsets)
        elif prop is FrameProperty.PS_COHERENT:
            ok = all(not (x in np_) or (w_all - x) not in no for x in subsets)
        elif prop is FrameProperty.AFCP_O:
            ok = all(not ((x | y) in np_ and (w_all - y) in no) or x in np_
                     for x in subsets for y in subsets)
        elif prop is FrameProperty.AFCP_P:
            ok = all(
                not ((x | y) in np_ and (w_all - x) not in no and (w_all - y) not in no)
                or (x in np_ and y in np_)
                for x in subsets for y in subsets
            )
        elif prop is FrameProperty.AFCP2_P:
            ok = all(not ((x | y) in np_ and (w_all - x) not in no) or x in np_
                     for x in subsets for y in subsets)
        elif prop is FrameProperty.IFCP_O:
            ok = all(
                not ((x | y) in np_ and z <= (w_all - y) and z in no) or x in np_
                for x in subsets for y in subsets for z in subsets
            )
        elif prop is FrameProperty.IFCP_P:
            ok = all(
                not ((x | y) in np_ and z <= x and q <= y
                     and (w_all - z) not in no and (w_all - q) not in no)
                or (x in np_ and y in np_)
                for x in subsets for y in subsets for z in subsets for q in subsets
            )
        else:  # IFCP2_P
            ok = all(
                not ((x | y) in np_ and z <= x and (w_all - z) not in no) or x in np_
                for x in subsets for y in subsets for z in subsets
            )
        if not ok:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(models(max_worlds=3))
def test_check_property_matches_naive_quantification(m):
    for prop in FrameProperty:
        assert (check_property(m, prop) is None) == _naive_property_check(m, prop), prop


def _pair_check(no, np_, full, prop):
    """The witness masks of ``find_violation`` on the one-world view: world 1 has the pair
    (``no``, ``np_``), the other worlds of W = ``full`` have empty neighbourhoods."""
    empty = [frozenset()] * (full.bit_length() - 1)
    found = frames.find_violation(_view(full.bit_length(), [no, *empty], [np_, *empty]), prop)
    if found is None:
        return None
    assert found[0] == 0, found
    return found[1]


@settings(max_examples=100, deadline=None)
@given(models(max_worlds=4))
def test_pair_violation_is_the_per_world_check(m):
    # A world's check sees its two neighbourhoods and W, and nothing else.
    b = m.view
    for prop in FrameProperty:
        hits = [(wi, _pair_check(b.n_obl[wi], b.n_perm[wi], b.full, prop))
                for wi in range(len(m.worlds))]
        for wi, hit in hits:
            if hit is not None:
                named = [None if x is None else b.set_of(x) for x in hit]
                assert recheck_witness(m, frames.PropertyWitness(prop, m.worlds[wi], *named))
        first = next(((wi, hit) for wi, hit in hits if hit is not None), None)
        assert frames.find_violation(b, prop) == first, prop
        wit = check_property(m, prop)
        if first is None:
            assert wit is None, prop
        else:
            wi, hit = first
            assert wit.world == m.worlds[wi], prop
            assert ([wit.x, wit.y, wit.z, wit.q]
                    == [None if x is None else b.set_of(x) for x in hit]), prop


@settings(max_examples=60, deadline=None)
@given(models(max_worlds=3))
def test_schema_validity_matches_valuation_sweep(m):
    # independent oracle: every subset assignment realised as an actual
    # valuation, evaluated through the model evaluator
    from itertools import product as iproduct

    from deontic import model_valid, instantiate, Atom

    for name in ("M_O", "D_s", "D_w", "AFCP_O", "AFCP_P", "AFCP2_P"):
        sch = SCHEMAS[name]
        variables = sorted(sch.metavars)
        instance = instantiate(sch, {v: Atom(f"x_{v}") for v in variables})
        subsets = _subsets(frozenset(m.worlds))
        naive_valid = True
        for assignment in iproduct(subsets, repeat=len(variables)):
            staged = NeighbourhoodModel(
                m.worlds, m.n_obl, m.n_perm,
                {f"x_{v}": s for v, s in zip(variables, assignment)},
            )
            if not model_valid(staged, instance):
                naive_valid = False
                break
        assert (schema_valid_on_frame(m, sch) is None) == naive_valid, name


def _rule_failures(m, rule, assignment):
    """Worlds where the premise holds and the conclusion fails, every side holding everywhere."""
    from deontic import Atom, instantiate, truth_set

    staged = NeighbourhoodModel(m.worlds, m.n_obl, m.n_perm,
                                {f"x_{v}": s for v, s in assignment.items()})

    def ts(sch):
        return truth_set(staged, instantiate(sch, {v: Atom(f"x_{v}") for v in assignment}))

    if any(ts(side) != frozenset(m.worlds) for side in rule.sides):
        return frozenset()
    return ts(rule.premise) - ts(rule.conclusion)


@pytest.mark.parametrize("name", sorted(GUARDED_RULES))
def test_rule_letters_match_bruteforce(rng, name):
    # independent oracle: every subset assignment to the rule's letters,
    # evaluated through the model evaluator
    from itertools import product as iproduct

    rule = GUARDED_RULES[name]
    letters = sorted(rule.letters)
    frames = [random_frame(rng, max_worlds=3) for _ in range(30)]
    frames += [satisfying_frame(rng, {rule.prop}, max_worlds=3) for _ in range(10)]
    verdicts = set()
    for m in frames:
        subsets = _subsets(frozenset(m.worlds))
        naive_valid = not any(
            _rule_failures(m, rule, dict(zip(letters, assignment)))
            for assignment in iproduct(subsets, repeat=len(letters))
        )
        violation = rule_valid_on_frame(m, name)
        assert (violation is None) == naive_valid, (name, m)
        if violation is not None:
            # the reported assignment names every letter and is itself a counterexample
            assert sorted(violation.assignment) == letters
            assert violation.world in _rule_failures(m, rule, violation.assignment)
        verdicts.add(naive_valid)
    assert verdicts == {True, False}


def _pw_subset_witness_oracle(full, no):
    # For each mask X, the first Z <= X with complement(Z) not obligatory, if any.
    return [next((z for z in range(x + 1) if z & x == z and (full ^ z) not in no), None)
            for x in range(full + 1)]


def _pair_violation_oracle(no, np, full, prop):
    """The per-pair check that the block form replaced: the first witness in its loop order."""
    if not no and not np:
        return None
    masks = range(full + 1)
    if prop is FrameProperty.O_SUPPLEMENTED or prop is FrameProperty.P_SUPPLEMENTED:
        col = no if prop is FrameProperty.O_SUPPLEMENTED else np
        for member in sorted(col):
            for x in masks:
                if x & member == member and x not in col:
                    return (x, member, None, None)
        return None
    if prop is FrameProperty.PW_COHERENT or prop is FrameProperty.PS_COHERENT:
        for x in sorted(no if prop is FrameProperty.PW_COHERENT else np):
            if (full ^ x) in no:
                return (x, None, None, None)
        return None
    if prop is FrameProperty.AFCP_O:
        for obligatory in sorted(no):
            y = full ^ obligatory
            for x in masks:
                if (x | y) in np and x not in np:
                    return (x, y, None, None)
        return None
    if prop is FrameProperty.AFCP_P:
        for x in masks:
            if (full ^ x) in no:
                continue
            for y in masks:
                if (x | y) in np and (full ^ y) not in no and (x not in np or y not in np):
                    return (x, y, None, None)
        return None
    if prop is FrameProperty.AFCP2_P:
        for x in masks:
            if x in np or (full ^ x) in no:
                continue
            for y in masks:
                if (x | y) in np:
                    return (x, y, None, None)
        return None
    if prop is FrameProperty.IFCP_O:
        for x in masks:
            if x in np:
                continue
            for y in masks:
                if (x | y) not in np:
                    continue
                for z in sorted(no):
                    if z & y == 0:
                        return (x, y, z, None)
        return None
    pw_sub = _pw_subset_witness_oracle(full, no)
    if prop is FrameProperty.IFCP_P:
        for x in masks:
            if pw_sub[x] is None:
                continue
            for y in masks:
                if pw_sub[y] is None:
                    continue
                if (x | y) in np and (x not in np or y not in np):
                    return (x, y, pw_sub[x], pw_sub[y])
        return None
    for x in masks:  # IFCP2_P
        if x in np or pw_sub[x] is None:
            continue
        for y in masks:
            if (x | y) in np:
                return (x, y, pw_sub[x], None)
    return None


def _every_column(n):
    """W's mask and every N_O or N_P column at n worlds, with its ``column_members`` table."""
    full = (1 << n) - 1
    cols = [frozenset(x for x in range(full + 1) if bits >> x & 1)
            for bits in range(1 << (full + 1))]
    return full, cols, frames.column_members(cols, full)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_verdicts_match_the_per_pair_oracle(n):
    # Every (N_O, N_P) pair of one world in W of n worlds, all ten conditions: a column fails in
    # the block form iff the oracle finds a witness, the stream's first term holding the column
    # carries the oracle's witness, and find_violation on the one-world view reports it.
    full, cols, has = _every_column(n)
    tables = frames.ConditionTables(has, full)
    for no in cols:
        for prop in FrameProperty:
            failing = tables.failing(no, (prop,))
            first, pending = {}, (1 << len(cols)) - 1
            for hit, term in frames._terms(no, has, full, prop):
                fresh = term & pending
                pending &= ~term
                while fresh:
                    first[(fresh & -fresh).bit_length() - 1] = hit
                    fresh &= fresh - 1
            for j, np_ in enumerate(cols):
                expected = _pair_violation_oracle(no, np_, full, prop)
                assert (failing >> j & 1, first.get(j)) == (expected is not None, expected), \
                    (prop, no, np_)
                assert _pair_check(no, np_, full, prop) == expected, (prop, no, np_)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_find_violation_reads_each_worlds_own_column(data):
    # On a view of several worlds, each world's pair is read from bit wi of one table of all
    # N_P columns: the first world whose pair the oracle rejects, with the oracle's witness.
    n = data.draw(st.integers(2, 3))
    col = st.frozensets(st.integers(0, (1 << n) - 1), max_size=4)
    n_obl, n_perm = [data.draw(col) for _ in range(n)], [data.draw(col) for _ in range(n)]
    b = _view(n, n_obl, n_perm)
    for prop in FrameProperty:
        hits = ((wi, _pair_violation_oracle(n_obl[wi], n_perm[wi], b.full, prop))
                for wi in range(n))
        expected = next(((wi, hit) for wi, hit in hits if hit is not None), None)
        assert frames.find_violation(b, prop) == expected, prop


def test_entailments_hold_exhaustively_on_two_worlds():
    # Every (N_O, N_P) pair of one world, in W of one to three worlds, through the block form;
    # the other worlds' neighbourhoods are empty, which meets every condition.
    for n in (1, 2, 3):
        full, cols, has = _every_column(n)
        tables = frames.ConditionTables(has, full)
        for no in cols:
            for premises, conclusion in PROPERTY_ENTAILMENTS:
                meeting = ~tables.failing(no, premises)
                assert tables.failing(no, (conclusion,)) & meeting == 0, \
                    (premises, conclusion, no)


def _stream_failing(no, has, full, prop):
    """The OR of a condition's witness stream, and whether a term holds every column (-1)."""
    out, every = 0, False
    for _, term in frames._terms(no, has, full, prop):
        out |= term
        every |= term == -1
    return out, every


@pytest.mark.parametrize("n, sets, closed",
                         [(4, 2, False), (4, 2, True), (4, 3, False), (4, 3, True), (5, 2, False)])
def test_tables_give_the_streams_verdict_on_the_searchs_columns(n, sets, closed):
    # On the search's own N_P column list, per N_O column (every one of the unclosed list, which
    # holds the closed one, or a seeded sample at 5 worlds), each single condition and each
    # system's class: the table verdict is the OR of the witness streams, -1 exactly when a
    # stream holds -1.
    full, cols = (1 << n) - 1, search._collections(n, sets, closed=closed)
    nos = search._collections(n, sets)
    if n == 5:
        nos = random.Random(20).sample(nos, 100)
    has = frames.column_members(cols, full)
    tables = frames.ConditionTables(has, full)
    for no in nos:
        streams = {prop: _stream_failing(no, has, full, prop) for prop in FrameProperty}
        for prop, (expected, every) in streams.items():
            verdict = tables.failing(no, (prop,))
            assert (verdict, verdict == -1) == (expected, every), (prop, sorted(no))
        for name, props in FRAME_CLASSES.items():
            expected = 0
            for prop in props:
                expected |= streams[prop][0]
            every = any(streams[prop][1] for prop in props)
            verdict = tables.failing(no, props)
            assert (verdict, verdict == -1) == (expected, every), (name, sorted(no))


def _one_world_frames(max_worlds):
    """Every frame of at most ``max_worlds`` worlds whose neighbourhoods are all at w1."""
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        subsets = _subsets(worlds)
        cols = [frozenset(c) for k in range(len(subsets) + 1) for c in combinations(subsets, k)]
        empty = {w: frozenset() for w in worlds[1:]}
        for no, np_ in product(cols, repeat=2):
            yield NeighbourhoodModel(worlds, {"w1": no, **empty}, {"w1": np_, **empty}, {})


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_condition_table_agrees_with_validity(name):
    # Both directions: each axiom schema or guarded rule of a built-in system is valid on
    # exactly the frames meeting the condition it is assigned.
    rule = GUARDED_RULES.get(name)
    for m in _one_world_frames(2):
        if rule is None:
            valid = schema_valid_on_frame(m, SCHEMAS[name]) is None
        else:
            letters = sorted(rule.letters)
            valid = not any(_rule_failures(m, rule, dict(zip(letters, a)))
                            for a in product(_subsets(m.worlds), repeat=len(letters)))
            assert valid == (rule_valid_on_frame(m, name) is None), (name, m)
        assert valid == (check_property(m, CONDITIONS[name]) is None), (name, m)


def _truth_mask_one_assignment(view, f, atom_masks):
    """Worlds where ``f`` holds under one assignment, each modal clause one neighbourhood lookup."""
    full = view.full

    def leaf(node):
        match node:
            case Atom(name):
                return atom_masks.get(name, 0)
            case Obl(x):
                return view.obl_at.get(eval_bits(x, leaf, full), 0)
            case PermS(x):
                return view.perm_at.get(eval_bits(x, leaf, full), 0)
            case PermW(x):
                return full ^ view.obl_at.get(full ^ eval_bits(x, leaf, full), 0)
        raise TypeError(node)

    return eval_bits(f, leaf, full)


def _schema_violation_oracle(b, body, variables):
    """One walk per subset assignment, in product order: the first false world and its assignment."""
    full = b.full
    for assignment in product(range(full + 1), repeat=len(variables)):
        false_at = full ^ _truth_mask_one_assignment(b, body, dict(zip(variables, assignment)))
        if false_at:
            return (false_at & -false_at).bit_length() - 1, assignment
    return None


def _view(n, n_obl, n_perm):
    return model_module.ModelView(tuple(f"w{i + 1}" for i in range(n)), n_obl, n_perm, {})


@st.composite
def schema_on_frame(draw):
    """A pure schema body of 0-3 metavariables and a view with neighbourhoods at every world.

    Three metavariables go up to 4 worlds, where the oracle walks at most 4 096 assignments.
    """
    named = st.sampled_from([s.body for s in SCHEMAS.values()])
    body = draw(st.one_of(named, formulas("pqr", max_leaves=10)))
    variables = sorted(atoms(body))
    n = draw(st.integers(1, 5 if len(variables) <= 2 else 4))
    col = st.frozensets(st.integers(0, (1 << n) - 1), max_size=3)
    view = _view(n, [draw(col) for _ in range(n)], [draw(col) for _ in range(n)])
    return view, body, variables


@settings(max_examples=200, deadline=None)
@given(schema_on_frame())
def test_schema_violation_matches_per_assignment_oracle(case):
    view, body, variables = case
    assert (find_schema_violation(view, body, variables)
            == _schema_violation_oracle(view, body, variables))


class TestBlockCap:
    FOUR = "O(p | q) & Ps(r & s) -> O(q | p) & Ps(s & r)"  # valid on every frame

    def test_four_variables_at_four_worlds_match_the_oracle(self, rng):
        # Two variables are fixed per block here; the first two schemas fail with p or q
        # non-empty, in a later block, and the valid one walks all 256 blocks once per frame.
        variables = ["p", "q", "r", "s"]
        texts = ["Ps(p | q) & Pw(r <-> s) -> O(p & r) | Ps q", "Ps(p & ~q) -> Ps r | O s",
                 self.FOUR]
        bodies = {text: schema(text, variables).body for text in texts}
        for i in range(3):
            cols = [frozenset(rng.randrange(16) for _ in range(3)) for _ in range(8)]
            view = _view(4, cols[:4], cols[4:])
            for text in texts[:2] if i else texts:
                assert (find_schema_violation(view, bodies[text], variables)
                        == _schema_violation_oracle(view, bodies[text], variables)), \
                    (text, view.n_obl)

    def test_valid_four_variable_schema_at_five_worlds_stays_small(self):
        ws = [f"w{i}" for i in range(1, 6)]
        m = make_model(ws, n_obl={"w1": [["w1", "w2"], ["w3"]], "w4": [["w5"]]},
                       n_perm={"w1": [["w2"]], "w2": [["w1", "w5"], []]})
        frames._block.cache_clear()  # the peak includes building the block's columns
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert schema_valid_on_frame(m, schema(self.FOUR, "p q r s")) is None
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 1 << 20


class TestSchemaViolation:
    """``find_schema_violation`` agrees with the per-assignment oracle across its blocks."""

    def _random_view(self, rng, n):
        cols = [frozenset(rng.randrange(1 << n) for _ in range(rng.randrange(4)))
                for _ in range(2 * n)]
        return _view(n, cols[:n], cols[n:])

    def test_many_frames_match_the_oracle(self, rng):
        bodies = [s.body for s in SCHEMAS.values()]
        bodies += [schema(t, "p q r").body for t in ("Ps(p | q) & Pw(p & ~r) -> O(q -> r)",
                                                      "Pw T | O(p <-> F) | Ps(q & ~q)")]
        for n in (1, 2, 3):
            for body in bodies:
                variables = sorted(atoms(body))
                for _ in range(10):
                    view = self._random_view(rng, n)
                    assert (find_schema_violation(view, body, variables)
                            == _schema_violation_oracle(view, body, variables)), (body, view.n_obl)

    def test_four_variables_at_three_worlds_span_blocks(self, rng):
        # Three variables share a block at three worlds, so p is fixed per block: 8 blocks.
        variables = ["p", "q", "r", "s"]
        texts = ["Ps(p | q) & Pw(r <-> s) -> O(p & r) | Ps q", TestBlockCap.FOUR]
        assert frames._block(3, len(variables))[0] == 3
        for text in texts:
            body = schema(text, variables).body
            for _ in range(8):
                view = self._random_view(rng, 3)
                assert (find_schema_violation(view, body, variables)
                        == _schema_violation_oracle(view, body, variables)), (text, view.n_obl)

    def test_first_false_world_of_a_later_block(self):
        # Ps p holds only at w3 and only for p = {w2}, the third block; there q, r and s are
        # first all empty, and the schema is false at w3 alone.
        variables = ["p", "q", "r", "s"]
        body = schema("Ps p -> q | r | s", variables).body
        view = _view(3, [frozenset()] * 3, [frozenset(), frozenset(), frozenset({0b010})])
        assert find_schema_violation(view, body, variables) == (2, (2, 0, 0, 0))
        assert _schema_violation_oracle(view, body, variables) == (2, (2, 0, 0, 0))
        m = make_model(["w1", "w2", "w3"], n_perm={"w3": [["w2"]]})
        violation = schema_valid_on_frame(m, schema("Ps p -> q | r | s", variables))
        assert violation.world == "w3"
        assert violation.assignment == {"p": {"w2"}, "q": set(), "r": set(), "s": set()}

    def test_depth_two_schema_through_schema_valid_on_frame(self, rng):
        sch = schema("O Ps(p | q) -> Pw(p & q) | Ps(q | p)", "p q")
        verdicts = set()
        for _ in range(40):
            m = random_frame(rng, max_worlds=3)
            found = _schema_violation_oracle(m.view, sch.body, ["p", "q"])
            violation = schema_valid_on_frame(m, sch)
            if found is None:
                assert violation is None, m
            else:
                wi, (p, q) = found
                assert (violation.world, violation.assignment) == (
                    m.worlds[wi], {"p": m.view.set_of(p), "q": m.view.set_of(q)}), m
            verdicts.add(found is None)
        assert verdicts == {True, False}


class TestSchemaValidity:
    def test_weak_consistency_on_coherent_frame(self, rng):
        for _ in range(25):
            m = satisfying_frame(rng, {FrameProperty.PW_COHERENT}, max_worlds=3)
            assert schema_valid_on_frame(m, SCHEMAS["D_w"]) is None

    def test_guarded_axiom_on_fixture_frame(self, model1):
        # independent oracle: quantify both set variables directly
        w_all = frozenset(model1.worlds)
        for w in model1.worlds:
            no, np_ = model1.n_obl[w], model1.n_perm[w]
            for x in _subsets(w_all):
                for y in _subsets(w_all):
                    if (x | y) in np_ and (w_all - y) in no:
                        assert x in np_
        assert schema_valid_on_frame(model1, SCHEMAS["AFCP_O"]) is None

    def test_distribution_fails_on_modified_fixture(self, model1_mod):
        violation = schema_valid_on_frame(model1_mod, SCHEMAS["M_O"])
        assert violation is not None
        assert violation.world == "w1"

    def test_rejects_concrete_atoms(self, model1):
        from deontic import schema

        with pytest.raises(ValueError, match="concrete atoms"):
            schema_valid_on_frame(model1, schema("O a -> O p", "p"))

    def test_rule_violation_on_fixture(self, model1):
        violation = rule_valid_on_frame(model1, "IFCP_O")
        assert violation is not None
        assert set(violation.assignment) == {"p", "q", "r"}

    def test_unknown_rule(self, model1):
        with pytest.raises(ValueError, match="unknown rule"):
            rule_valid_on_frame(model1, "MP")


class TestCorrespondence:
    """Each condition guarantees validity of its schema or rule; sampled here,
    run at volume by the acceptance suite."""

    CASES = [
        (FrameProperty.PS_COHERENT, "schema", "D_s"),
        (FrameProperty.PW_COHERENT, "schema", "D_w"),
        (FrameProperty.AFCP_O, "schema", "AFCP_O"),
        (FrameProperty.AFCP_P, "schema", "AFCP_P"),
        (FrameProperty.AFCP2_P, "schema", "AFCP2_P"),
        (FrameProperty.IFCP_O, "rule", "IFCP_O"),
        (FrameProperty.IFCP_P, "rule", "IFCP_P"),
        (FrameProperty.IFCP2_P, "rule", "IFCP2_P"),
    ]

    @pytest.mark.parametrize("prop,kind,name", CASES)
    def test_sampled_correspondence(self, rng, prop, kind, name):
        for _ in range(40):
            m = satisfying_frame(rng, {prop}, max_worlds=4)
            assert check_property(m, prop) is None
            if kind == "schema":
                assert schema_valid_on_frame(m, SCHEMAS[name]) is None, (prop, m)
            else:
                assert rule_valid_on_frame(m, name) is None, (prop, m)


class TestSupplementationClosure:
    def test_superset_count(self):
        m = make_model([f"w{i}" for i in range(1, 6)], n_obl={"w1": [["w4"]]})
        closed = supplementation_closure(m, "O")
        assert len(closed.n_obl["w1"]) == 16
        assert all(frozenset({"w4"}) <= s for s in closed.n_obl["w1"])
        assert check_property(closed, FrameProperty.O_SUPPLEMENTED) is None

    def test_idempotent_and_extensive(self, rng):
        for _ in range(25):
            m = random_frame(rng, max_worlds=3)
            once = supplementation_closure(m, "Ps")
            for w in m.worlds:
                assert m.n_perm[w] <= once.n_perm[w]
            assert supplementation_closure(once, "Ps") == once

    def test_empty_collection_stays_empty(self):
        m = make_model(["w1"])
        assert supplementation_closure(m, "O").n_obl["w1"] == frozenset()

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            supplementation_closure(make_model(["w1"]), "Pw")
