"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; timings are asserted against the stated budgets.
"""

import random
import time
from contextlib import contextmanager

import pytest

from deontic import (
    FrameProperty, SearchBounds, check_property, compute_remainder,
    entailment_closure, evaluate, find_countermodel, is_tautology, parse,
    recheck_witness, render, rule_valid_on_frame, schema_valid_on_frame,
    truth_set, validate_model,
)
from deontic import bundled
from deontic.proof import (
    check_proof, load_script, run_scenario, scenario_registry, strength_lattice,
    verify_table1,
)
from deontic.systems import SCHEMAS, frame_class

from conftest import satisfying_frame


@contextmanager
def budget(criterion: int, description: str, seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion:2d}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {criterion:2d}: PASS  {description}  [{elapsed:.2f}s < {seconds:g}s]")


@pytest.fixture(scope="module")
def registry():
    return scenario_registry()


@pytest.fixture(scope="module")
def model1():
    return bundled.load_fixture_model("corollary3_model1")


@pytest.fixture(scope="module")
def model1_mod():
    return bundled.load_fixture_model("corollary3_model1_mod")


@pytest.fixture(scope="module")
def model2():
    return bundled.load_fixture_model("corollary3_model2")


def test_01_derivation_replay(registry):
    with budget(1, "four bundled derivations check Valid", 1.0):
        for name, system, lines in [
            ("explosion.proof", "EXPLOSION_DEMO", 4),
            ("controlled_explosion.proof", "FCP_2", 8),
            ("fcp3__ifcp_o.proof", "FCP_3", 8),
            ("fcp3__ifcp_p.proof", "FCP_3", 12),
        ]:
            script = load_script(name)
            assert script.system == system
            assert len(script.lines) == lines
            result = check_proof(script, registry)
            assert result.valid, (name, str(result))


def test_02_tautology_check():
    with budget(2, "guarded-reduction instance is a tautology", 1.0):
        assert is_tautology(parse("(Ps(p | q) & (Ps p & Ps q)) -> (Ps p & Ps q)"))
        assert is_tautology(parse("Ps(p | q) & Ps p & Ps q -> Ps p & Ps q"))


def test_03_first_fixture_facts(model1):
    with budget(3, "first fixture model: truth and frame facts", 1.0):
        assert validate_model(model1) == []
        assert truth_set(model1, parse("~a | c")) == frozenset({"w1", "w2", "w3"})
        assert evaluate(model1, "w1", parse("Ps(~a | c)")) is True
        assert evaluate(model1, "w1", parse("Ps c")) is False
        assert check_property(model1, FrameProperty.AFCP_O) is None
        witness = check_property(model1, FrameProperty.IFCP_O)
        assert witness is not None
        assert recheck_witness(model1, witness)
        # documented discrepancy: the conjunction whose content set is {w4}
        # uses the second atom, not the third
        assert evaluate(model1, "w1", parse("O(a & b)")) is True
        assert evaluate(model1, "w1", parse("O(a & c)")) is False


def test_04_modified_fixture(model1_mod):
    with budget(4, "modified fixture: no O-supplementation, M_O falsified", 1.0):
        witness = check_property(model1_mod, FrameProperty.O_SUPPLEMENTED)
        assert witness is not None
        assert recheck_witness(model1_mod, witness)
        violation = schema_valid_on_frame(model1_mod, SCHEMAS["M_O"])
        assert violation is not None
        assert violation.world == "w1"


def test_05_second_fixture_actual_facts(model2):
    with budget(5, "second fixture model: printed-model facts reported exactly", 1.0):
        assert validate_model(model2) == []
        # the sets as printed make Ps a true at w1, contrary to the fixture's
        # advertised failure; exact Boolean facts, no tolerance
        assert evaluate(model2, "w1", parse("Ps a")) is True
        assert evaluate(model2, "w1", parse("Ps(a | c)")) is True
        assert evaluate(model2, "w1", parse("Pw(a & b)")) is True
        assert check_property(model2, FrameProperty.AFCP2_P) is not None
        # the advertised rule-shaped condition also fails as printed
        assert check_property(model2, FrameProperty.IFCP2_P) is not None


def test_06_correspondence_suite():
    cases = [
        (FrameProperty.PS_COHERENT, "schema", "D_s"),
        (FrameProperty.PW_COHERENT, "schema", "D_w"),
        (FrameProperty.AFCP_O, "schema", "AFCP_O"),
        (FrameProperty.AFCP_P, "schema", "AFCP_P"),
        (FrameProperty.AFCP2_P, "schema", "AFCP2_P"),
        (FrameProperty.IFCP_O, "rule", "IFCP_O"),
        (FrameProperty.IFCP_P, "rule", "IFCP_P"),
        (FrameProperty.IFCP2_P, "rule", "IFCP2_P"),
    ]
    with budget(6, "8 correspondences x 500 random frames, zero violations", 60.0):
        rng = random.Random(1234)
        for prop, kind, name in cases:
            for i in range(500):
                m = satisfying_frame(rng, {prop}, max_worlds=4)
                assert check_property(m, prop) is None
                if kind == "schema":
                    assert schema_valid_on_frame(m, SCHEMAS[name]) is None, (name, i, m)
                else:
                    assert rule_valid_on_frame(m, name) is None, (name, i, m)


def test_07_table1_derivability(registry):
    with budget(7, "derivability suite for Min and the six guarded systems", 5.0):
        for system in ("Min", "FCP_1", "FCP_3", "FCP_4", "FCP_5", "FCP_6"):
            report = verify_table1(system, registry)
            assert report.ok, report.render()
        report6 = verify_table1("FCP_6", registry)
        excluded = [e for e in report6.entries if e.result is None]
        assert [e.derivable for e in excluded] == ["IFCP2_O"]
        assert excluded[0].note


def test_08_scenario_detachment(registry):
    with budget(8, "scenario detachments match the stated conclusions", 1.0):
        online = run_scenario("online-return", registry)
        assert online.ok
        assert [render(c) for c in online.conclusions] == ["O original"]

        etiquette = run_scenario("etiquette", registry)
        assert etiquette.ok
        assert [render(c) for c in etiquette.conclusions] == ["Ps e"]

        five = run_scenario("five-disjuncts", registry)
        assert five.ok
        assert [render(c) for c in five.conclusions] == ["Ps(s | t)", "Ps t"]

        disjuncts = [parse(x) for x in "p q r s t".split()]
        base = compute_remainder(disjuncts, [parse(f"O ~{x}") for x in "pqr"])
        assert render(base.surviving_disjunction()) == "s | t"
        assert base.detached == ()
        extended = compute_remainder(disjuncts, [parse(f"O ~{x}") for x in "pqrs"])
        assert [render(d) for d in extended.detached] == ["t"]


def test_09_countermodel_search():
    with budget(9, "bounded searches separate the systems and re-verify", 60.0):
        bounds = SearchBounds(5, 2, ("a", "b", "c"))

        sep = find_countermodel("IFCP_O", {FrameProperty.AFCP_O}, bounds)
        assert sep.found
        assert validate_model(sep.model) == []
        assert check_property(sep.model, FrameProperty.AFCP_O) is None
        assert rule_valid_on_frame(sep.model, "IFCP_O") is not None
        assert evaluate(sep.model, sep.world, parse("Ps(a | b) & O c"))
        assert not evaluate(sep.model, sep.world, parse("Ps b"))
        assert truth_set(sep.model, parse("c")) <= truth_set(sep.model, parse("~a"))

        dist = find_countermodel(SCHEMAS["M_O"], set(), bounds)
        assert dist.found
        assert validate_model(dist.model) == []
        assert not evaluate(dist.model, dist.world, dist.instance)
        assert check_property(dist.model, FrameProperty.O_SUPPLEMENTED) is not None


def test_10_strength_lattice(registry):
    with budget(10, "computed order: equalities by script, strict edges by separator", 10.0):
        lattice = strength_lattice(registry)
        assert lattice.ok
        assert lattice.chain == "E < Min < FCP_2 = FCP_4 < FCP_1 <= FCP_5 < FCP_3 = FCP_6"
        for r in lattice.relations:
            for name in r.scripts:
                assert check_proof(load_script(name), registry).valid
            small = entailment_closure(frame_class(r.lower))
            large = entailment_closure(frame_class(r.upper))
            assert large >= small
            if r.kind == "=":
                assert r.scripts and large == small
            elif r.kind == "<":
                target, separator = r.searches[-1]
                m = separator.model
                assert separator.found and validate_model(m) == [] and r.verified
                assert all(check_property(m, p) is None for p in frame_class(r.lower))
                violated = (schema_valid_on_frame(m, SCHEMAS[target]) if target in SCHEMAS
                            else rule_valid_on_frame(m, target))
                assert violated is not None
            else:
                assert (r.lower, r.upper) == ("FCP_1", "FCP_5") and large == small
                assert r.note == "same frame class; derivation pending"
