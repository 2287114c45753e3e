import pytest

from deontic import (
    FrameProperty, SystemRegistry, check_proof, classify_frame, entailment_closure,
    frame_class, rule_valid_on_frame, schema_valid_on_frame, strength_lattice,
)
from deontic.proof import load_script, scenario_registry
from deontic.systems import BASE_RULES, SCHEMAS


@pytest.fixture
def registry():
    return SystemRegistry.standard()


class TestGetSystem:
    def test_guarded_axiom_system(self, registry):
        d = registry.get("FCP_2")
        assert set(d.axioms) == {"D_s", "D_w", "AFCP_O", "AFCP_P"}
        assert d.rules == BASE_RULES

    def test_minimal_classical_system(self, registry):
        d = registry.get("E")
        assert d.axioms == ()
        assert d.rules == {"MP", "Taut", "RE_O", "RE_Ps"}

    def test_monotone_system_admits_rm(self, registry):
        d = registry.get("FCP_6")
        assert set(d.axioms) >= {"AFCP_O", "AFCP2_P", "M_O", "M_Ps"}
        assert d.admits_rm("O") and d.admits_rm("Ps") and d.admits_rm("Pw")
        assert not registry.get("FCP_2").admits_rm("O")

    def test_rule_systems(self, registry):
        assert registry.get("FCP_1").rules == BASE_RULES | {"IFCP_O", "IFCP_P"}
        assert registry.get("FCP_5").rules == BASE_RULES | {"IFCP_O", "IFCP2_P"}

    def test_unknown_system(self, registry):
        with pytest.raises(ValueError, match="unknown system"):
            registry.get("FCP_99")


class TestDefineSystem:
    def test_diagnostic_registration(self, registry):
        d = registry.define("EXPLOSION_DEMO", axioms=["FCP"], rules=["RM_Ps"])
        assert d.rules >= BASE_RULES | {"RM_Ps"}
        assert registry.get("EXPLOSION_DEMO") is d

    def test_duplicate_name(self, registry):
        with pytest.raises(ValueError, match="already defined"):
            registry.define("E")

    def test_unknown_axiom(self, registry):
        with pytest.raises(ValueError, match="unknown axiom"):
            registry.define("BROKEN", axioms=["X9"])

    def test_unknown_rule(self, registry):
        with pytest.raises(ValueError, match="unknown inference rule"):
            registry.define("BROKEN", rules=["R_weird"])

    def test_definition_lists_are_optional(self, registry):
        d = registry.define_from_dict({"name": "BARE"})
        assert d.axioms == () and d.rules == BASE_RULES
        assert scenario_registry().get("EXPLOSION_DEMO").rules == BASE_RULES | {"RM_Ps"}


class TestFrameClass:
    def test_minimal(self):
        assert frame_class("Min") == {FrameProperty.PS_COHERENT, FrameProperty.PW_COHERENT}

    def test_unconstrained(self):
        assert frame_class("E") == frozenset()

    def test_supplemented_variant(self):
        supplemented = {FrameProperty.O_SUPPLEMENTED, FrameProperty.P_SUPPLEMENTED}
        assert frame_class("FCP_3") == frame_class("FCP_2") | supplemented
        assert frame_class("FCP_6") == frame_class("FCP_4") | supplemented

    def test_rule_variants(self):
        assert frame_class("FCP_1") == frame_class("Min") | {
            FrameProperty.IFCP_O, FrameProperty.IFCP_P
        }
        assert frame_class("FCP_4") == frame_class("Min") | {
            FrameProperty.AFCP_O, FrameProperty.AFCP2_P
        }

    def test_user_system_has_no_class(self):
        with pytest.raises(ValueError, match="built-in"):
            frame_class("EXPLOSION_DEMO")


@pytest.fixture(scope="module")
def lattice():
    return strength_lattice()


def _order(lattice) -> set[tuple[str, str]]:
    """Every computed A <= B: the relations, "=" both ways, closed under transitivity."""
    le = {(r.lower, r.upper) for r in lattice.relations}
    le |= {(r.upper, r.lower) for r in lattice.relations if r.kind == "="}
    while True:
        more = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not more:
            return le
        le |= more


class TestInclusionReport:
    def test_computed_relations(self, lattice):
        assert lattice.ok
        assert {(r.lower, r.kind, r.upper) for r in lattice.relations} == {
            ("FCP_2", "=", "FCP_4"),
            ("FCP_3", "=", "FCP_6"),
            ("E", "<", "Min"),
            ("Min", "<", "FCP_2"),
            ("FCP_2", "<", "FCP_1"),
            ("FCP_1", "<=", "FCP_5"),
            ("FCP_5", "<", "FCP_3"),
        }
        assert lattice.chain == "E < Min < FCP_2 = FCP_4 < FCP_1 <= FCP_5 < FCP_3 = FCP_6"

    def test_every_fact_has_derivation_evidence(self, lattice):
        registry = scenario_registry()
        for r in lattice.relations:
            lower, upper = registry.get(r.lower).own, registry.get(r.upper).own
            if r.kind == "=" or not lower <= upper:
                assert r.scripts, (r.lower, r.upper)
            for name in r.scripts:
                assert check_proof(load_script(name), registry).valid, name

    def test_separator_evidence_for_every_strict_edge(self, lattice):
        for r in lattice.relations:
            if r.kind == "=":
                assert r.searches == []
                continue
            outcomes = [report.found for _, report in r.searches]
            if r.kind == "<":
                assert outcomes[-1] and not any(outcomes[:-1]), (r.lower, r.upper)
                target, report = r.searches[-1]
                assert classify_frame(report.model) >= frame_class(r.lower)
                if target in SCHEMAS:
                    assert schema_valid_on_frame(report.model, SCHEMAS[target]) is not None
                else:
                    assert rule_valid_on_frame(report.model, target) is not None
            else:
                assert outcomes and not any(outcomes)
                assert r.note == "same frame class; derivation pending"

    def test_antitone_frame_classes(self, lattice):
        order = _order(lattice)
        # A chain of the eight systems, two pairs of them equal.
        assert len({(a, b) for a, b in order if a != b}) == 8 * 7 // 2 + 2
        for smaller, larger in order:
            small = entailment_closure(frame_class(smaller))
            large = entailment_closure(frame_class(larger))
            assert large >= small, (smaller, larger)


def test_schema_inventory_is_pure():
    from deontic import atoms

    for name, sch in SCHEMAS.items():
        assert atoms(sch.body) <= sch.metavars, name
