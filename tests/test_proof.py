import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from deontic import (
    Schema, atoms, bundled, check_proof, parse_proof_script, render,
    schema_valid_on_frame,
)
from deontic import parse
from deontic.formula import Binary, Not, Obl, ParseError, PermW, Unary
from deontic.proof import (
    TABLE1_DERIVABLES, Hypothesis, ProofScript, _misstatement, load_script, run_scenario,
    scenario_registry, verify_table1,
)
from deontic.systems import frame_class

from conftest import _repair_once as _repair, satisfying_frame


def _modal_subformulas(f, kind):
    from deontic import And, Iff, Implies, Not, Obl, Or, PermS, PermW

    out = []
    if isinstance(f, kind):
        out.append(f)
    if isinstance(f, (Not, Obl, PermS, PermW)):
        out.extend(_modal_subformulas(f.operand, kind))
    elif isinstance(f, (And, Or, Implies, Iff)):
        out.extend(_modal_subformulas(f.left, kind))
        out.extend(_modal_subformulas(f.right, kind))
    return out


@pytest.fixture(scope="module")
def registry():
    return scenario_registry()


REPLAYED = [
    "explosion.proof",
    "controlled_explosion.proof",
    "fcp3__ifcp_o.proof",
    "fcp3__ifcp_p.proof",
]


class TestBundledScripts:
    @pytest.mark.parametrize("name", REPLAYED)
    def test_replayed_derivations_are_valid(self, registry, name):
        result = check_proof(load_script(name), registry)
        assert result.valid, (name, str(result))

    def test_deterministic_verdicts(self, registry):
        script = load_script("controlled_explosion.proof")
        assert check_proof(script, registry) == check_proof(script, registry)

    def test_all_fixture_scripts_parse_and_check(self, registry):
        from deontic import bundled

        for name in bundled.fixture_names("proofs"):
            result = check_proof(load_script(name), registry)
            assert result.valid, (name, str(result))


class TestTierDiscipline:
    def test_strict_re_rejects_local_equivalence(self, registry):
        text = """
        system: FCP_2
        hyp: Ps(p | ~p)
        hyp: Pw q
        goal: Ps(q | (p | ~p))
        1. Ps(p | ~p) ; hyp
        2. (p | ~p) <-> (q | (p | ~p)) ; cpl 1
        3. Ps(p | ~p) <-> Ps(q | (p | ~p)) ; re 2 Ps
        4. Ps(q | (p | ~p)) ; cpl 1,3
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert result.line == 3
        assert "tier" in result.reason

    def test_demoting_theorem_hypothesis_breaks_rm(self, registry):
        from deontic import bundled

        text = bundled.fixture_text("proofs/fcp3__ifcp_o.proof").replace("hyp*:", "hyp:")
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert result.line == 5
        assert "tier" in result.reason

    def test_rm_unavailable_without_distribution(self, registry):
        text = """
        system: FCP_2
        hyp*: r -> ~p
        goal: O r -> O ~p
        1. r -> ~p ; hyp
        2. O r -> O ~p ; rm 1 O
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "not available" in result.reason

    def test_applied_re_inherits_local_tier(self, registry):
        text = """
        system: FCP_2
        hyp: Ps(p | q)
        goal: Ps(q | p)
        1. Ps(p | q) ; hyp
        2. Ps(q | p) ; re 1 Ps
        """
        result = check_proof(parse_proof_script(text), registry)
        assert result.valid
        assert result.tiers[2] == "local"

    def test_applied_re_requires_tautological_equivalence(self, registry):
        text = """
        system: FCP_2
        hyp: Ps(p | q)
        goal: Ps(q & p)
        1. Ps(p | q) ; hyp
        2. Ps(q & p) ; re 1 Ps
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid and result.line == 2


class TestJustifications:
    def test_axiom_instance_with_weak_permission_spelled_out(self, registry):
        # Pw and ~O~ are interchangeable in axiom instances
        text = """
        system: FCP_4
        goal: Ps(p | q) & ~O~p -> Ps p
        1. Ps(p | q) & ~O~p -> Ps p ; ax AFCP2_P
        """
        assert check_proof(parse_proof_script(text), registry).valid

    def test_axiom_must_belong_to_system(self, registry):
        text = """
        system: Min
        goal: Ps(p | q) & O ~p -> Ps q
        1. Ps(p | q) & O ~p -> Ps q ; ax AFCP_O
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "not an axiom" in result.reason

    def test_wrong_instance_reported(self, registry):
        text = """
        system: FCP_2
        goal: Ps(p | q) & O ~q -> Ps q
        1. Ps(p | q) & O ~q -> Ps q ; ax AFCP_O {p: p, q: q}
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid and result.line == 1

    @pytest.mark.parametrize("subst, reason", [
        ("{p: a, q: b, r: c}", "AFCP_O has no metavariable 'r'"),
        ("{p: a, p: c, q: b}", "substitution names metavariable 'p' twice"),
    ])
    def test_substitution_names_each_metavariable_of_the_schema_once(self, registry, subst,
                                                                     reason):
        text = f"""
        system: FCP_2
        goal: Ps(a | b) & O ~a -> Ps b
        1. Ps(a | b) & O ~a -> Ps b ; ax AFCP_O {subst}
        """
        result = check_proof(parse_proof_script(text), registry)
        assert (result.valid, result.line, result.reason) == (False, 1, reason)

    def test_mp_accepts_either_citation_order(self, registry):
        for order in ("mp 1 2", "mp 2 1"):
            text = f"""
            system: E
            hyp: p
            hyp: p -> q
            goal: q
            1. p ; hyp
            2. p -> q ; hyp
            3. q ; {order}
            """
            assert check_proof(parse_proof_script(text), registry).valid

    def test_cpl_needs_cited_support(self, registry):
        text = """
        system: E
        hyp: O p
        goal: O q
        1. O p ; hyp
        2. O q ; cpl 1
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "tautological consequence" in result.reason

    def test_forward_citation_rejected(self, registry):
        text = """
        system: E
        goal: p -> p
        1. p -> p ; cpl 2
        2. p -> p ; taut
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "out of order" in result.reason

    def test_goal_mismatch(self, registry):
        text = """
        system: E
        goal: q -> q
        1. p -> p ; taut
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "goal" in result.reason

    @pytest.mark.parametrize("header, value", [("system", "E"), ("goal", "p -> p")])
    def test_a_header_is_declared_once(self, header, value):
        # The last of two headers used to win silently: this script checked Valid.
        text = f"""
        system: FCP_2
        goal: q
        {header}: {value}
        1. p -> p ; taut
        """
        with pytest.raises(ValueError, match=f"script declares '{header}:' twice"):
            parse_proof_script(text)

    def test_unknown_system_reported(self):
        text = """
        system: NOWHERE
        goal: p -> p
        1. p -> p ; taut
        """
        result = check_proof(parse_proof_script(text))
        assert not result.valid and result.line is None

    def test_ifcp_side_condition_via_theorem_line(self, registry):
        # separate-premise form plus an explicitly derived side condition
        text = """
        system: FCP_1
        hyp: Ps(p | q)
        hyp: O(~p & r)
        goal: Ps q
        1. Ps(p | q) ; hyp
        2. O(~p & r) ; hyp
        3. ~p & r -> ~p ; taut
        4. Ps q ; ifcp_o 1,2 side=3
        """
        assert check_proof(parse_proof_script(text), registry).valid

    def test_ifcp_rule_unavailable_in_axiom_system(self, registry):
        text = """
        system: FCP_2
        hyp: Ps(p | q) & O ~p
        goal: Ps q
        1. Ps(p | q) & O ~p ; hyp
        2. Ps q ; ifcp_o 1 side=taut
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "not part of" in result.reason

    def test_ifcp_side_must_be_theorem_tier(self, registry):
        text = """
        system: FCP_1
        hyp: Ps(p | q)
        hyp: O r
        hyp: r -> ~p
        goal: Ps q
        1. Ps(p | q) ; hyp
        2. O r ; hyp
        3. r -> ~p ; hyp
        4. Ps q ; ifcp_o 1,2 side=3
        """
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert "tier" in result.reason


def _respell(f, flips):
    """``f`` with each ``Pw x``, in pre-order, spelled ``~O~x`` where ``next(flips)`` is true."""
    if isinstance(f, PermW):
        flip, x = next(flips), _respell(f.operand, flips)
        return Not(Obl(Not(x))) if flip else PermW(x)
    if isinstance(f, Unary):
        return type(f)(_respell(f.operand, flips))
    if isinstance(f, Binary):
        return type(f)(_respell(f.left, flips), _respell(f.right, flips))
    return f


def _mutant():
    """``fcp6__ifcp_p.proof`` failing at line 10: it states Pw p, its cited lines give Pw q."""
    script = load_script("fcp6__ifcp_p.proof")
    return replace(script, lines=tuple(
        replace(line, formula=parse("Pw p")) if line.index == 10 else line for line in script.lines
    ))


class TestWeakPermissionSpelling:
    @pytest.mark.parametrize("name", [*bundled.fixture_names("proofs"), "mutant"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_respelled_pw_keeps_the_verdict(self, registry, name, data):
        # Hypotheses, body lines and goal respelled; justifications stay as written.
        script = _mutant() if name == "mutant" else load_script(name)
        formulas = [h.formula for h in script.hypotheses]
        formulas += [line.formula for line in script.lines] + [script.goal]
        n = sum(len(_modal_subformulas(f, PermW)) for f in formulas)
        flips = iter(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        respelled = ProofScript(
            script.system,
            tuple(Hypothesis(_respell(h.formula, flips), h.theorem) for h in script.hypotheses),
            tuple(replace(line, formula=_respell(line.formula, flips)) for line in script.lines),
            _respell(script.goal, flips),
        )
        before, after = check_proof(script, registry), check_proof(respelled, registry)
        assert (after.valid, after.line) == (before.valid, before.line)
        assert name != "mutant" or (before.valid, before.line) == (False, 10)


class TestSharedFormulas:
    # parse_proof_script parses each distinct formula text of a script once, so a restated
    # hypothesis or goal is the same node as its first reading; no verdict may depend on it.
    @pytest.mark.parametrize("name", [*bundled.fixture_names("proofs"), "mutant"])
    def test_unshared_nodes_give_the_same_result(self, registry, name):
        script = _mutant() if name == "mutant" else load_script(name)
        unshared = ProofScript(
            script.system,
            tuple(Hypothesis(parse(render(h.formula)), h.theorem) for h in script.hypotheses),
            tuple(replace(line, formula=parse(render(line.formula))) for line in script.lines),
            parse(render(script.goal)),
        )
        nodes = [h.formula for h in unshared.hypotheses]
        nodes += [line.formula for line in unshared.lines] + [unshared.goal]
        assert len(set(map(id, nodes))) == len(nodes)
        before, after = check_proof(script, registry), check_proof(unshared, registry)
        assert (after.valid, after.line, after.reason, after.tiers) == (
            before.valid, before.line, before.reason, before.tiers)

    def test_a_text_read_twice_gives_one_node(self):
        script = load_script("fcp3__ifcp_o.proof")
        assert script.lines[0].formula is script.hypotheses[0].formula
        assert script.goal is script.lines[-1].formula

    def test_a_hypothesis_restated_with_other_spacing_still_matches(self, registry):
        script = parse_proof_script(
            "system: FCP_1\nhyp: Ps(p | q)\nhyp: O ~p\ngoal: Ps q\n"
            "1. Ps( p|q ) ; hyp\n2. O~p ; hyp\n3. Ps q ; ifcp_o 1,2 side=taut\n"
        )
        assert script.lines[0].formula is not script.hypotheses[0].formula
        assert str(check_proof(script, registry)) == "Valid"


class TestCitationSpelling:
    # Cited lines may be separated by commas, whitespace or both.
    CASES = [
        ("E", ["p", "p -> q"], "q", "cpl {}"),
        ("E", ["p", "p -> q"], "q", "mp {}"),
        ("FCP_1", ["Ps(p | q)", "O ~p"], "Ps q", "ifcp_o {} side=taut"),
    ]

    @pytest.mark.parametrize("system,cited,derived,just", CASES)
    @pytest.mark.parametrize("refs", ["1 2", "1,2", "1, 2", "1 ,2"])
    def test_spellings_agree(self, registry, system, cited, derived, just, refs):
        lines = [f"{i}. {f} ; hyp" for i, f in enumerate(cited, start=1)]
        text = "\n".join(
            [f"system: {system}", *(f"hyp: {f}" for f in cited), f"goal: {derived}", *lines,
             f"3. {derived} ; {just.format(refs)}"]
        )
        script = parse_proof_script(text)
        assert script.lines[-1].justification.refs == (1, 2)
        assert check_proof(script, registry).valid


def test_a_parse_error_keeps_its_class_when_its_line_is_named():
    # A library caller can still catch the ParseError and read its position in the formula.
    with pytest.raises(ParseError) as info:
        parse_proof_script("system: E\ngoal: p\n1. p & ; hyp\n")
    assert str(info.value).startswith("line 1: unexpected end of input at position 3 (expected")
    assert info.value.position == 3 and "atom" in info.value.expected


class TestGuardedRuleRejections:
    # (system, cited lines, derived line, justification, expected reason)
    CASES = [
        ("FCP_1", ["Ps(p | q) & O p"], "Ps p & Ps q", "ifcp_p 1 taut taut",
         "main premise must be Ps(p | q) & Pw r & Pw s"),
        ("FCP_1", ["Ps(p | q) & Pw p & Pw q"], "Ps q & Ps p", "ifcp_p 1 taut taut",
         "conclusion must be Ps p & Ps q"),
        ("FCP_1", ["Ps(p | q) & Pw r & Pw q"], "Ps p & Ps q", "ifcp_p 1 taut taut",
         "side condition r -> p is not a tautology"),
        ("FCP_1", ["Ps(p | q) & Pw p & Pw q", "r -> p"], "Ps p & Ps q", "ifcp_p 1 taut 2",
         "tier violation: side condition must cite a theorem-tier line, line 2 is local"),
        ("FCP_5", ["Ps(p | q) & Pw p & Pw q"], "Ps p", "ifcp2_p 1 taut",
         "main premise must be Ps(p | q) & Pw r"),
        ("FCP_5", ["Ps(p | q) & Pw p"], "Ps q", "ifcp2_p 1 taut",
         "conclusion must be Ps p"),
        ("FCP_5", ["Ps(p | q) & Pw r"], "Ps p", "ifcp2_p 1 taut",
         "side condition r -> p is not a tautology"),
        ("FCP_1", ["Ps(p | q) & O ~p"], "Ps q", "ifcp_o , side=taut",
         "main premise must be Ps(p | q) & O r"),
    ]

    @pytest.mark.parametrize("system,cited,derived,just,reason", CASES)
    def test_rejected_with_reason(self, registry, system, cited, derived, just, reason):
        lines = [f"{i}. {f} ; hyp" for i, f in enumerate(cited, start=1)]
        text = "\n".join(
            [f"system: {system}", *(f"hyp: {f}" for f in cited), f"goal: {derived}", *lines,
             f"{len(cited) + 1}. {derived} ; {just}"]
        )
        result = check_proof(parse_proof_script(text), registry)
        assert not result.valid
        assert (result.line, result.reason) == (len(cited) + 1, reason)

    def test_wrong_cited_side_line(self, registry):
        text = """
        system: FCP_5
        hyp: Ps(p | q) & Pw(p & r)
        goal: Ps p
        1. Ps(p | q) & Pw(p & r) ; hyp
        2. p & r -> r ; taut
        3. Ps p ; ifcp2_p 1 2
        """
        result = check_proof(parse_proof_script(text), registry)
        assert (result.line, result.reason) == (3, "cited side line 2 does not state p & r -> p")


class TestTable1:
    @pytest.mark.parametrize("system", sorted(TABLE1_DERIVABLES))
    def test_derivability_suite(self, registry, system):
        report = verify_table1(system, registry)
        assert report.ok, report.render()

    def test_unlisted_rule_is_excluded_not_faked(self, registry):
        report = verify_table1("FCP_6", registry)
        skipped = [e for e in report.entries if e.result is None]
        assert [e.derivable for e in skipped] == ["IFCP2_O"]
        assert "excluded" in skipped[0].note

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_table1("E0")

    @pytest.mark.parametrize("system, derivable, script, reason", [
        # Each script is valid in its system but certifies another derivable.
        ("FCP_1", "AFCP_O", "fcp1__afcp_p.proof", "hypotheses and goal do not state AFCP_O"),
        ("FCP_3", "AFCP_O", "fcp3__ifcp_o.proof", "hypotheses and goal do not state AFCP_O"),
        ("FCP_3", "IFCP_O", "fcp3__ifcp_p.proof", "hypotheses and goal do not state IFCP_O"),
        ("FCP_6", "IFCP2_P", "fcp6__ifcp_o.proof", "hypotheses and goal do not state IFCP2_P"),
    ], ids=["axiom-goal", "axiom-with-hyp*", "rule-sides", "rule-binding"])
    def test_a_script_must_state_its_derivable(self, registry, monkeypatch, system, derivable,
                                               script, reason):
        entries = dict(TABLE1_DERIVABLES[system]) | {derivable: script}
        monkeypatch.setitem(TABLE1_DERIVABLES, system, tuple(entries.items()))
        assert check_proof(load_script(script), registry).valid
        report = verify_table1(system, registry)
        assert not report.ok
        (entry,) = [e for e in report.entries if e.derivable == derivable]
        assert (entry.result.valid, entry.result.reason) == (False, reason)

    @pytest.mark.parametrize("derivable, local, sides, goal, stated", [
        ("AFCP_O", [], [], "Ps(p | q) & O ~p -> Ps q", True),
        ("AFCP_O", ["Ps(p | q) & O ~p"], [], "Ps q", True),
        ("AFCP_O", ["Ps(b | a)", "O ~b"], [], "Ps a", True),  # the letters renamed
        ("AFCP_O", [], [], "Ps(p | p) & O ~p -> Ps p", False),  # an instance, not the schema
        ("AFCP_O", [], [], "Ps((p & r) | q) & O ~(p & r) -> Ps q", False),
        ("AFCP_O", [], [], "Ps(p | q) & O ~p -> Ps q | Ps p", False),
        ("AFCP_O", ["Ps(p | q) & O ~p"], ["p -> p"], "Ps q", False),  # a theorem-tier premise
        ("P_sP_w", [], [], "Ps p -> ~O ~p", True),  # Pw p spelled ~O~p
        ("IFCP_O", ["Ps(p | q) & O r"], ["r -> ~p"], "Ps q", True),
        ("IFCP_O", ["Ps(p | q)", "O r"], ["r -> ~p"], "Ps q", False),  # not one hyp line
        ("IFCP_O", ["Ps(p | q) & O r"], [], "Ps q", False),  # its side missing
        ("IFCP_P", ["Ps(p | q) & Pw r & Pw s"], ["s -> q", "r -> p"], "Ps p & Ps q", False),
    ])
    def test_a_derivable_is_stated_up_to_renaming_its_letters(self, derivable, local, sides,
                                                              goal, stated):
        hyps = ([Hypothesis(parse(h)) for h in local]
                + [Hypothesis(parse(h), theorem=True) for h in sides])
        script = ProofScript("FCP_6", tuple(hyps), (), parse(goal))
        assert (_misstatement(script, derivable) is None) == stated


class TestScenarios:
    def test_etiquette_detaches_eating(self, registry):
        res = run_scenario("etiquette", registry)
        assert res.ok
        assert [render(c) for c in res.conclusions] == ["Ps e"]
        assert "O ~s" in res.transcript()

    def test_online_return_reaches_packaging_obligation(self, registry):
        res = run_scenario("online-return", registry)
        assert res.ok
        assert [render(c) for c in res.conclusions] == ["O original"]

    def test_five_disjuncts_remainder_then_single_detachment(self, registry):
        res = run_scenario("five-disjuncts", registry)
        assert res.ok
        assert [render(c) for c in res.conclusions] == ["Ps(s | t)", "Ps t"]

    def test_explosion_demo_system_comes_from_fixture(self, registry):
        res = run_scenario("explosion", registry)
        assert res.ok
        assert res.entries[0][1].system == "EXPLOSION_DEMO"
        assert [render(c) for c in res.conclusions] == ["Ps p -> Ps q"]

    def test_controlled_explosion(self, registry):
        res = run_scenario("controlled-explosion", registry)
        assert res.ok
        assert [render(c) for c in res.conclusions] == ["Ps q"]

    def test_unknown_scenario(self, registry):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nonexistent", registry)

    def test_transcripts_are_stable(self, registry):
        a = run_scenario("five-disjuncts", registry).transcript()
        b = run_scenario("five-disjuncts", registry).transcript()
        assert a == b


class TestSoundnessSpotCheck:
    """Theorem-tier goals of bundled scripts are frame-valid on the
    adequate class of their system, and local-tier conclusions follow
    semantically from their hypotheses on that class."""

    @pytest.mark.parametrize(
        "scenario", ["etiquette", "online-return", "five-disjuncts", "controlled-explosion"]
    )
    def test_scenario_conclusions_semantically_entailed(self, registry, scenario):
        import random as _random
        import zlib

        from deontic import (
            NeighbourhoodModel, Obl, PermS, atoms as f_atoms, evaluate, truth_set,
        )

        from deontic import Atom, Not

        # crc32, unlike hash(), does not change with PYTHONHASHSEED
        rng = _random.Random(zlib.crc32(scenario.encode()))
        result = run_scenario(scenario, registry)
        assert result.ok
        hits = 0
        for script_name, script, _ in result.entries:
            props = frame_class(script.system)
            hyps = [h.formula for h in script.hypotheses]
            modal_obl = [f.operand for h in hyps for f in _modal_subformulas(h, Obl)]
            modal_perm = [f.operand for h in hyps for f in _modal_subformulas(h, PermS)]
            names = sorted(set().union(*(f_atoms(h) for h in hyps)))
            # at least 400 samples per script, more until 10 hits, up to a cap
            for drawn in range(4000):
                if drawn >= 400 and hits >= 10:
                    break
                base = satisfying_frame(rng, set(), max_worlds=3)
                home = base.worlds[0]
                valuation = {
                    a: frozenset(w for w in base.worlds if rng.random() < 0.6) for a in names
                }
                # literal hypotheses are facts at the evaluation world
                for h in hyps:
                    if isinstance(h, Atom):
                        valuation[h.name] = valuation[h.name] | {home}
                    elif isinstance(h, Not) and isinstance(h.operand, Atom):
                        valuation[h.operand.name] = valuation[h.operand.name] - {home}
                staged = NeighbourhoodModel(base.worlds, base.n_obl, base.n_perm, valuation)
                n_obl = {w: set(col) for w, col in staged.n_obl.items()}
                n_perm = {w: set(col) for w, col in staged.n_perm.items()}
                for f in modal_obl:
                    n_obl[home].add(truth_set(staged, f))
                for f in modal_perm:
                    n_perm[home].add(truth_set(staged, f))
                m = NeighbourhoodModel(
                    base.worlds,
                    {w: frozenset(c) for w, c in n_obl.items()},
                    {w: frozenset(c) for w, c in n_perm.items()},
                    valuation,
                )
                for _ in range(40):
                    progress = False
                    for p in props:
                        repaired = _repair(m, p)
                        if repaired is not None:
                            m, progress = repaired, True
                    if not progress:
                        break
                else:
                    continue
                if all(evaluate(m, home, h) for h in hyps):
                    hits += 1
                    assert evaluate(m, home, script.goal), (script_name, home, m)
        assert hits >= 10, f"too few satisfying samples for {scenario} ({hits})"

    def test_theorem_goals_valid_on_adequate_frames(self, registry):
        rng = random.Random(7)
        checked = 0
        for system, entries in TABLE1_DERIVABLES.items():
            props = frame_class(system)
            for _, script_name in entries:
                if script_name is None:
                    continue
                script = load_script(script_name)
                result = check_proof(script, registry)
                assert result.valid
                if result.tiers[script.lines[-1].index] != "theorem":
                    continue
                target = Schema(script.goal, atoms(script.goal))
                for _ in range(200 // 8):
                    m = satisfying_frame(rng, props, max_worlds=4)
                    assert schema_valid_on_frame(m, target) is None, (script_name, m)
                checked += 1
        assert checked >= 7  # at least the consistency-lift script per system
