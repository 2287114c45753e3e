"""Two-tier Hilbert-style proof checking.

A script runs in a named system and carries two kinds of premises:

* local hypotheses (contingent facts; header ``hyp:``), and
* theorem-tier hypotheses (schematic ``|-`` premises used when a script
  demonstrates that an inference rule is derivable; header ``hyp*:``).

Each derivation line earns a tier.  Theorem-tier lines only ever depend
on theorem-tier material; a line citing any local line is local.  The
replacement and monotonicity rules demand theorem-tier inputs: there is
no deduction theorem here, so applying them under a hypothesis would be
unsound.  The guarded-permission rules take their main premise from
either tier and conclude at that tier, while their side conditions must
be theorem-tier lines or tautology certificates.

Weak-permission formulas are interchangeable with their ``~O~`` spelling
everywhere: each hypothesis, body line and goal is rewritten with
``expand_pw`` once, where it enters the checker, and the checker keeps and
compares only that form, so ``Pw p`` and ``~O~p`` justify each other.

``parse_proof_script`` parses each distinct formula text once per script:
a ``; hyp`` line that restates a hypothesis, or a goal that restates the
last line, gets the same immutable nodes, which then compare by identity.

Script text format::

    # comment
    system: FCP_2
    hyp: Ps(p | ~p)
    hyp*: r -> p
    goal: Ps q
    1. Ps(p | ~p) ; hyp
    2. Ps(q | (p | ~p)) ; re 1 Ps
    ...

Body-line justifications:

    hyp                     formula is a declared hypothesis
    taut                    propositional tautology under modal abstraction
    ax NAME [{p: f, ...}]   instance of a system axiom (substitution optional)
    mp I J                  modus ponens from two cited lines
    cpl I[,J,...]           tautological consequence of the cited lines
    re I MOD                replacement of equivalents (MOD in O, Ps, Pw):
                            either the strict form (cited theorem line A <-> B,
                            current line [A] <-> [B]) or the applied form
                            (cited line [A], current line [B], with A <-> B a
                            tautology; concludes at the cited line's tier)
    rm I MOD                monotonicity: cited theorem line A -> B, current
                            line [A] -> [B]; needs RM or the M axiom for MOD
    ifcp_o I[,J] side=K|taut
    ifcp_p I[,J] K|taut L|taut
    ifcp2_p I[,J] K|taut    guarded-permission rules; the main premise may be
                            one conjunction line or separate cited lines
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import reduce

from .formula import (
    And, Atom, Formula, Iff, Implies, Not, Obl, ParseError, PermS, PermW, Schema,
    expand_pw, flatten, instantiate, is_tautology, match_schema, parse, render,
    tautological_consequence,
)
from . import bundled
from .frames import (
    GUARDED_RULES, classify_frame, entailment_closure, rule_valid_on_frame,
    schema_valid_on_frame,
)
from .model import model_to_dict
from .search import (
    CountermodelReport, RemainderResult, SearchBounds, compute_remainder, find_countermodel,
)
from .systems import FRAME_CLASSES, SCHEMAS, SystemDef, SystemRegistry, frame_class

__all__ = [
    "Hypothesis", "Justification", "ProofLine", "ProofScript", "ProofResult",
    "parse_proof_script", "check_proof", "scenario_registry",
    "verify_table1", "Table1Report", "SCENARIOS", "run_scenario", "ScenarioResult",
    "strength_lattice", "StrengthLattice", "Relation",
]


@dataclass(frozen=True)
class Hypothesis:
    formula: Formula
    theorem: bool = False


@dataclass(frozen=True)
class Justification:
    kind: str
    refs: tuple[int, ...] = ()
    modality: str | None = None
    schema: str | None = None
    subst: tuple[tuple[str, Formula], ...] | None = None
    sides: tuple[object, ...] = ()  # line indices or the marker "taut"


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification
    justification_text: str  # as written in the script


@dataclass(frozen=True)
class ProofScript:
    system: str
    hypotheses: tuple[Hypothesis, ...]
    lines: tuple[ProofLine, ...]
    goal: Formula


@dataclass(frozen=True)
class ProofResult:
    valid: bool
    line: int | None = None
    reason: str | None = None
    tiers: dict[int, str] = field(default_factory=dict, compare=False)

    def render(self) -> str:
        if self.valid:
            return "Valid"
        where = f"line {self.line}: " if self.line is not None else ""
        return f"Invalid ({where}{self.reason})"

    __str__ = render

    def to_dict(self) -> dict:
        return {"valid": self.valid, "line": self.line, "reason": self.reason}


# ---------------------------------------------------------------------------
# Script text format

_BODY_LINE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(.*)$")
_AX = re.compile(r"^(\w+)\s*(\{.*\})?$")
# Justification keyword of each guarded rule (ifcp_o, ...), and the label its sides carry.
_GUARDED_KINDS = {name.lower(): name for name in GUARDED_RULES}
_SIDE_LABEL = {"ifcp_o": "side="}
# What follows each keyword: the cited lines, then one "taut" or line number per side.
_GUARDED_FORMS = {
    kind: re.compile(r"([\d,\s]+?)" + (r"\s+" + _SIDE_LABEL.get(kind, "") + r"(taut|\d+)")
                     * len(GUARDED_RULES[name].sides) + "$")
    for kind, name in _GUARDED_KINDS.items()
}
_BOXES = {c.symbol: c for c in (Obl, PermS, PermW)}  # the modalities of re and rm


def _parse_refs(text: str) -> tuple[int, ...]:
    """Cited line numbers, separated by commas, whitespace or both."""
    parts = text.replace(",", " ").split()
    if bad := [part for part in parts if not part.isdecimal()]:
        raise ValueError(f"cited line {bad[0]!r} is not a line number")
    return tuple(map(int, parts))


def _parse_subst(text: str) -> tuple[tuple[str, Formula], ...]:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return ()
    pairs = []
    for chunk in inner.split(","):
        name, _, formula_text = chunk.partition(":")
        if not _:
            raise ValueError(f"malformed substitution entry {chunk!r}")
        try:
            pairs.append((name.strip(), parse(formula_text)))
        except ParseError as exc:  # whose position would count from the entry, not the line
            raise ValueError(f"malformed substitution entry {chunk.strip()!r}") from exc
    return tuple(pairs)


def _side(token: str) -> object:
    return "taut" if token == "taut" else int(token)


def _parse_justification(text: str) -> Justification:
    text = text.strip()
    kind, _, rest = text.partition(" ")
    rest = rest.strip()
    if kind == "hyp" and not rest:
        return Justification("hyp")
    if kind == "taut" and not rest:
        return Justification("taut")
    if kind == "ax":
        m = _AX.match(rest)
        if not m:
            raise ValueError(f"malformed axiom justification {text!r}")
        name, subst_text = m.groups()
        subst = _parse_subst(subst_text) if subst_text else None
        return Justification("ax", schema=name, subst=subst)
    if kind == "mp":
        refs = _parse_refs(rest)
        if len(refs) != 2:
            raise ValueError(f"mp needs exactly two line numbers: {text!r}")
        return Justification("mp", refs=refs)
    if kind == "cpl":
        refs = _parse_refs(rest)
        if not refs:
            raise ValueError(f"cpl needs at least one cited line: {text!r}")
        return Justification("cpl", refs=refs)
    if kind in ("re", "rm"):
        parts = rest.split()
        if len(parts) != 2 or parts[1] not in _BOXES:
            raise ValueError(f"{kind} needs a line number and a modality (O, Ps, Pw): {text!r}")
        return Justification(kind, refs=(int(parts[0]),), modality=parts[1])
    if kind in _GUARDED_FORMS:
        m = _GUARDED_FORMS[kind].match(rest)
        if not m:
            raise ValueError(f"malformed {kind} justification {text!r}")
        refs, *sides = m.groups()
        return Justification(kind, refs=_parse_refs(refs), sides=tuple(map(_side, sides)))
    raise ValueError(f"unknown justification {text!r}")


def parse_proof_script(text: str) -> ProofScript:
    system = None
    hypotheses: list[Hypothesis] = []
    goal = None
    lines: list[ProofLine] = []
    read: dict[str, Formula] = {}  # each distinct formula text of this script, parsed once

    def formula(source: str) -> Formula:
        f = read.get(source)
        if f is None:
            f = read[source] = parse(source)
        return f

    try:
        for raw in text.splitlines():
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            header, _, value = stripped.partition(":")
            if header == "system" and system is not None or header == "goal" and goal is not None:
                raise ValueError(f"script declares '{header}:' twice")
            if header == "system":
                system = value.strip()
            elif header in ("hyp", "hyp*"):
                hypotheses.append(Hypothesis(formula(value.strip()), theorem=header == "hyp*"))
            elif header == "goal":
                goal = formula(value.strip())
            elif m := _BODY_LINE.match(stripped):
                index, body, just = m.groups()
                lines.append(ProofLine(int(index), formula(body), _parse_justification(just), just))
            else:
                raise ValueError("malformed script line")
    except ValueError as exc:  # named by its proof line number or header, its class kept
        m = _BODY_LINE.match(stripped)
        exc.args = (f"{f'line {m[1]}' if m else header}: {exc}",)
        raise
    if system is None:
        raise ValueError("script is missing a 'system:' header")
    if goal is None:
        raise ValueError("script is missing a 'goal:' header")
    return ProofScript(system, tuple(hypotheses), tuple(lines), goal)


# ---------------------------------------------------------------------------
# Checking

def _cited(j: Justification) -> tuple[int, ...]:
    extra = tuple(s for s in j.sides if isinstance(s, int))
    return j.refs + extra


def _join_tiers(tiers) -> str:
    return "local" if "local" in tiers else "theorem"


def _mk_box(mod: str, x: Formula) -> Formula:
    box = _BOXES[mod]
    return Not(Obl(Not(x))) if box is PermW else box(x)  # Pw in normalised form


def _box_operand(f: Formula, mod: str) -> Formula | None:
    """Destructure a normalised formula as [mod] applied to an operand."""
    box = _BOXES[mod]
    if box is not PermW:
        return f.operand if type(f) is box else None
    match f:
        case Not(Obl(Not(x))):
            return x
    return None


# What an ``ax`` line without a substitution and a guarded rule's main premise are matched
# against: the fixed schema bodies, in ``expand_pw`` form, normalised once.
_NORMAL_AXIOMS = {name: Schema(expand_pw(s.body), s.metavars) for name, s in SCHEMAS.items()}
_NORMAL_PREMISES = {name: Schema(expand_pw(rule.premise.body), rule.premise.metavars)
                    for name, rule in GUARDED_RULES.items()}


class _Checker:
    """Checks lines against ``hyps`` and the earlier lines' ``forms``, all in ``expand_pw`` form."""

    def __init__(self, system: SystemDef, hyps: list[tuple[Formula, bool]]):
        self.system = system
        self.hyps = hyps
        self.forms: dict[int, Formula] = {}
        self.tiers: dict[int, str] = {}

    def check_line(self, j: Justification, f: Formula) -> str:
        """The tier of a line stating ``f`` (normalised), or an error message."""
        if j.kind in _GUARDED_KINDS:
            return self._check_guarded(j, f)
        return getattr(self, f"_check_{j.kind}")(j, f)

    # --- individual justifications -------------------------------------

    def _check_hyp(self, j, f):
        for hf, theorem in self.hyps:
            if hf == f:
                return "theorem" if theorem else "local"
        return "formula is not among the declared hypotheses"

    def _check_taut(self, j, f):
        if is_tautology(f):
            return "theorem"
        return "not a propositional tautology under modal abstraction"

    def _check_ax(self, j, f):
        name = j.schema
        if name not in SCHEMAS:
            return f"unknown axiom schema {name!r}"
        if name not in self.system.axioms:
            return f"{name} is not an axiom of {self.system.name}"
        sch = SCHEMAS[name]
        if j.subst is not None:
            given = [var for var, _ in j.subst]
            for i, var in enumerate(given):
                if var not in sch.metavars:
                    return f"{name} has no metavariable {var!r}"
                if var in given[:i]:
                    return f"substitution names metavariable {var!r} twice"
            try:
                inst = instantiate(sch, dict(j.subst))
            except ValueError as exc:
                return str(exc)
            if expand_pw(inst) != f:
                return f"line is not the stated instance of {name}"
        elif match_schema(_NORMAL_AXIOMS[name], f) is None:
            return f"line does not match any instance of {name}"
        return "theorem"

    def _check_mp(self, j, f):
        i, k = j.refs
        for prem, impl in ((i, k), (k, i)):
            g = self.forms[impl]
            if isinstance(g, Implies) and g.left == self.forms[prem] and g.right == f:
                return _join_tiers((self.tiers[i], self.tiers[k]))
        return "modus ponens does not apply to the cited lines"

    def _check_cpl(self, j, f):
        premises = [self.forms[r] for r in j.refs]
        if tautological_consequence(premises, f):
            return _join_tiers(self.tiers[r] for r in j.refs)
        return "not a tautological consequence of the cited lines"

    def _check_re(self, j, f):
        (i,) = j.refs
        mod = j.modality
        cited = self.forms[i]
        if isinstance(cited, Iff):
            expected = Iff(_mk_box(mod, cited.left), _mk_box(mod, cited.right))
            if expected != f:
                return "line is not the boxed form of the cited equivalence"
            if self.tiers[i] != "theorem":
                return "tier violation: replacement of equivalents needs a theorem-tier equivalence"
            return "theorem"
        a = _box_operand(cited, mod)
        if a is None:
            return f"cited line is neither an equivalence nor a {mod} formula"
        b = _box_operand(f, mod)
        if b is None:
            return f"line is not a {mod} formula"
        if not is_tautology(Iff(a, b)):
            return "operands of the cited and current formulas are not tautologically equivalent"
        return self.tiers[i]

    def _check_rm(self, j, f):
        (i,) = j.refs
        mod = j.modality
        if not self.system.admits_rm(mod):
            return f"monotonicity for {mod} is not available in {self.system.name}"
        cited = self.forms[i]
        if not isinstance(cited, Implies):
            return "cited line is not an implication"
        if self.tiers[i] != "theorem":
            return "tier violation: monotonicity needs a theorem-tier implication"
        expected = Implies(_mk_box(mod, cited.left), _mk_box(mod, cited.right))
        if expected != f:
            return "line is not the boxed form of the cited implication"
        return "theorem"

    def _side_ok(self, side, expected: Formula) -> str | None:
        if side == "taut":
            if is_tautology(expected):
                return None
            return f"side condition {render(expected)} is not a tautology"
        if self.tiers[side] != "theorem":
            return f"tier violation: side condition must cite a theorem-tier line, line {side} is local"
        if self.forms[side] != expected:
            return f"cited side line {side} does not state {render(expected)}"
        return None

    def _check_guarded(self, j, f):
        name = _GUARDED_KINDS[j.kind]
        if name not in self.system.rules:
            return f"rule {name} is not part of {self.system.name}"
        rule = GUARDED_RULES[name]
        # Conjuncts re-joined left to right, so the cited lines may split the premise anywhere.
        parts = [part for r in j.refs for part in flatten(self.forms[r], And)]
        binding = match_schema(_NORMAL_PREMISES[name], reduce(And, parts)) if parts else None
        if binding is None:
            return f"main premise must be {render(rule.premise.body)}"
        conclusion = expand_pw(instantiate(rule.conclusion, binding))
        if f != conclusion:
            return f"conclusion must be {render(conclusion)}"
        for side, expected in zip(j.sides, rule.sides):
            err = self._side_ok(side, expand_pw(instantiate(expected, binding)))
            if err:
                return err
        return _join_tiers(self.tiers[i] for i in j.refs)


def check_proof(script: ProofScript, registry: SystemRegistry | None = None) -> ProofResult:
    """Deterministic line-by-line validation; reports the first failing line."""
    registry = registry or SystemRegistry.standard()
    try:
        system = registry.get(script.system)
    except ValueError as exc:
        return ProofResult(False, None, str(exc))
    if not script.lines:
        return ProofResult(False, None, "script has no derivation lines")

    checker = _Checker(system, [(expand_pw(h.formula), h.theorem) for h in script.hypotheses])
    for pos, line in enumerate(script.lines, start=1):
        if line.index != pos:
            return ProofResult(False, line.index, f"expected line number {pos}", dict(checker.tiers))
        for r in _cited(line.justification):
            if not 1 <= r < line.index:
                return ProofResult(
                    False, line.index, f"citation of line {r} is out of order", dict(checker.tiers)
                )
        f = expand_pw(line.formula)
        outcome = checker.check_line(line.justification, f)
        if outcome not in ("theorem", "local"):
            return ProofResult(False, line.index, outcome, dict(checker.tiers))
        checker.tiers[line.index] = outcome
        checker.forms[line.index] = f

    last = script.lines[-1]
    if checker.forms[last.index] != expand_pw(script.goal):
        return ProofResult(
            False, last.index, "last line does not establish the declared goal", dict(checker.tiers)
        )
    return ProofResult(True, None, None, dict(checker.tiers))


# ---------------------------------------------------------------------------
# Bundled derivability suite

def load_script(name: str) -> ProofScript:
    return parse_proof_script(bundled.fixture_text(f"proofs/{name}"))


def scenario_registry() -> SystemRegistry:
    """Standard systems plus every bundled diagnostic system definition."""
    registry = SystemRegistry.standard()
    for data in bundled.system_definitions():
        registry.define_from_dict(data)
    return registry


TABLE1_DERIVABLES: dict[str, tuple[tuple[str, str | None], ...]] = {
    "Min": (("P_sP_w", "min__ps_pw.proof"),),
    "FCP_1": (
        ("P_sP_w", "fcp1__ps_pw.proof"),
        ("AFCP_O", "fcp1__afcp_o.proof"),
        ("AFCP_P", "fcp1__afcp_p.proof"),
    ),
    "FCP_2": (("P_sP_w", "fcp2__ps_pw.proof"), ("AFCP2_P", "fcp2__afcp2_p.proof")),
    "FCP_3": (
        ("P_sP_w", "fcp3__ps_pw.proof"),
        ("IFCP_O", "fcp3__ifcp_o.proof"),
        ("IFCP_P", "fcp3__ifcp_p.proof"),
    ),
    "FCP_4": (
        ("P_sP_w", "fcp4__ps_pw.proof"),
        ("AFCP_P", "fcp4__afcp_p.proof"),
    ),
    "FCP_5": (
        ("P_sP_w", "fcp5__ps_pw.proof"),
        ("IFCP_P", "fcp5__ifcp_p.proof"),
        ("AFCP_O", "fcp5__afcp_o.proof"),
        ("AFCP_P", "fcp5__afcp_p.proof"),
        ("AFCP2_P", "fcp5__afcp2_p.proof"),
    ),
    "FCP_6": (
        ("P_sP_w", "fcp6__ps_pw.proof"),
        ("IFCP_P", "fcp6__ifcp_p.proof"),
        ("AFCP_O", "fcp6__afcp_o.proof"),
        ("AFCP_P", "fcp6__afcp_p.proof"),
        ("AFCP2_P", "fcp6__afcp2_p.proof"),
        ("IFCP2_P", "fcp6__ifcp2_p.proof"),
        ("IFCP_O", "fcp6__ifcp_o.proof"),
        # IFCP2_O appears in the source inventory for this system but no rule
        # of that name is defined anywhere; it is excluded from verification.
        ("IFCP2_O", None),
    ),
}


@dataclass
class Table1Entry:
    derivable: str
    script: str | None
    result: ProofResult | None
    note: str = ""


@dataclass
class Table1Report:
    system: str
    entries: list[Table1Entry]

    @property
    def ok(self) -> bool:
        return all(e.result.valid for e in self.entries if e.result is not None)

    def render(self) -> str:
        out = [f"{self.system}:"]
        for e in self.entries:
            if e.result is None:
                out.append(f"  {e.derivable:10s} SKIPPED  {e.note}")
            else:
                status = "ok" if e.result.valid else f"FAIL ({e.result})"
                out.append(f"  {e.derivable:10s} {status}  [{e.script}]")
        return "\n".join(out)

    def to_dict(self) -> dict:
        """Each entry's ``result`` is None for a skipped derivable, whose ``note`` says why."""
        return {
            "system": self.system,
            "ok": self.ok,
            "entries": [
                {"derivable": e.derivable, "script": e.script,
                 "result": e.result.to_dict() if e.result is not None else None, "note": e.note}
                for e in self.entries
            ],
        }


def verify_table1(system: str, registry: SystemRegistry | None = None) -> Table1Report:
    """Check every bundled derivability script for one system."""
    if system not in TABLE1_DERIVABLES:
        known = ", ".join(TABLE1_DERIVABLES)
        raise ValueError(f"no derivability suite for {system!r} (available: {known})")
    registry = registry or scenario_registry()
    entries = []
    for derivable, script_name in TABLE1_DERIVABLES[system]:
        if script_name is None:
            entries.append(
                Table1Entry(derivable, None, None, "no rule of this name is defined; excluded")
            )
            continue
        script = load_script(script_name)
        if script.system != system:
            raise ValueError(f"script {script_name} targets {script.system}, not {system}")
        result = check_proof(script, registry)
        misstated = result.valid and _misstatement(script, derivable)
        entries.append(Table1Entry(derivable, script_name,
                                   ProofResult(False, None, misstated) if misstated else result))
    return Table1Report(system, entries)


def _misstatement(script: ProofScript, derivable: str) -> str | None:
    """Why ``script`` does not state ``derivable``, or None.  An axiom is its ``hyp`` lines'
    conjunction implying the goal, or the goal alone, with no ``hyp*`` line; a rule is one ``hyp``
    line, the ``hyp*`` lines and the goal, under one renaming of its letters to distinct atoms."""
    local = [h.formula for h in script.hypotheses if not h.theorem]
    sides = [h.formula for h in script.hypotheses if h.theorem]
    if derivable in SCHEMAS:
        pattern, shaped = SCHEMAS[derivable], not sides
        stated = Implies(reduce(And, local), script.goal) if local else script.goal
    else:
        rule = GUARDED_RULES[derivable]
        parts = [rule.premise, *rule.sides, rule.conclusion]
        pattern = Schema(reduce(And, [part.body for part in parts]), rule.premise.metavars)
        shaped = len(local) == 1 and len(sides) == len(rule.sides)
        stated = reduce(And, [*local, *sides, script.goal])
    binding = match_schema(Schema(expand_pw(pattern.body), pattern.metavars), expand_pw(stated))
    renamed = {f for f in binding.values() if isinstance(f, Atom)} if binding else set()
    if not shaped or binding is None or len(renamed) < len(binding):
        return f"hypotheses and goal do not state {derivable}"
    return None


# ---------------------------------------------------------------------------
# Scenarios

SCENARIOS: dict[str, tuple[str, ...]] = {
    "explosion": ("explosion.proof",),
    "controlled-explosion": ("controlled_explosion.proof",),
    "etiquette": ("etiquette.proof",),
    "online-return": ("online_return.proof",),
    "five-disjuncts": ("five_disjuncts.proof", "five_disjuncts_extended.proof"),
}

# Remainder steps replayed after a scenario's scripts: the disjuncts, then the atoms
# whose negation is obligatory before and after one more obligation is added.
_SCENARIO_REMAINDERS = {"five-disjuncts": ("pqrst", ("pqr", "pqrs"))}


@dataclass
class ScenarioResult:
    name: str
    entries: list[tuple[str, ProofScript, ProofResult]]
    conclusions: list[Formula]

    @property
    def ok(self) -> bool:
        return all(result.valid for _, _, result in self.entries)

    @property
    def remainders(self) -> tuple[RemainderResult, ...]:
        """Remainders replayed after the scripts, before and after the added obligation, if any."""
        if self.name not in _SCENARIO_REMAINDERS:
            return ()
        disjuncts, forbidden_sets = _SCENARIO_REMAINDERS[self.name]
        return tuple(
            compute_remainder([Atom(a) for a in disjuncts], [Obl(Not(Atom(a))) for a in forbidden])
            for forbidden in forbidden_sets
        )

    def render(self) -> str:
        """The transcript, then the remainder before and after the added obligation."""
        out = [self.transcript()]
        remainders = self.remainders
        if remainders:
            base, extended = remainders
            out.append("remainder after " + ", ".join(render(ob) for _, ob in base.eliminated)
                       + ": " + render(PermS(base.surviving_disjunction())))
            added = extended.eliminated[len(base.eliminated):]
            out.append("adding " + ", ".join(render(ob) for _, ob in added) + " detaches: "
                       + ", ".join(render(PermS(d)) for d in extended.detached))
        return "\n".join(out)

    def to_dict(self) -> dict:
        """Per script its hypotheses, and per line the formula, justification and tier earned."""
        return {
            "scenario": self.name,
            "ok": self.ok,
            "scripts": [
                {
                    "script": script_name,
                    "system": script.system,
                    "hypotheses": [{"formula": render(h.formula), "theorem": h.theorem}
                                   for h in script.hypotheses],
                    "lines": [{"line": line.index, "formula": render(line.formula),
                               "justification": line.justification_text,
                               "tier": result.tiers.get(line.index)}
                              for line in script.lines],
                    "result": result.to_dict(),
                }
                for script_name, script, result in self.entries
            ],
            "derived": [render(c) for c in self.conclusions],
            "remainders": [r.to_dict() for r in self.remainders],
        }

    def transcript(self) -> str:
        out = [f"scenario: {self.name}"]
        for script_name, script, result in self.entries:
            out.append(f"-- {script_name} (system {script.system})")
            for h in script.hypotheses:
                marker = "|- " if h.theorem else ""
                out.append(f"   given: {marker}{render(h.formula)}")
            for line in script.lines:
                out.append(f"   {line.index:2d}. {render(line.formula):42s} "
                           f"{line.justification_text}")
            out.append(f"   => {result}")
        if self.conclusions:
            out.append("derived: " + "; ".join(render(c) for c in self.conclusions))
        return "\n".join(out)


def run_scenario(name: str, registry: SystemRegistry | None = None) -> ScenarioResult:
    """Replay a bundled scenario and report the detached conclusions."""
    try:
        script_names = SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise ValueError(f"unknown scenario {name!r} (available: {known})") from None
    registry = registry or scenario_registry()
    entries = []
    conclusions = []
    for script_name in script_names:
        script = load_script(script_name)
        result = check_proof(script, registry)
        entries.append((script_name, script, result))
        if result.valid:
            conclusions.append(script.goal)
    return ScenarioResult(name, entries, conclusions)


# ---------------------------------------------------------------------------
# Strength lattice

# Bounds of every separator search; each one finds its frame or exhausts in well under a second.
SEPARATOR_BOUNDS = SearchBounds(3, 3, ("a", "b", "c", "d"))


@dataclass
class Relation:
    """An equality or covering relation between built-in systems, with its evidence.

    ``kind`` is "=", "<", or "<=" when no search found a separator; ``note`` then says
    whether the two frame classes are the same.  ``scripts`` put each system's axioms and
    rules in the other (for "=") or in ``upper``.  ``searches`` look, under ``lower``'s frame
    class, for a frame falsifying an axiom or rule of ``upper``; a found one must re-verify.
    """

    lower: str
    upper: str
    kind: str
    scripts: tuple[str, ...]
    searches: list[tuple[str, CountermodelReport]] = field(default_factory=list)
    note: str = ""
    verified: bool = True

    def render(self) -> str:
        head = f"{self.lower} {self.kind} {self.upper}"
        out = [head + (f": {self.note}" if self.note else "")]
        out += [f"    script {name}" for name in self.scripts]
        for target, report in self.searches:
            out.append(f"    separator for {target}: {report.render().splitlines()[0]}")
            if report.found:
                status = "re-verified" if self.verified else "FAILED re-verification"
                out.append(f"        {status} at {report.world}: "
                           + json.dumps(model_to_dict(report.model)))
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {"lower": self.lower, "relation": self.kind, "upper": self.upper,
                "note": self.note, "scripts": list(self.scripts), "verified": self.verified,
                "searches": [{"target": t, **r.to_dict()} for t, r in self.searches]}


@dataclass
class StrengthLattice:
    relations: list[Relation]
    failed_scripts: list[tuple[str, ProofResult]]
    chain: str | None  # the order in one line, when it is total

    @property
    def ok(self) -> bool:
        return not self.failed_scripts and all(r.verified for r in self.relations)

    def render(self) -> str:
        out = [r.render() for r in self.relations]
        out += [f"script {name}: FAIL ({result})" for name, result in self.failed_scripts]
        if self.chain:
            out.append(f"order: {self.chain}")
        pending = ", ".join(f"{r.lower} <= {r.upper}" for r in self.relations if r.kind == "<=")
        out.append("lattice verification FAILED" if not self.ok
                   else f"lattice verified except pending: {pending}" if pending
                   else "lattice verified")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "chain": self.chain,
                "relations": [r.to_dict() for r in self.relations],
                "failed_scripts": [{"script": n, "result": r.to_dict()}
                                   for n, r in self.failed_scripts]}


def _falsifies(model, target: str) -> bool:
    if target in SCHEMAS:
        return schema_valid_on_frame(model, SCHEMAS[target]) is not None
    return rule_valid_on_frame(model, target) is not None


def strength_lattice(registry: SystemRegistry | None = None) -> StrengthLattice:
    """The strength order of the built-in systems, computed from their axioms and rules.

    A <= B when each axiom and non-base rule of A is one of B's, or is certified by a valid
    Table 1 script of a built-in system whose own axioms and rules B has; the relation is then
    closed under transitivity.  Systems below each other are equal.  For each covering
    A < B, the bounded search looks under A's frame class for a frame falsifying an axiom or
    rule of B that A does not derive; the first one found, re-verified, separates them.
    """
    registry = registry or scenario_registry()
    systems = [registry.get(name) for name in FRAME_CLASSES]
    names = [d.name for d in systems]
    tables = [verify_table1(name, registry) for name in TABLE1_DERIVABLES]
    certified = [(t.system, e) for t in tables for e in t.entries
                 if e.result is not None and e.result.valid]

    def derived(b) -> dict[str, tuple[str, ...]]:
        # Each axiom or rule b has, with the script certifying it (b's own scripts first).
        out = {x: () for x in b.own}
        for system, e in sorted(certified, key=lambda c: c[0] != b.name):
            if registry.get(system).own <= b.own:
                out.setdefault(e.derivable, (e.script,))
        return out

    def unique(scripts) -> tuple[str, ...]:
        return tuple(dict.fromkeys(scripts))

    has = {d.name: derived(d) for d in systems}
    le = {(a.name, b.name): unique(s for x in sorted(a.own) for s in has[b.name][x])
          for a in systems for b in systems if a.own <= has[b.name].keys()}
    for k in names:
        for i in names:
            for j in names:
                if (i, k) in le and (k, j) in le and (i, j) not in le:
                    le[i, j] = unique(le[i, k] + le[k, j])

    rep = {x: next(y for y in names if (x, y) in le and (y, x) in le) for x in names}
    relations = [Relation(rep[x], x, "=", unique(le[rep[x], x] + le[x, rep[x]]))
                 for x in names if rep[x] != x]
    # Each class by its first member, lowest first: fewest systems below it.
    reps = sorted(dict.fromkeys(rep.values()), key=lambda x: sum((c, x) in le for c in names))
    below = {(a, b) for a in reps for b in reps if (a, b) in le and (b, a) not in le}
    covers = [(a, b) for a in reps for b in reps if (a, b) in below
              and not any((a, c) in below and (c, b) in below for c in reps)]
    for a, b in covers:
        known = set().union(*(has[c] for c in names if (c, a) in le))
        rel = Relation(a, b, "<=", le[a, b])
        for target in sorted(registry.get(b).own - known):
            report = find_countermodel(SCHEMAS.get(target, target), frame_class(a),
                                       SEPARATOR_BOUNDS)
            rel.searches.append((target, report))
            if report.found:
                rel.kind = "<"
                rel.verified = (classify_frame(report.model) >= frame_class(a)
                                and _falsifies(report.model, target))
                break
        else:
            same = entailment_closure(frame_class(a)) == entailment_closure(frame_class(b))
            rel.note = "same frame class; derivation pending" if same else "undecided up to bounds"
        relations.append(rel)

    chain = None
    if covers == list(zip(reps, reps[1:])):
        classes = [" = ".join(x for x in names if rep[x] == r) for r in reps]
        kinds = [rel.kind for rel in relations if rel.kind != "="]
        chain = classes[0] + "".join(f" {k} {c}" for k, c in zip(kinds, classes[1:]))
    failed = [(e.script, e.result) for t in tables for e in t.entries
              if e.result is not None and not e.result.valid]
    return StrengthLattice(relations, failed, chain)
