"""Registry of the deontic systems and their adequate frame classes.

Built-in systems (axioms are named schemata; every system additionally
carries the base rules MP, Taut, RE_O, RE_Ps):

    E      (no axioms)
    Min    = E     + D_s, D_w
    FCP_1  = Min   + rules IFCP_O, IFCP_P
    FCP_2  = Min   + AFCP_O, AFCP_P
    FCP_3  = FCP_2 + M_O, M_Ps
    FCP_4  = Min   + AFCP_O, AFCP2_P
    FCP_5  = Min   + rules IFCP_O, IFCP2_P
    FCP_6  = FCP_4 + M_O, M_Ps

A built-in system's adequate frame class is read off its axioms and
rules: ``CONDITIONS`` maps each of them to its frame condition (the M
axioms to supplementation, the D axioms to coherence, each guarded axiom
and rule to its own condition).  User-defined systems carry no class.
How the built-in systems are ordered by strength is computed, not
recorded: see ``proof.strength_lattice``.

A witness violating a condition is rechecked as an instance of its axiom
or rule false at its world (``recheck_witness``): the witness's sets
stand for a rule's letters as ``GuardedRule.letters`` say, and for an
axiom's as its ``WITNESS_LETTERS`` entry says (``D_s``: p := ~x).

Monotonicity (RM) is not stored for FCP_3 and FCP_6: the proof checker
admits RM lines for a modality exactly when the matching M axiom is
present (or RM itself is listed, as in diagnostic systems).

Adding *unrestricted* free choice permission to a Ps-monotone system
yields full permission explosion; the diagnostic system demonstrating
this ships as a system-definition file rather than a built-in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .formula import Atom, Schema, instantiate, parse, schema
from .frames import GUARDED_RULES, FrameProperty, PropertyWitness, schema_variables
from .model import NeighbourhoodModel, evaluate

__all__ = [
    "SCHEMAS", "RULE_NAMES", "BASE_RULES", "SystemDef", "SystemRegistry",
    "CONDITIONS", "WITNESS_LETTERS", "recheck_witness", "frame_class", "FRAME_CLASSES",
]


SCHEMAS: dict[str, Schema] = {
    "M_O": schema("O(p & q) -> O p & O q", "p q"),
    "M_Ps": schema("Ps(p & q) -> Ps p & Ps q", "p q"),
    "AFCP_O": schema("Ps(p | q) & O ~p -> Ps q", "p q"),
    "AFCP_P": schema("Ps(p | q) & Pw p & Pw q -> Ps p & Ps q", "p q"),
    "AFCP2_P": schema("Ps(p | q) & Pw p -> Ps p", "p q"),
    "D_s": schema("O p & Ps ~p -> F", "p"),
    "D_w": schema("O p & O ~p -> F", "p"),
    "P_sP_w": schema("Ps p -> Pw p", "p"),
    "FCP": schema("Ps(p | q) -> Ps p & Ps q", "p q"),
}

BASE_RULES = frozenset({"MP", "Taut", "RE_O", "RE_Ps"})
RULE_NAMES = BASE_RULES | {"RM_O", "RM_Ps", *GUARDED_RULES}

# The frame condition of each axiom schema and guarded rule that a built-in system uses.
CONDITIONS: dict[str, FrameProperty] = {
    "D_s": FrameProperty.PS_COHERENT,
    "D_w": FrameProperty.PW_COHERENT,
    "AFCP_O": FrameProperty.AFCP_O,
    "AFCP_P": FrameProperty.AFCP_P,
    "AFCP2_P": FrameProperty.AFCP2_P,
    "M_O": FrameProperty.O_SUPPLEMENTED,
    "M_Ps": FrameProperty.P_SUPPLEMENTED,
    **{name: rule.prop for name, rule in GUARDED_RULES.items()},
}

# Per axiom, the formulas over a witness's sets x, y that stand for its letters p, q in turn:
# the instance is false at the witness's world exactly when the witness violates its condition.
WITNESS_LETTERS: dict[str, str] = {"M_O": "x y", "M_Ps": "x y", "D_w": "x", "D_s": "~x",
                                   "AFCP_O": "y x", "AFCP_P": "x y", "AFCP2_P": "x y"}


def recheck_witness(m: NeighbourhoodModel, wit: PropertyWitness) -> bool:
    """Whether the witness's sets x, y, z, q, staged as atoms, make an instance of its condition's
    axiom (``WITNESS_LETTERS``) or rule (``GuardedRule.letters``) false at its world: decided by
    ``model``'s evaluator, independently of the witness streams that find the witnesses."""
    sets = {a: s for a, s in zip("xyzq", (wit.x, wit.y, wit.z, wit.q)) if s is not None}
    staged = NeighbourhoodModel(m.worlds, m.n_obl, m.n_perm, sets)
    name = next(name for name, prop in CONDITIONS.items() if prop is wit.prop)
    if name in GUARDED_RULES:
        rule = GUARDED_RULES[name]
        subst = dict(zip(rule.letters, map(Atom, "xyzq")))
        return rule.unfalsified(staged, wit.world, subst) is None
    axiom = SCHEMAS[name]
    subst = dict(zip(schema_variables(axiom), map(parse, WITNESS_LETTERS[name].split())))
    return not evaluate(staged, wit.world, instantiate(axiom, subst))


@dataclass(frozen=True)
class SystemDef:
    name: str
    axioms: tuple[str, ...]
    rules: frozenset[str]

    @property
    def own(self) -> frozenset[str]:
        """The system's axioms and non-base rules."""
        return frozenset(self.axioms) | (self.rules - BASE_RULES)

    def admits_rm(self, modality: str) -> bool:
        """RM lines are licensed by an explicit RM rule or by the matching M axiom."""
        if modality == "Pw":
            # Monotonicity for the weak operator reduces to monotonicity for O.
            return self.admits_rm("O")
        return f"RM_{modality}" in self.rules or f"M_{modality}" in self.axioms


def _builtin_defs() -> list[SystemDef]:
    def make(name: str, axioms: tuple[str, ...], extra_rules: frozenset[str] = frozenset()):
        return SystemDef(name, axioms, BASE_RULES | extra_rules)

    d = ("D_s", "D_w")
    return [
        make("E", ()),
        make("Min", d),
        make("FCP_1", d, frozenset({"IFCP_O", "IFCP_P"})),
        make("FCP_2", d + ("AFCP_O", "AFCP_P")),
        make("FCP_3", d + ("AFCP_O", "AFCP_P", "M_O", "M_Ps")),
        make("FCP_4", d + ("AFCP_O", "AFCP2_P")),
        make("FCP_5", d, frozenset({"IFCP_O", "IFCP2_P"})),
        make("FCP_6", d + ("AFCP_O", "AFCP2_P", "M_O", "M_Ps")),
    ]


class SystemRegistry:
    """Append-only registry; reads are safe once registration completes."""

    def __init__(self) -> None:
        self._defs: dict[str, SystemDef] = {}

    @classmethod
    def standard(cls) -> "SystemRegistry":
        reg = cls()
        for d in _builtin_defs():
            reg._defs[d.name] = d
        return reg

    def get(self, name: str) -> SystemDef:
        try:
            return self._defs[name]
        except KeyError:
            known = ", ".join(self._defs)
            raise ValueError(f"unknown system {name!r} (registered: {known})") from None

    def define(
        self,
        name: str,
        axioms: Iterable[str] = (),
        rules: Iterable[str] = (),
    ) -> SystemDef:
        """Register a user system; base rules are always included."""
        if name in self._defs:
            raise ValueError(f"system {name!r} is already defined")
        axioms = tuple(axioms)
        rules = frozenset(rules)
        for a in axioms:
            if a not in SCHEMAS:
                raise ValueError(f"unknown axiom schema {a!r}")
        unknown = rules - RULE_NAMES
        if unknown:
            raise ValueError(f"unknown inference rule {sorted(unknown)[0]!r}")
        d = SystemDef(name, axioms, BASE_RULES | rules)
        self._defs[name] = d
        return d

    def define_from_dict(self, data: Mapping) -> SystemDef:
        """Register a system-definition document: an object with a string ``name`` and lists of
        names ``axioms`` and ``rules`` (an absent list is empty); another shape raises ValueError."""
        if not isinstance(data, Mapping) or not isinstance(data.get("name"), str):
            raise ValueError("a system definition is an object with a string 'name'")
        axioms, rules = data.get("axioms", []), data.get("rules", [])
        for field, names in (("axioms", axioms), ("rules", rules)):
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise ValueError(f"a system definition's {field!r} is a list of names")
        return self.define(data["name"], axioms, rules)

    def load_file(self, path: str | Path) -> SystemDef:
        return self.define_from_dict(json.loads(Path(path).read_text()))


FRAME_CLASSES: dict[str, frozenset[FrameProperty]] = {
    d.name: frozenset(CONDITIONS[x] for x in d.own) for d in _builtin_defs()
}


def frame_class(name: str) -> frozenset[FrameProperty]:
    """Adequate frame class of a built-in system; user systems carry no such claim."""
    try:
        return FRAME_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"no adequate frame class is recorded for {name!r} (built-in systems only)"
        ) from None
