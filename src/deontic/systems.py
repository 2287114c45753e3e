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

from .formula import Schema, schema
from .frames import GUARDED_RULES, FrameProperty

__all__ = [
    "SCHEMAS", "RULE_NAMES", "BASE_RULES", "SystemDef", "SystemRegistry",
    "frame_class", "FRAME_CLASSES", "InclusionFact", "FixtureCheck",
    "inclusion_report",
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

_P = FrameProperty
_MIN_CLASS = frozenset({_P.PS_COHERENT, _P.PW_COHERENT})

FRAME_CLASSES: dict[str, frozenset[FrameProperty]] = {
    "E": frozenset(),
    "Min": _MIN_CLASS,
    "FCP_1": _MIN_CLASS | {_P.IFCP_O, _P.IFCP_P},
    "FCP_2": _MIN_CLASS | {_P.AFCP_O, _P.AFCP_P},
    "FCP_3": _MIN_CLASS | {_P.AFCP_O, _P.AFCP_P, _P.P_SUPPLEMENTED},
    "FCP_4": _MIN_CLASS | {_P.AFCP_O, _P.AFCP2_P},
    "FCP_5": _MIN_CLASS | {_P.IFCP_O, _P.IFCP2_P},
    "FCP_6": _MIN_CLASS | {_P.IFCP_O, _P.IFCP2_P, _P.P_SUPPLEMENTED},
}


@dataclass(frozen=True)
class SystemDef:
    name: str
    axioms: tuple[str, ...]
    rules: frozenset[str]
    frame_class: frozenset[FrameProperty] | None

    def axiom_schemas(self) -> dict[str, Schema]:
        return {n: SCHEMAS[n] for n in self.axioms}

    def admits_rm(self, modality: str) -> bool:
        """RM lines are licensed by an explicit RM rule or by the matching M axiom."""
        if modality == "Pw":
            # Monotonicity for the weak operator reduces to monotonicity for O.
            return self.admits_rm("O")
        return f"RM_{modality}" in self.rules or f"M_{modality}" in self.axioms


def _builtin_defs() -> list[SystemDef]:
    def make(name: str, axioms: tuple[str, ...], extra_rules: frozenset[str] = frozenset()):
        return SystemDef(name, axioms, BASE_RULES | extra_rules, FRAME_CLASSES[name])

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

    def names(self) -> tuple[str, ...]:
        return tuple(self._defs)

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
        d = SystemDef(name, axioms, BASE_RULES | rules, None)
        self._defs[name] = d
        return d

    def define_from_dict(self, data: Mapping) -> SystemDef:
        return self.define(data["name"], data.get("axioms", ()), data.get("rules", ()))

    def load_file(self, path: str | Path) -> SystemDef:
        return self.define_from_dict(json.loads(Path(path).read_text()))


def frame_class(name: str) -> frozenset[FrameProperty]:
    """Adequate frame class of a built-in system; user systems carry no such claim."""
    try:
        return FRAME_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"no adequate frame class is recorded for {name!r} (built-in systems only)"
        ) from None


# ---------------------------------------------------------------------------
# Strength lattice

@dataclass(frozen=True)
class FixtureCheck:
    """One frame-level fact about a strictness fixture.

    ``expect`` records what the engine actually finds on the shipped
    fixture.  When the fixture's source advertised something else,
    ``advertised`` carries that claim so reports can surface the
    discrepancy without hiding the measured fact.
    """

    kind: str            # "property" | "schema" | "rule"
    name: str
    expect: str          # "satisfied" | "violated"
    advertised: str | None = None


@dataclass(frozen=True)
class InclusionFact:
    """A strict inclusion between two systems with checkable evidence.

    ``derivation_scripts`` name bundled proof scripts showing that the
    larger system derives every axiom or rule the smaller one adds;
    ``strictness_fixture`` names a bundled model separating the two where
    one is shipped.
    """

    smaller: str
    larger: str
    derivation_scripts: tuple[str, ...]
    strictness_fixture: str | None
    fixture_checks: tuple[FixtureCheck, ...] = ()
    note: str = ""


_INCLUSIONS: tuple[InclusionFact, ...] = (
    InclusionFact(
        "FCP_2", "FCP_1",
        ("fcp1__afcp_o.proof", "fcp1__afcp_p.proof"),
        "corollary3_model1",
        (
            FixtureCheck("property", "AFCPO", "satisfied"),
            FixtureCheck("rule", "IFCP_O", "violated"),
        ),
        note="guarded axioms are rule instances with a trivially true side condition",
    ),
    InclusionFact(
        "FCP_1", "FCP_3",
        ("fcp3__ifcp_o.proof", "fcp3__ifcp_p.proof"),
        "corollary3_model1_mod",
        (
            FixtureCheck("property", "OSupplemented", "violated"),
            FixtureCheck("schema", "M_O", "violated"),
            FixtureCheck(
                "property", "IFCPO", "violated",
                advertised="satisfied (does not hold under the rule-shaped condition)",
            ),
        ),
        note="monotonicity makes both rules derivable; the fixture falsifies M_O",
    ),
    InclusionFact(
        "FCP_3", "FCP_6",
        ("fcp6__afcp_o.proof", "fcp6__afcp_p.proof"),
        None,
        (),
        note="strictness follows from FCP_2 < FCP_4",
    ),
    InclusionFact(
        "FCP_2", "FCP_4",
        ("fcp4__afcp_p.proof",),
        None,
        (),
        note="AFCP2_P yields AFCP_P propositionally but not conversely",
    ),
    InclusionFact(
        "FCP_4", "FCP_5",
        ("fcp5__afcp_o.proof", "fcp5__afcp2_p.proof"),
        "corollary3_model2",
        (
            FixtureCheck("property", "AFCP2P", "violated"),
            FixtureCheck(
                "property", "IFCP2P", "violated",
                advertised="satisfied (the printed sets do not realise the claim; "
                "every frame meeting the rule-shaped condition meets the axiom-shaped one)",
            ),
        ),
        note="fixture shipped as printed; its advertised separation does not re-verify",
    ),
    InclusionFact(
        "FCP_1", "FCP_5",
        ("fcp5__ifcp_p.proof",),
        None,
        (),
        note="IFCP_O is shared; IFCP2_P yields IFCP_P",
    ),
    InclusionFact(
        "FCP_5", "FCP_6",
        ("fcp6__ifcp_o.proof", "fcp6__ifcp2_p.proof"),
        "corollary3_model1_mod",
        (
            FixtureCheck("property", "OSupplemented", "violated"),
            FixtureCheck("schema", "M_O", "violated"),
        ),
        note="monotonicity makes both rules derivable; the fixture falsifies M_O",
    ),
)


def inclusion_report() -> tuple[InclusionFact, ...]:
    """The seven strict inclusions of the strength lattice, with evidence hooks."""
    return _INCLUSIONS
