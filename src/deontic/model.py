"""Finite deontic neighbourhood models and their truth evaluator.

A model is a non-empty finite set of worlds, two neighbourhood functions
(one per box-like operator) assigning each world a collection of world
sets, and a valuation.  Truth conditions:

* ``O x``  is true at ``w`` iff the truth set of ``x`` is in ``N_O(w)``;
* ``Ps x`` is true at ``w`` iff the truth set of ``x`` is in ``N_P(w)``;
* ``Pw x`` is true at ``w`` iff the complement of the truth set of ``x``
  is not in ``N_O(w)``;
* Boolean connectives are classical.

Atoms absent from the valuation have the empty truth set.  Models are
treated as immutable after validation; evaluation is read-only.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .formula import (
    And, Atom, Bottom, Formula, Iff, Implies, Not, Obl, Or, PermS, PermW, Top,
)

__all__ = [
    "WorldSet", "Neighbourhood", "NeighbourhoodModel",
    "make_model", "model_from_dict", "model_to_dict", "load_model", "dump_model",
    "validate_model", "evaluate", "truth_set", "model_valid",
]

WorldSet = frozenset[str]
Neighbourhood = frozenset[WorldSet]

_ATOM_NAME = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class NeighbourhoodModel:
    worlds: tuple[str, ...]
    n_obl: Mapping[str, Neighbourhood]
    n_perm: Mapping[str, Neighbourhood]
    valuation: Mapping[str, WorldSet]


def make_model(
    worlds: Iterable[str],
    n_obl: Mapping[str, Iterable[Iterable[str]]] | None = None,
    n_perm: Mapping[str, Iterable[Iterable[str]]] | None = None,
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> NeighbourhoodModel:
    """Normalise raw containers into a model; neighbourhoods are total on W.

    Entries for undeclared worlds are kept so validate_model can report them.
    """
    ws = tuple(worlds)

    def norm(raw: Mapping[str, Iterable[Iterable[str]]] | None) -> dict[str, Neighbourhood]:
        raw = dict(raw or {})
        out = {w: frozenset(frozenset(s) for s in raw.pop(w, ())) for w in ws}
        for extra_world, col in raw.items():
            out[extra_world] = frozenset(frozenset(s) for s in col)
        return out

    val = {a: frozenset(members) for a, members in (valuation or {}).items()}
    return NeighbourhoodModel(ws, norm(n_obl), norm(n_perm), val)


def _world_names(value, field: str) -> None:
    if not isinstance(value, (list, tuple)) or not all(isinstance(w, str) for w in value):
        raise ValueError(f"{field}: expected a list of world names, got {value!r:.40}")


def _world_sets(value, field: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field}: expected a list of world sets, got {value!r:.40}")
    for s in value:
        _world_names(s, field)


def model_from_dict(data: Mapping) -> NeighbourhoodModel:
    """Build a model from its document form; a field of the wrong type raises ValueError naming it."""
    if not isinstance(data, Mapping):
        raise ValueError(f"model document must be an object, got {data!r:.40}")
    if "worlds" not in data:
        raise ValueError("model document must define 'worlds'")
    _world_names(data["worlds"], "worlds")
    for label, check in (("N_O", _world_sets), ("N_P", _world_sets), ("valuation", _world_names)):
        raw = data.get(label)
        if raw is None:
            continue
        if not isinstance(raw, Mapping):
            raise ValueError(f"{label}: expected an object keyed by name, got {raw!r:.40}")
        for key, value in raw.items():
            check(value, f"{label}({key})")
    return make_model(data["worlds"], data.get("N_O"), data.get("N_P"), data.get("valuation"))


def model_to_dict(m: NeighbourhoodModel) -> dict:
    """Stable dictionary form (file format keys: worlds, valuation, N_O, N_P)."""
    order = {w: i for i, w in enumerate(m.worlds)}

    def ws_list(s: WorldSet) -> list[str]:
        return sorted(s, key=order.__getitem__)

    def col_list(col: Neighbourhood) -> list[list[str]]:
        return sorted((ws_list(s) for s in col), key=lambda xs: (len(xs), [order[x] for x in xs]))

    return {
        "worlds": list(m.worlds),
        "valuation": {a: ws_list(ws) for a, ws in sorted(m.valuation.items())},
        "N_O": {w: col_list(m.n_obl[w]) for w in m.worlds},
        "N_P": {w: col_list(m.n_perm[w]) for w in m.worlds},
    }


def load_model(path: str | Path) -> NeighbourhoodModel:
    return model_from_dict(json.loads(Path(path).read_text()))


def dump_model(m: NeighbourhoodModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(m), indent=2) + "\n")


def validate_model(m: NeighbourhoodModel) -> list[str]:
    """Empty list iff all structural invariants hold; each violation names the offender."""
    violations: list[str] = []
    if not m.worlds:
        violations.append("worlds: a model must declare at least one world")
    if len(set(m.worlds)) != len(m.worlds):
        violations.append("worlds: duplicate world identifiers")
    declared = set(m.worlds)

    for label, nbhd in (("N_O", m.n_obl), ("N_P", m.n_perm)):
        for w in m.worlds:
            if w not in nbhd:
                violations.append(f"{label}: missing entry for world {w!r}")
        for w, col in nbhd.items():
            if w not in declared:
                violations.append(f"{label}: entry for undeclared world {w!r}")
            for s in col:
                outside = s - declared
                if outside:
                    names = ", ".join(sorted(outside))
                    violations.append(f"{label}({w}): set member outside W: {names}")

    for atom, members in m.valuation.items():
        if not _ATOM_NAME.fullmatch(atom):
            violations.append(f"valuation: invalid atom name {atom!r}")
        outside = members - declared
        if outside:
            names = ", ".join(sorted(outside))
            violations.append(f"valuation({atom}): member outside W: {names}")
    return violations


def truth_set(m: NeighbourhoodModel, f: Formula) -> WorldSet:
    """The set of worlds where ``f`` is true."""
    w_all = frozenset(m.worlds)

    def ts(g: Formula) -> WorldSet:
        match g:
            case Atom(name):
                return m.valuation.get(name, frozenset())
            case Top():
                return w_all
            case Bottom():
                return frozenset()
            case Not(x):
                return w_all - ts(x)
            case And(l, r):
                return ts(l) & ts(r)
            case Or(l, r):
                return ts(l) | ts(r)
            case Implies(l, r):
                return (w_all - ts(l)) | ts(r)
            case Iff(l, r):
                tl, tr = ts(l), ts(r)
                return (tl & tr) | ((w_all - tl) & (w_all - tr))
            case Obl(x):
                t = ts(x)
                return frozenset(w for w in m.worlds if t in m.n_obl[w])
            case PermS(x):
                t = ts(x)
                return frozenset(w for w in m.worlds if t in m.n_perm[w])
            case PermW(x):
                t = ts(x)
                return frozenset(w for w in m.worlds if (w_all - t) not in m.n_obl[w])
        raise TypeError(f"not a formula: {g!r}")

    return ts(f)


def evaluate(m: NeighbourhoodModel, w: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``."""
    if w not in m.worlds:
        raise ValueError(f"unknown world {w!r}")
    return w in truth_set(m, f)


def model_valid(m: NeighbourhoodModel, f: Formula) -> bool:
    """True iff ``f`` holds at every world of the model."""
    return truth_set(m, f) == frozenset(m.worlds)
