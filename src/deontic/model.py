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
treated as immutable after construction; evaluation is read-only.

Evaluation runs on the model's bitmask view (``ModelView``, world i is
bit i), kept on the model; ``ModelView.model()`` is its inverse, so this
module alone knows that world i is bit i.  ``truth_mask`` gives
the truth clauses above on that view, with the Boolean part from
``formula.eval_bits``, for a block of assignments at once: bit a·n + w is
world w under assignment a.  Truth sets are the one-assignment block,
with the valuation's masks as the atoms' truth sets; frame-level schema
validity passes one column per metavariable holding every subset of W.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

from .formula import _ATOM, Atom, Formula, Obl, PermS, PermW, eval_bits

__all__ = [
    "WorldSet", "Neighbourhood", "NeighbourhoodModel", "ModelView", "column_members", "truth_mask",
    "make_model", "model_from_dict", "model_to_dict", "load_model", "dump_model",
    "validate_model", "evaluate", "truth_set", "model_valid", "render_world_set",
]

WorldSet = frozenset[str]
Neighbourhood = frozenset[WorldSet]


def render_world_set(s: WorldSet) -> str:
    """Sorted brace notation, as reports print world sets: ``{w1, w2}``."""
    return "{" + ", ".join(sorted(s)) + "}"


@dataclass(frozen=True)
class NeighbourhoodModel:
    worlds: tuple[str, ...]
    n_obl: Mapping[str, Neighbourhood]
    n_perm: Mapping[str, Neighbourhood]
    valuation: Mapping[str, WorldSet]

    @cached_property
    def view(self) -> "ModelView":
        """The bitmask view, kept; a world outside W raises ValueError naming it."""
        index = {w: i for i, w in enumerate(self.worlds)}

        def mask(s: Iterable[str], field: str) -> int:
            out = 0
            for w in s:
                try:
                    out |= 1 << index[w]
                except KeyError:
                    raise ValueError(f"{field}: world {w!r} is not in W") from None
            return out

        # A world without an entry has the empty neighbourhood, as in make_model.
        return ModelView(
            self.worlds,
            [frozenset(mask(s, f"N_O({w})") for s in self.n_obl.get(w, ())) for w in self.worlds],
            [frozenset(mask(s, f"N_P({w})") for s in self.n_perm.get(w, ())) for w in self.worlds],
            {a: mask(s, f"valuation({a})") for a, s in self.valuation.items()},
        )


def column_members(cols, full: int) -> list[int]:
    """``has[x]``: the columns (bit j for ``cols[j]``) that contain mask x, x in W = ``full``."""
    rows = [bytearray(len(cols) // 8 + 1) for _ in range(full + 1)]  # not |= on a growing int
    for j, col in enumerate(cols):
        for x in col:
            rows[x][j >> 3] |= 1 << (j & 7)
    return [int.from_bytes(row, "little") for row in rows]


def _holders(cols: list[frozenset[int]]) -> dict[int, int]:
    # Each set's mask -> the mask of the worlds whose neighbourhood contains it.
    out: dict[int, int] = {}
    for i, col in enumerate(cols):
        for s in col:
            out[s] = out.get(s, 0) | 1 << i
    return out


class ModelView:
    """Bitmask view of a model; world i is bit i.

    ``n_obl[i]`` and ``n_perm[i]`` hold the masks of world i's neighbourhoods
    (read by the frame conditions) and ``valuation`` each atom's mask;
    ``obl_at`` and ``perm_at`` map a set's mask to the mask of the worlds whose
    neighbourhood contains it (read by the modal clauses).  ``model()`` names
    the worlds' sets again.
    """

    def __init__(self, worlds: tuple[str, ...], n_obl: list[frozenset[int]],
                 n_perm: list[frozenset[int]], valuation: dict[str, int]):
        self.worlds = worlds
        self.full = (1 << len(worlds)) - 1
        self.n_obl = n_obl
        self.n_perm = n_perm
        self.valuation = valuation
        self.obl_at = _holders(n_obl)
        self.perm_at = _holders(n_perm)

    @cached_property
    def perm_members(self) -> list[int]:
        """``column_members`` of the N_P columns, read by the frame conditions; built once."""
        return column_members(self.n_perm, self.full)

    def set_of(self, mask: int) -> WorldSet:
        return frozenset(w for i, w in enumerate(self.worlds) if mask >> i & 1)

    def model(self) -> NeighbourhoodModel:
        """The named model of this view, with a view of its own built from the names."""
        def col(masks: frozenset[int]) -> Neighbourhood:
            return frozenset(map(self.set_of, masks))

        return NeighbourhoodModel(
            self.worlds,
            {w: col(self.n_obl[i]) for i, w in enumerate(self.worlds)},
            {w: col(self.n_perm[i]) for i, w in enumerate(self.worlds)},
            {a: self.set_of(x) for a, x in self.valuation.items()},
        )


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
        if not _ATOM.fullmatch(atom):
            violations.append(f"valuation: invalid atom name {atom!r}")
        outside = members - declared
        if outside:
            names = ", ".join(sorted(outside))
            violations.append(f"valuation({atom}): member outside W: {names}")
    return violations


def truth_mask(view: ModelView, f: Formula, atom_masks: Mapping[str, int], low: int = 1) -> int:
    """Mask of the worlds where ``f`` is true, with each atom's truth set taken from ``atom_masks``.

    Evaluates a block of assignments: bit ``a·n + w`` is world w under assignment a,
    and ``low`` has bit ``a·n`` set for each a (``1``: one assignment, a truth set).
    The modal clauses read the view's neighbourhoods; an absent atom is false everywhere.
    """
    full = view.full * low
    n = len(view.worlds)

    def holders(table: dict[int, int], x: int) -> int:
        # For each set S: the assignments whose n-bit chunk of x equals S, times S's holders.
        out = 0
        for s, at in table.items():
            eq = full ^ x ^ s * low
            hit = eq & low
            for i in range(1, n):
                hit &= eq >> i
            out |= hit * at
        return out

    def leaf(node: Formula) -> int:
        match node:
            case Atom(name):
                return atom_masks.get(name, 0)
            case Obl(x):
                return holders(view.obl_at, eval_bits(x, leaf, full))
            case PermS(x):
                return holders(view.perm_at, eval_bits(x, leaf, full))
            case PermW(x):
                return full ^ holders(view.obl_at, full ^ eval_bits(x, leaf, full))
        raise TypeError(f"not a formula: {node!r}")

    try:
        return eval_bits(f, leaf, full)
    finally:
        del leaf  # leaf holds itself through this cell: emptying it leaves no reference cycle


def truth_set(m: NeighbourhoodModel, f: Formula) -> WorldSet:
    """The set of worlds where ``f`` is true."""
    return m.view.set_of(truth_mask(m.view, f, m.view.valuation))


def evaluate(m: NeighbourhoodModel, w: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``."""
    if w not in m.worlds:
        raise ValueError(f"unknown world {w!r}")
    return bool(truth_mask(m.view, f, m.view.valuation) >> m.worlds.index(w) & 1)


def model_valid(m: NeighbourhoodModel, f: Formula) -> bool:
    """True iff ``f`` holds at every world of the model."""
    return truth_mask(m.view, f, m.view.valuation) == m.view.full
