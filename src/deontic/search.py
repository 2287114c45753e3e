"""Bounded countermodel search and remainder detachment.

Two enumeration regimes share the deterministic ordering "world count
ascending, then candidates in lexicographic order":

* Formula targets walk the full model space: for each world count, all
  valuations over the given atoms in lexicographic bit order, then all
  neighbourhood collections (at most ``max_sets`` subsets each) in
  lexicographic order of sorted subset lists.  This regime is meant for
  tiny bounds; its cost is the product of all three dimensions.

* Schema and rule targets only need frames.  Because every named schema
  and rule has modal depth one, a falsifying subset assignment at a world
  depends only on that world's two neighbourhoods, so the search
  enumerates single-world neighbourhood pairs (same lexicographic order),
  keeps the remaining worlds empty, and synthesises a valuation realising
  the falsifying assignment.  Exhaustion here is still sound: any bounded
  model falsifying the target while meeting the required properties
  contains such a pair.

Candidates are generated canonical (orderly generation, McKay 1998): only
the least encoding of each orbit under world permutation, at every world
count.  Encodings compare level by level (valuation, N_O columns, N_P
columns; or world 1's N_O, then its N_P), so ``_canonical`` tests a level
only against the permutations fixing the levels before it, usually none,
and a prefix that is not least skips its block.  Candidates come in
ascending order and truth and frame conditions are invariant under
permuting worlds, so the first falsifying candidate is least in its orbit
and generating only those never changes what is found.  The clock is read
once per collection built and once per key the generation tries: once per
generated candidate, and while a skipped block is passed over.

Candidates stay masks until one is found.  Frame conditions are decided
on one world's pair (``frames.pair_violation``): world 1's in the frame
regime, once per column pair and world count in the formula regime.  A
survivor alone gets a ``ModelView`` (for ``frames.find_schema_violation``
or ``model.truth_mask``); the found one becomes a named model on which the
public checks and evaluator re-verify it before it is returned.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice, permutations, product
from typing import Iterable, Sequence

from .formula import (
    Atom, Formula, Implies, Not, Obl, Or, PermS, Schema,
    atoms as formula_atoms, expand_pw, instantiate, is_tautology, modal_depth,
    render,
)
from .model import (
    ModelView, NeighbourhoodModel, WorldSet, evaluate, model_to_dict, model_valid, truth_mask,
    truth_set,
)
from .frames import (
    GUARDED_RULES, FrameProperty, SchemaViolation, check_property, find_schema_violation,
    pair_violation, rule_valid_on_frame, schema_valid_on_frame, schema_variables,
)

__all__ = [
    "SearchBounds", "CountermodelReport", "SearchTimeout", "SearchError", "find_countermodel",
    "RemainderResult", "RemainderError", "compute_remainder",
]

HARD_WORLD_CAP = 5


class SearchTimeout(RuntimeError):
    """Raised when a search runs past its time budget; the message says how far it got."""


class SearchError(RuntimeError):
    """Raised when a found countermodel fails re-verification."""


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_sets: int
    atoms: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= self.max_worlds <= HARD_WORLD_CAP:
            raise ValueError(f"max_worlds must be between 1 and {HARD_WORLD_CAP}")
        if self.max_sets < 0:
            raise ValueError("max_sets must be non-negative")


@dataclass
class CountermodelReport:
    found: bool
    model: NeighbourhoodModel | None = None
    world: str | None = None
    assignment: dict[str, WorldSet] | None = None
    instance: Formula | None = None
    examined: int = 0
    pruned_by_property: int = 0
    elapsed_secs: float = 0.0

    @property
    def outcome(self) -> str:
        return "Found" if self.found else "ExhaustedUpToBounds"

    def render(self) -> str:
        out = [f"{self.outcome} (examined {self.examined}, "
               f"pruned {self.pruned_by_property}, {self.elapsed_secs:.3f}s)"]
        if self.found:
            out.append(f"world: {self.world}")
            if self.instance is not None:
                out.append(f"falsified: {render(self.instance)}")
            out.append(json.dumps(model_to_dict(self.model), indent=2))
        return "\n".join(out)

    def to_dict(self) -> dict:
        out = {
            "outcome": self.outcome,
            "examined": self.examined,
            "pruned_by_property": self.pruned_by_property,
            "elapsed_secs": round(self.elapsed_secs, 6),
        }
        if self.found:
            out["world"] = self.world
            out["model"] = model_to_dict(self.model)
            if self.assignment is not None:
                out["assignment"] = {v: sorted(s) for v, s in self.assignment.items()}
            if self.instance is not None:
                out["falsified"] = render(self.instance)
        return out


class _Clock:
    def __init__(self, timeout_secs: float | None):
        self.start = time.monotonic()
        self.deadline = None if timeout_secs is None else self.start + timeout_secs

    def check(self, report: CountermodelReport):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(
                f"countermodel search exceeded the time budget (examined {report.examined}, "
                f"pruned {report.pruned_by_property}, {self.elapsed():.3f}s)"
            )

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _collections(n_worlds: int, max_sets: int, tick=lambda: None,
                 closed: bool = False) -> list[tuple[int, ...]]:
    """All sorted subset lists of size <= max_sets (only superset-closed ones with ``closed``),
    in lexicographic order; ``tick()`` runs per list tried, so a time budget holds here too."""
    full = (1 << n_worlds) - 1
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], start: int):
        tick()
        if not closed or _superset_closed(prefix, full):
            out.append(tuple(prefix))
        if len(prefix) == max_sets:
            return
        for mask in range(start, full + 1):
            prefix.append(mask)
            rec(prefix, mask + 1)
            prefix.pop()

    rec([], 0)
    return out


@cache
def _perm_tables(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """``(inverse, table)`` for every non-identity permutation of n worlds.

    ``table[mask]`` is the image of a world-set mask; ``inverse[j]`` is the
    world that the permutation moves to world j.  Built once per world count.
    """
    out = []
    for perm in islice(permutations(range(n)), 1, None):  # the first is the identity
        table = tuple(sum(1 << perm[i] for i in range(n) if mask >> i & 1)
                      for mask in range(1 << n))
        inverse = tuple(sorted(range(n), key=perm.__getitem__))
        out.append((inverse, table))
    return tuple(out)


def _image_masks(perm, masks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([perm[1][m] for m in masks])


def _image_col(perm, col: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted([perm[1][m] for m in col]))


def _image_cols(perm, cols: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple([_image_col(perm, cols[i]) for i in perm[0]])


def _stabiliser(key, perms, image) -> list | None:
    """None if one of ``perms`` maps ``key`` below itself, else those that fix it."""
    fixing = []
    for perm in perms:
        moved = image(perm, key)
        if moved < key:
            return None
        if moved == key:
            fixing.append(perm)
    return fixing


def _canonical(levels, perms, tick, prefix=()):
    """The encodings least in their orbit under ``perms``, in ascending order.

    An encoding has one key per level; a level is ``(keys, image)``, where
    ``keys()`` iterates its keys in ascending order and ``image(perm, key)``
    moves one by a ``_perm_tables`` entry.  A key is tested only against the
    stabiliser of the keys before it.  ``tick()`` runs once per key tried.
    """
    (keys, image), *rest = levels
    for key in keys():
        tick()
        fixing = _stabiliser(key, perms, image)
        if fixing is not None and rest:
            yield from _canonical(rest, fixing, tick, prefix + (key,))
        elif fixing is not None:
            yield prefix + (key,)


def _worlds(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _build_model(worlds, val_masks, no_cols, np_cols, atom_names) -> NeighbourhoodModel:
    n = len(worlds)

    def set_of(mask: int) -> WorldSet:
        return frozenset(worlds[i] for i in range(n) if mask >> i & 1)

    valuation = {a: set_of(m) for a, m in zip(atom_names, val_masks)}
    n_obl = {w: frozenset(set_of(m) for m in no_cols[i]) for i, w in enumerate(worlds)}
    n_perm = {w: frozenset(set_of(m) for m in np_cols[i]) for i, w in enumerate(worlds)}
    return NeighbourhoodModel(worlds, n_obl, n_perm, valuation)


def _verify_required(model: NeighbourhoodModel, required: Iterable[FrameProperty]) -> None:
    if any(check_property(model, p) is not None for p in required):
        raise SearchError("countermodel failed re-verification of a required frame property")


def _superset_closed(col, full: int) -> bool:
    # Closed under adding one world at a time is closed under every superset.
    members = set(col)
    return all(m | 1 << i in members for m in col for i in range(full.bit_length()))


def find_countermodel(
    target: Formula | Schema | str,
    required: Iterable[FrameProperty],
    bounds: SearchBounds,
    timeout_secs: float | None = None,
) -> CountermodelReport:
    """First falsifying (model, world) under the documented order, or exhaustion.

    ``target`` is a concrete formula, a pure schema, or the name of a
    guarded-permission rule.  ``required`` filters the search to frames
    satisfying the given properties.
    """
    required = frozenset(required)
    clock = _Clock(timeout_secs)
    if isinstance(target, str):
        if target not in GUARDED_RULES:
            known = ", ".join(sorted(GUARDED_RULES))
            raise ValueError(f"unknown rule target {target!r} (known: {known})")
        return _search_frames(target, None, required, bounds, clock)
    if isinstance(target, Schema):
        if modal_depth(target.body) > 1:
            raise ValueError("schema targets with nested modalities are not supported")
        variables = schema_variables(target)
        if len(variables) > len(bounds.atoms):
            raise ValueError(
                f"target needs {len(variables)} atoms to realise a falsifying valuation, "
                f"bounds provide {len(bounds.atoms)}"
            )
        return _search_frames(None, target, required, bounds, clock)
    if isinstance(target, Formula):
        missing = formula_atoms(target) - set(bounds.atoms)
        if missing:
            names = ", ".join(sorted(missing))
            raise ValueError(f"target atoms not covered by the search bounds: {names}")
        return _search_models(target, required, bounds, clock)
    raise TypeError(f"unsupported target {target!r}")


def _search_models(target, required, bounds, clock) -> CountermodelReport:
    report = CountermodelReport(found=False)
    tick = partial(clock.check, report)
    for n in range(1, bounds.max_worlds + 1):
        worlds = _worlds(n)
        full = (1 << n) - 1
        cols = _collections(n, bounds.max_sets, tick)

        @cache
        def pair_ok(no_col, np_col) -> bool:  # one verdict per column pair and world count
            no, np_ = frozenset(no_col), frozenset(np_col)
            return all(pair_violation(no, np_, full, p) is None for p in required)

        columns = (partial(product, cols, repeat=n), _image_cols)
        levels = [(partial(product, range(1 << n), repeat=len(bounds.atoms)), _image_masks),
                  columns, columns]
        for val_masks, no_cols, np_cols in _canonical(levels, _perm_tables(n), tick):
            report.examined += 1
            if not all(map(pair_ok, no_cols, np_cols)):
                report.pruned_by_property += 1
                continue
            valuation = dict(zip(bounds.atoms, val_masks))
            view = ModelView.from_masks(worlds, list(map(frozenset, no_cols)),
                                        list(map(frozenset, np_cols)), valuation)
            if truth_mask(view, target, valuation) == full:
                continue
            model = _build_model(worlds, val_masks, no_cols, np_cols, bounds.atoms)
            _verify_required(model, required)
            ts = truth_set(model, target)
            world = next((w for w in worlds if w not in ts), None)
            if world is None or evaluate(model, world, target):
                raise SearchError("formula countermodel failed re-verification")
            report.found, report.model, report.world, report.instance = True, model, world, target
            report.elapsed_secs = clock.elapsed()
            return report
    report.elapsed_secs = clock.elapsed()
    return report


def _search_frames(rule, schema_target, required, bounds, clock) -> CountermodelReport:
    report = CountermodelReport(found=False)
    tick = partial(clock.check, report)
    if rule is not None:
        prop = GUARDED_RULES[rule].prop
    else:
        variables = schema_variables(schema_target)
    supplement_no = FrameProperty.O_SUPPLEMENTED in required
    supplement_np = FrameProperty.P_SUPPLEMENTED in required
    for n in range(1, bounds.max_worlds + 1):
        worlds = _worlds(n)
        full = (1 << n) - 1
        rest = [frozenset()] * (n - 1)  # the other worlds keep empty neighbourhoods
        cols = {closed: _collections(n, bounds.max_sets, tick, closed)
                for closed in {supplement_no, supplement_np}}
        levels = [(cols[supplement_no].__iter__, _image_col),
                  (cols[supplement_np].__iter__, _image_col)]
        for no_col, np_col in _canonical(levels, _perm_tables(n), tick):
            report.examined += 1
            no_set, np_set = frozenset(no_col), frozenset(np_col)
            if not all(pair_violation(no_set, np_set, full, p) is None for p in required):
                report.pruned_by_property += 1
                continue
            if rule is not None:
                if pair_violation(no_set, np_set, full, prop) is None:
                    continue
            else:
                view = ModelView.from_masks(worlds, [no_set, *rest], [np_set, *rest], {})
                if find_schema_violation(view, schema_target.body, variables) is None:
                    continue
            model = _build_model(worlds, (), [no_col, *rest], [np_col, *rest], ())
            _verify_required(model, required)
            if rule is not None:
                violation = rule_valid_on_frame(model, rule)
            else:
                violation = schema_valid_on_frame(model, schema_target)
            if violation is None:
                raise SearchError("frame countermodel failed re-verification")
            report.model, report.instance = _realise_violation(model, rule, schema_target,
                                                               violation, bounds)
            report.world, report.assignment = violation.world, violation.assignment
            report.found = True
            report.elapsed_secs = clock.elapsed()
            return report
    report.elapsed_secs = clock.elapsed()
    return report


def _realise_violation(frame_model, rule, schema_target, violation: SchemaViolation, bounds):
    """Attach a valuation realising the falsifying assignment, then re-verify."""
    variables = sorted(violation.assignment)
    if len(variables) > len(bounds.atoms):
        raise ValueError(
            f"target needs {len(variables)} atoms to realise a falsifying valuation, "
            f"bounds provide {len(bounds.atoms)}"
        )
    var_to_atom = dict(zip(variables, bounds.atoms))
    valuation = {var_to_atom[v]: violation.assignment[v] for v in variables}
    model = NeighbourhoodModel(
        frame_model.worlds, dict(frame_model.n_obl), dict(frame_model.n_perm), valuation
    )
    subst = {v: Atom(var_to_atom[v]) for v in variables}
    w = violation.world
    if rule is None:
        instance = instantiate(schema_target, subst)
        if evaluate(model, w, instance):
            raise SearchError("schema countermodel failed re-verification")
        return model, instance

    guarded = GUARDED_RULES[rule]
    premise = instantiate(guarded.premise, subst)
    conclusion = instantiate(guarded.conclusion, subst)
    if not evaluate(model, w, premise):
        raise SearchError("rule countermodel premise failed re-verification")
    if not all(model_valid(model, instantiate(side, subst)) for side in guarded.sides):
        raise SearchError("rule countermodel side condition failed re-verification")
    if evaluate(model, w, conclusion):
        raise SearchError("rule countermodel conclusion re-verified true")
    return model, Implies(premise, conclusion)


# ---------------------------------------------------------------------------
# Remainder detachment

class RemainderError(ValueError):
    """Raised when every disjunct of a disjunctive permission is forbidden."""


@dataclass
class RemainderResult:
    surviving: tuple[Formula, ...]
    eliminated: tuple[tuple[Formula, Formula], ...]  # (disjunct, eliminating obligation)
    detached: tuple[Formula, ...]

    def surviving_disjunction(self) -> Formula | None:
        if not self.surviving:
            return None
        f = self.surviving[0]
        for d in self.surviving[1:]:
            f = Or(f, d)
        return f

    def render(self) -> str:
        out = [f"remainder: {render(PermS(self.surviving_disjunction()))}"]
        out += [f"eliminated {render(d)} by {render(ob)}" for d, ob in self.eliminated]
        out += [f"detached: {render(PermS(d))}" for d in self.detached]
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "surviving": [render(d) for d in self.surviving],
            "eliminated": [{"disjunct": render(d), "by": render(ob)} for d, ob in self.eliminated],
            "detached": [render(PermS(d)) for d in self.detached],
        }


def compute_remainder(
    disjuncts: Sequence[Formula],
    obligations: Iterable[Formula],
    weak_permissions: Iterable[Formula] = (),
    use_implication_sides: bool = False,
) -> RemainderResult:
    """Strip forbidden disjuncts from a disjunctive strong permission.

    A disjunct ``d`` is eliminated by an obligation ``O x`` when ``x`` is
    ``~d`` up to the ``Pw``/``~O~`` spelling, mirroring one application of
    the obligation-guarded axiom per disjunct.  With
    ``use_implication_sides`` enabled, ``O r`` also eliminates ``d`` when
    ``r -> ~d`` is a propositional tautology (the rule-shaped variant).

    Detachment of strong permissions happens in exactly two situations:
    a singleton remainder is detached outright, and when nothing was
    eliminated and every disjunct appears among the supplied weak
    permissions, all of them are lifted at once.
    """
    disjuncts = list(disjuncts)
    if not disjuncts:
        raise ValueError("the disjunct list must be non-empty")
    obligations = list(obligations)
    for ob in obligations:
        if not isinstance(expand_pw(ob), Obl):
            raise ValueError(f"not an obligation: {render(ob)}")
    weak = {expand_pw(f) for f in weak_permissions}

    def eliminator(d: Formula) -> Formula | None:
        nd = expand_pw(Not(d))
        for ob in obligations:
            body = expand_pw(ob).operand
            if body == nd:
                return ob
            if use_implication_sides and is_tautology(Implies(body, nd)):
                return ob
        return None

    surviving: list[Formula] = []
    eliminated: list[tuple[Formula, Formula]] = []
    for d in disjuncts:
        ob = eliminator(d)
        if ob is None:
            surviving.append(d)
        else:
            eliminated.append((d, ob))

    if not surviving:
        raise RemainderError(
            "every disjunct is forbidden; the disjunctive permission is inconsistent "
            "with the obligations"
        )

    detached: tuple[Formula, ...] = ()
    if len(surviving) == 1:
        detached = (surviving[0],)
    elif not eliminated and all(expand_pw(d) in weak for d in surviving):
        detached = tuple(surviving)
    return RemainderResult(tuple(surviving), tuple(eliminated), detached)
