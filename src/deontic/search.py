"""Bounded countermodel search and remainder detachment.

One loop serves every target, and its candidates are frames.  A formula
is searched as a schema over its own atoms, sorted: a valuation is a
subset assignment, so a formula has a countermodel in a class exactly
when it fails, as a schema, on a frame of the class.  For each world
count, ascending, frames come in lexicographic order of the ``N_O`` and
then the ``N_P`` columns.  A target of modal depth <= 1 (every rule and
named schema, and such a formula) gets world 1's column only, the others
left empty: its truth at a world w reads only the assignment and N(w),
and empty neighbourhoods meet all ten frame conditions, so emptying every
world but w of a countermodel falsified at w, then swapping w with w1,
gives one of these candidates, and exhaustion stays sound.  A deeper
formula gets every world's column.

Only canonical candidates are generated (orderly generation, McKay 1998):
the least encoding of each orbit under a group of world permutations.
Renaming all worlds gives an isomorphic frame, so every permutation
applies to every world's columns.  To world 1's pair alone a permutation
renames its sets but leaves it at world 1.  That keeps what is falsified
for a rule, decided by its frame condition, and for a target with no atom
outside a modal operator (all named schemas), whose truth at w reads N(w)
but not which world w is.  Otherwise only permutations fixing world 1
apply: ``O p -> p`` is false at w1 under p = {w2}, not {w1}.
``_canonical`` tests one level of keys per call: ``N_O`` keys, then
``N_P`` keys against the ``N_O`` key's stabiliser, usually empty.
Candidates come in ascending order and the group keeps what is falsified,
so the first falsifying candidate is least in its orbit and is always
generated.  The every-world walk draws each world's ``N_P`` index only
from those its ``N_O`` index leaves live; frame conditions hold under
renaming worlds, so these are the canonical candidates no required
property prunes, in order, and they alone are counted.

A column is a frozenset of masks, named by its index in ``_collections``'
list, which is in lexicographic order of the sorted masks, and
``_index_tables`` maps every index through every permutation.  Frame
conditions are decided for every ``N_P`` column at once (a free-choice one
from tables built on first use over the ``N_P`` column list), and the
verdict on each ``N_O`` column and set of conditions asked is kept
(``frames.ConditionTables``).  Supplementation is skipped on a side
generated closed.  None of this depends on the target or on the required
conditions, and neither do world 1's canonical ``N_O`` columns with their
blocks' canonical ``N_P`` columns (``_canonical_blocks``), so each search
space (column lists, index tables, condition tables and blocks) is built
whole once per process for each world count, set bound, pair of closed
sides and group, and kept (``_space``) when each list has at most 1024
columns: about 0.28 MB for the 11 spaces of the benchmark's 15 exhaustive
searches.  A larger space, such as 5 worlds / 3 sets (7.0 MB), is built per
search.  Over a kept space a search decides only its target.  The clock is
read per collection, table and key tried while a space is built, then per
``N_O`` row and ``ColumnPlan`` walk of the one-world walk and key of the
every-world walk; a space whose build the budget stopped is not kept.

In the one-world walk each canonical ``N_O`` column is a row of bitsets over
the indices of its ``N_P`` block: the canonical ones (no permutation fixing
the column maps them below themselves, one bitset per permutation) and the
pruned ones.  One call finds the first live (row, ``N_P`` index) falsified:
for a rule where its frame condition fails; for a schema or formula where a
``frames.ColumnPlan`` walk over (row, column, subset assignment) bits finds
its body false at world 1.  World 1 alone needs deciding: a target false
at an empty world is already false on a one-world frame with empty
neighbourhoods, tried first.  The counts are popcounts up to that first
candidate, taken after the call, so a budget stop counts none undecided.
A deeper formula's frames are decided one at a time, by
``frames.find_schema_violation``.  The found frame alone is named
(``ModelView.model()``); the public checks re-verify it and give its first
falsifying assignment, which becomes the valuation (a bounds atom that a
formula lacks is empty), and the evaluator re-verifies the countermodel.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice, permutations, product
from typing import Iterable, Sequence

from .formula import (
    _ATOM, Atom, Formula, Implies, Not, Obl, Or, PermS, Schema,
    atoms as formula_atoms, bare_atoms, expand_pw, instantiate, is_tautology, modal_depth,
    render,
)
from .model import ModelView, NeighbourhoodModel, WorldSet, evaluate, model_to_dict
from .frames import (
    GUARDED_RULES, ColumnPlan, ConditionTables, FrameProperty, SchemaViolation, check_property,
    find_schema_violation, rule_valid_on_frame, schema_valid_on_frame, schema_variables,
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
        for name in ("max_worlds", "max_sets"):  # a set bound of 1.5 is never reached
            if type(getattr(self, name)) is not int:  # nor a bool
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.max_worlds <= HARD_WORLD_CAP:
            raise ValueError(f"max_worlds must be between 1 and {HARD_WORLD_CAP}")
        if self.max_sets < 0:
            raise ValueError("max_sets must be non-negative")
        # Each atom names one assignment variable, and is rendered in the falsified instance.
        for i, name in enumerate(self.atoms):
            if not _ATOM.fullmatch(name):
                raise ValueError(f"invalid atom name {name!r}; atoms match {_ATOM.pattern}")
            if name in self.atoms[:i]:
                raise ValueError(f"atom {name!r} is given twice")


@dataclass
class CountermodelReport:
    """A search's outcome and counts.  ``examined`` counts the canonical candidates decided and
    ``pruned_by_property`` those a required condition fails; the every-world walk generates only
    candidates whose every world meets the required conditions, so it prunes none (0)."""

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
                 closed: bool = False) -> list[frozenset[int]]:
    """All collections of size <= max_sets (only superset-closed ones with ``closed``), in
    lexicographic order of their sorted masks; ``tick()`` runs per collection tried, so a time
    budget holds here too."""
    out: list[frozenset[int]] = []
    _collect([], 0, (1 << n_worlds) - 1, max_sets, closed, tick, out)
    return out


def _collect(prefix: list[int], start: int, full: int, max_sets: int, closed: bool, tick,
             out: list[frozenset[int]]) -> None:
    # Not a closure calling itself: that would be a reference cycle holding ``out`` until the
    # cyclic collector runs, and the search makes too little other garbage for that to be soon.
    tick()
    col = frozenset(prefix)
    if not closed or _superset_closed(col, full):
        out.append(col)
    if len(prefix) == max_sets:
        return
    for mask in range(start, full + 1):
        prefix.append(mask)
        _collect(prefix, mask + 1, full, max_sets, closed, tick, out)
        prefix.pop()


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


def _image_col(perm, col: frozenset[int]) -> frozenset[int]:
    return frozenset([perm[1][m] for m in col])


def _index_tables(perms, cols: list[frozenset[int]], tick) -> list[tuple[int, ...]]:
    """Per permutation, ``table[i]``: the index in ``cols`` (in ``_collections``' order, closed
    under permuting worlds) of column i's image, so indices compare as columns do.  ``tick()``
    runs per table."""
    index = {col: i for i, col in enumerate(cols)}
    out = []
    for perm in perms:
        tick()
        out.append(tuple([index[_image_col(perm, col)] for col in cols]))
    return out


def _image_index(side: int, perm, i: int) -> int:
    return perm[side][i]


def _image_indices(side: int, perm, key: tuple[int, ...]) -> tuple[int, ...]:
    table = perm[side]
    return tuple([table[key[i]] for i in perm[0]])


def _below(table: tuple[int, ...]) -> int:
    """The indices j that an index table maps below j, as a bitset."""
    row = bytearray(len(table) // 8 + 1)  # not |= on a growing int
    for j, i in enumerate(table):
        if i < j:
            row[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(row, "little")


def _generation(n: int, max_sets: int, closed, all_perms: bool, tick):
    """``[no_cols, np_cols], perms`` at n worlds (side k superset-closed with ``closed[k]``); a
    permutation is ``(inverse, mask table, N_O index table, N_P index table, the N_P indices it
    maps below themselves as a bitset)``, all or, without ``all_perms``, those fixing w1.
    ``tick()`` runs per collection and table built.  Searches call it through ``_space``, once
    per process for each key it keeps."""
    cols = {c: _collections(n, max_sets, tick, c) for c in set(closed)}
    perms = [p for p in _perm_tables(n) if all_perms or p[0][0] == 0]
    tables = {c: _index_tables(perms, cols[c], tick) for c in cols}
    perms = [(*p, no, np_, _below(np_))
             for p, no, np_ in zip(perms, tables[closed[0]], tables[closed[1]])]
    return [cols[c] for c in closed], perms


# The search spaces built in this process whose lists have at most ``_KEPT_COLUMNS`` columns,
# by (world count, set bound, sides closed, whole group); a bound above 2^n gives the same
# lists.  A space is stored whole, blocks included, so a build that the budget stopped leaves
# nothing behind; only its verdicts grow, one per N_O column and condition set asked.  Kept:
# every space up to 3 worlds, 4 worlds / 3 sets, 5 worlds / 2 sets (the largest, 1.54 MB with
# the verdicts of every class and rule) and closed lists past them, 28.9 MB for all 222 up to
# 5 worlds / 4 sets, all filled alike.
_KEPT_COLUMNS = 1024
_SPACES: dict = {}


def _space(n: int, max_sets: int, closed, all_perms: bool, tick):
    key = (n, min(max_sets, 1 << n), closed, all_perms)
    space = _SPACES.get(key)
    if space is None:
        cols, perms = _generation(*key, tick)
        cols, full = tuple(map(tuple, cols)), (1 << n) - 1
        space = (cols, tuple(perms), ConditionTables(cols[1], full),
                 tuple(_canonical_blocks(cols, perms, tick)))
        if max(map(len, cols)) <= _KEPT_COLUMNS:
            _SPACES[key] = space
    return space


def _canonical(keys, perms, image, tick):
    """Each of ``keys`` (ascending) that no permutation of ``perms`` maps below itself, with the
    permutations that fix it; ``image(perm, key)`` moves a key.  ``tick()`` runs per key tried."""
    for key in keys:
        tick()
        fixing = []
        for perm in perms:
            moved = image(perm, key)
            if moved < key:
                break
            if moved == key:
                fixing.append(perm)
        else:
            yield key, fixing


def _walk_candidates(n, cols, perms, live, falsified, report, tick):
    """The first canonical candidate (N_O indices, N_P indices) of every world's columns that
    ``falsified`` holds for, counting each one tried, or None.  World k's N_P index ranges over
    ``live(no[k])``, tested only against the stabiliser of the N_O indices ``no``."""
    outer = product(range(len(cols[0])), repeat=n)
    for no, fixing in _canonical(outer, perms, partial(_image_indices, 2), tick):
        inner = product(*map(live, no))
        for np_, _ in _canonical(inner, fixing, partial(_image_indices, 3), tick):
            report.examined += 1
            if falsified(no, np_):
                return no, np_
    return None


def _canonical_blocks(cols, perms, tick):
    """Each canonical N_O index of world 1 with its block's canonical N_P indices as a bitset:
    those that no permutation fixing the N_O index maps below themselves."""
    every = (1 << len(cols[1])) - 1
    for no, fixing in _canonical(range(len(cols[0])), perms, partial(_image_index, 2), tick):
        canonical = every
        for perm in fixing:
            canonical &= ~perm[4]
        yield no, canonical


def _walk_blocks(n, no_cols, blocks, pruned, first, report, tick):
    """``_walk_candidates`` for world 1's pair, the other worlds empty (index 0): a row per
    canonical N_O index of ``blocks``, with its canonical and pruned N_P indices as bitsets;
    ``first`` reads their (N_O column, live N_P indices), each made after ``tick()`` as it is
    read, and gives the first (row, N_P index) falsified, up to which the candidates count."""
    rows = []

    def made():
        for no, canonical in blocks:
            tick()
            rows.append((no, canonical, cut := pruned(no)))
            yield no_cols[no], canonical & ~cut

    hit = first(made())
    stop, last = hit or (len(rows), None)
    for r, (_, canonical, cut) in enumerate(rows[:stop + 1]):
        if r == stop:
            canonical &= (2 << last) - 1  # those up to the first falsified one
        report.examined += canonical.bit_count()
        report.pruned_by_property += (canonical & cut).bit_count()
    rest = (0,) * (n - 1)
    return hit and ((rows[stop][0], *rest), (last, *rest))


def _worlds(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _superset_closed(col: frozenset[int], full: int) -> bool:
    # Closed under adding one world at a time is closed under every superset.
    return all(m | 1 << i in col for m in col for i in range(full.bit_length()))


def _check_atoms(needed: int, bounds: SearchBounds) -> None:
    if needed > len(bounds.atoms):
        raise ValueError(f"target needs {needed} atoms to realise a falsifying valuation, "
                         f"bounds provide {len(bounds.atoms)}")


def find_countermodel(
    target: Formula | Schema | str,
    required: Iterable[FrameProperty],
    bounds: SearchBounds,
    timeout_secs: float | None = None,
) -> CountermodelReport:
    """First falsifying (model, world) under the documented order, or exhaustion.

    ``target`` is a concrete formula, a pure schema, or the name of a
    guarded-permission rule.  ``required`` filters the search to frames
    satisfying the given properties.  ``timeout_secs`` is None (no limit) or a
    non-negative number of seconds; NaN or a negative number raises ValueError.
    """
    if timeout_secs is not None and not timeout_secs >= 0:  # NaN compares false
        raise ValueError(f"timeout_secs must be a non-negative number of seconds, "
                         f"got {timeout_secs!r}")
    if isinstance(target, str):
        if target not in GUARDED_RULES:
            known = ", ".join(sorted(GUARDED_RULES))
            raise ValueError(f"unknown rule target {target!r} (known: {known})")
    elif isinstance(target, Schema):
        if modal_depth(target.body) > 1:
            raise ValueError("schema targets with nested modalities are not supported")
        _check_atoms(len(schema_variables(target)), bounds)
    elif isinstance(target, Formula):
        missing = formula_atoms(target) - set(bounds.atoms)
        if missing:
            names = ", ".join(sorted(missing))
            raise ValueError(f"target atoms not covered by the search bounds: {names}")
    else:
        raise TypeError(f"unsupported target {target!r}")
    return _search(target, frozenset(required), bounds, _Clock(timeout_secs))


def _search(target, required, bounds, clock) -> CountermodelReport:
    report = CountermodelReport(found=False)
    tick = partial(clock.check, report)
    formula = isinstance(target, Formula)
    # A formula is searched as a schema over its own atoms: its valuations are the assignments.
    frame_target = Schema(target, frozenset(formula_atoms(target))) if formula else target
    body = getattr(frame_target, "body", None)  # None for a rule
    variables = [] if body is None else schema_variables(frame_target)
    every_world = formula and modal_depth(target) > 1
    all_perms = body is None or every_world or not bare_atoms(body)
    closed = (FrameProperty.O_SUPPLEMENTED in required, FrameProperty.P_SUPPLEMENTED in required)
    # The columns of a required supplementation are generated closed, so they meet it.
    checked = required - {FrameProperty.O_SUPPLEMENTED, FrameProperty.P_SUPPLEMENTED}
    for n in range(1, bounds.max_worlds + 1):
        worlds = _worlds(n)
        cols, perms, conditions, blocks = _space(n, bounds.max_sets, closed, all_perms, tick)
        no_cols, np_cols = cols
        # Per N_O index: the N_P indices whose pair with it fails, kept with the space.
        pruned = lambda i: conditions.failing(no_cols[i], checked)
        if every_world:
            live = cache(lambda i: [j for j in range(len(np_cols)) if not pruned(i) >> j & 1])

            def falsified(no, np_):
                view = ModelView(worlds, [no_cols[i] for i in no], [np_cols[j] for j in np_], {})
                return find_schema_violation(view, target, variables) is not None

            hit = _walk_candidates(n, cols, perms, live, falsified, report, tick)
        else:
            if body is None:
                prop = frozenset({GUARDED_RULES[target].prop})
                first = lambda rows: next(  # read row by row, up to the first failing column
                    ((r, (hit & -hit).bit_length() - 1) for r, (no, live) in enumerate(rows)
                     if (hit := live and conditions.failing(no, prop) & live)), None)
            else:
                first = ColumnPlan(n, body, variables, np_cols, tick).first
            hit = _walk_blocks(n, no_cols, blocks, pruned, first, report, tick)
        if hit is not None:
            no, np_ = hit
            # Named, so the public checks below re-verify it on a view of their own.
            model = ModelView(worlds, [no_cols[i] for i in no], [np_cols[j] for j in np_],
                              {}).model()
            if any(check_property(model, p) is not None for p in required):
                raise SearchError("countermodel failed re-verification of a required frame "
                                  "property")
            violation = (rule_valid_on_frame(model, target) if body is None
                         else schema_valid_on_frame(model, frame_target))
            if violation is None:
                raise SearchError("frame countermodel failed re-verification")
            report.model, report.instance = _realise_violation(model, target, violation, bounds)
            report.world = violation.world
            report.assignment = None if formula else violation.assignment
            report.found = True
            break
    report.elapsed_secs = clock.elapsed()
    return report


def _realise_violation(frame_model, target, violation: SchemaViolation, bounds):
    """Attach a valuation realising the falsifying assignment, then re-verify."""
    variables = sorted(violation.assignment)
    if isinstance(target, Formula):
        # Assigned its own atoms, as a schema over them; a bounds atom it lacks is empty.
        target, var_to_atom = Schema(target, frozenset(variables)), {v: v for v in variables}
        valuation = dict.fromkeys(bounds.atoms, frozenset())
    else:
        _check_atoms(len(variables), bounds)
        var_to_atom, valuation = dict(zip(variables, bounds.atoms)), {}
    valuation |= {var_to_atom[v]: violation.assignment[v] for v in variables}
    model = NeighbourhoodModel(frame_model.worlds, dict(frame_model.n_obl),
                               dict(frame_model.n_perm), valuation)
    subst = {v: Atom(var_to_atom[v]) for v in variables}
    w = violation.world
    if isinstance(target, Schema):
        instance = instantiate(target, subst)
        if evaluate(model, w, instance):
            raise SearchError("schema countermodel failed re-verification")
        return model, instance

    guarded = GUARDED_RULES[target]
    part = guarded.unfalsified(model, w, subst)
    if part is not None:
        raise SearchError(f"rule countermodel {part} failed re-verification")
    return model, Implies(instantiate(guarded.premise, subst),
                          instantiate(guarded.conclusion, subst))


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
    obligations = [(ob, expand_pw(ob)) for ob in obligations]  # each with its normal form
    for ob, normal in obligations:
        if not isinstance(normal, Obl):
            raise ValueError(f"not an obligation: {render(ob)}")
    weak = {expand_pw(f) for f in weak_permissions}

    def eliminator(d: Formula) -> Formula | None:
        nd = expand_pw(Not(d))
        for ob, normal in obligations:
            body = normal.operand
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
