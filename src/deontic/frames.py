"""Frame conditions on finite neighbourhood frames and schema validity.

Only the frame part of a model (worlds plus the two neighbourhood
functions) is consulted here.  Every condition quantifies its set
variables over *all* subsets of W, so a check costs up to 2^|W| per
variable; the four-variable conditions are restructured internally into
two-variable loops with precomputed subset predicates.  The frame checks
take at most 12 worlds (``_FREE_BITS``), past which a block of schema
assignments would free no variable; ``model.truth_set`` has no such limit.

A condition at a world reads only W and the world's two neighbourhoods.
Each is described once, as an ordered stream of witnesses, each with the
set of N_P columns it violates for a given N_O (``_terms``), so one walk
decides a whole list of N_P columns.  The countermodel search reads an
N_O column's verdict on a set of conditions from ``ConditionTables`` and
keeps it; a condition's verdict is the OR of its stream's terms.  The
stream is the one description of each condition and its witnesses.
``find_violation`` reads a bitmask view (``model.ModelView``) through the
one table of its N_P columns the view keeps (``ModelView.perm_members``):
at each world, the first term that holds the world's own column.
``check_property``, ``schema_valid_on_frame`` and ``rule_valid_on_frame``
name the worlds of what the view checks find.

Schema validity on a finite frame is decided by assigning every
metavariable every subset of W as its truth set and evaluating the
schema under all assignments and at all worlds in one ``model.truth_mask``
walk.  This is sound and complete on finite frames because every subset
is the truth set of some atom under some valuation based on the frame.
A ``ColumnPlan`` decides a body of modal depth <= 1 at world 1 alone, for
all of a world count's (N_O, N_P) column pairs in one call, as the search
reads it for a schema and for a formula, whose atoms are its variables.

The three rule-shaped conditions pair an inference rule with a frame
condition.  Each one restricts its axiom-shaped counterpart: fixing the
auxiliary set variable as the complement of the obligation-side set (or
as the permitted set itself, for the weak-permission guards) recovers
the axiom condition, so a frame satisfying a rule condition always
satisfies the matching axiom condition.  ``GUARDED_RULES`` describes
each rule once; ``GuardedRule.unfalsified`` re-verifies both a rule
countermodel of the search and a witness (``systems.recheck_witness``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import product
from operator import or_
from typing import Iterable

from .formula import Atom, Formula, PermS, PermW, Schema, atoms, eval_bits, instantiate, schema
from .model import (
    ModelView, NeighbourhoodModel, WorldSet, column_members, evaluate, model_valid,
    render_world_set, truth_mask,
)

__all__ = [
    "FrameProperty", "PropertyWitness", "SchemaViolation",
    "check_property", "find_violation", "column_members", "ConditionTables",
    "classify_frame", "schema_valid_on_frame", "schema_variables",
    "find_schema_violation", "ColumnPlan",
    "rule_valid_on_frame", "GuardedRule", "GUARDED_RULES",
    "supplementation_closure", "entailment_closure", "PROPERTY_ENTAILMENTS",
]


class FrameProperty(Enum):
    O_SUPPLEMENTED = "OSupplemented"
    P_SUPPLEMENTED = "PSupplemented"
    PW_COHERENT = "PwCoherent"
    PS_COHERENT = "PsCoherent"
    AFCP_O = "AFCPO"
    AFCP_P = "AFCPP"
    AFCP2_P = "AFCP2P"
    IFCP_O = "IFCPO"
    IFCP_P = "IFCPP"
    IFCP2_P = "IFCP2P"

    @classmethod
    def from_name(cls, text: str) -> "FrameProperty":
        for member in cls:
            if text == member.value or text.upper() == member.name:
                return member
        known = ", ".join(member.value for member in cls)
        raise ValueError(f"unknown frame property {text!r} (known: {known})")


@dataclass(frozen=True)
class PropertyWitness:
    """Concrete sets exhibiting a violation of a frame condition at a world."""

    prop: FrameProperty
    world: str
    x: WorldSet | None = None
    y: WorldSet | None = None
    z: WorldSet | None = None
    q: WorldSet | None = None

    def render(self) -> str:
        """``world w, X={...}, ...``, naming only the sets the condition uses."""
        sets = (("X", self.x), ("Y", self.y), ("Z", self.z), ("Q", self.q))
        return ", ".join([f"world {self.world}"]
                         + [f"{label}={render_world_set(s)}" for label, s in sets if s is not None])


@dataclass
class SchemaViolation:
    """Subset assignment to metavariables plus a world falsifying the schema."""

    assignment: dict[str, WorldSet]
    world: str

    def render(self) -> str:
        pairs = sorted(self.assignment.items())
        assigned = ", ".join(f"{v}={render_world_set(s)}" for v, s in pairs)
        return f"at {self.world} under {assigned}"

    def to_dict(self) -> dict:
        assigned = {v: sorted(s) for v, s in self.assignment.items()}
        return {"world": self.world, "assignment": assigned}


def _pw_subset_witness(full: int, no: frozenset[int]) -> list[int | None]:
    # For each mask X, the first Z <= X with complement(Z) not obligatory, if any.
    out: list[int | None] = []
    for x in range(full + 1):
        found = None
        for z in range(x + 1):
            if z & x == z and (full ^ z) not in no:
                found = z
                break
        out.append(found)
    return out


def _terms(no: frozenset[int], has: list[int], full: int, prop: FrameProperty):
    """The condition at a world with N_O = ``no`` in W = ``full``, as an ordered stream of
    (witness masks (x, y, z, q), term): the N_P columns of the ``column_members`` table ``has``
    in which the witness violates it, or -1 (every column) for a condition on N_O alone.
    A column's first term in the stream gives its witness.  The one description of each."""
    P, masks = FrameProperty, range(full + 1)
    if prop is P.O_SUPPLEMENTED:
        return (((x, m, None, None), -1)
                for m in sorted(no) for x in masks if x | m == x and x not in no)
    if prop is P.P_SUPPLEMENTED:
        return (((x, m, None, None), has[m] & ~has[x]) for m in masks for x in masks if x | m == x)
    if prop is P.PW_COHERENT:
        return (((x, None, None, None), -1) for x in sorted(no) if full ^ x in no)
    if prop is P.PS_COHERENT:
        return (((x, None, None, None), has[x]) for x in masks if full ^ x in no)
    if prop is P.AFCP_O:
        return (((x, full ^ o, None, None), has[x | full ^ o] & ~has[x])
                for o in sorted(no) for x in masks)
    # Each stream skips the pairs whose term an earlier pair repeats: AFCP_P's and IFCP_P's are
    # symmetric in x, y and 0 at x = y; the others read x | y and x, which y - x gives first.
    if prop is P.AFCP_P:
        free = [x for x in masks if full ^ x not in no]
        return (((x, y, None, None), has[x | y] & ~(has[x] & has[y]))
                for i, x in enumerate(free) for y in free[i + 1:])
    if prop is P.AFCP2_P:
        return (((x, y, None, None), has[x | y] & ~has[x])
                for x in masks if full ^ x not in no for y in masks if x & y == 0)
    if prop is P.IFCP_O:
        ordered = sorted(no)
        first = [next((z for z in ordered if z & y == 0), None) for y in masks]
        return (((x, y, first[y], None), has[x | y] & ~has[x])
                for x in masks for y in masks if x & y == 0 and first[y] is not None)
    if prop is P.IFCP_P or prop is P.IFCP2_P:
        sub = _pw_subset_witness(full, no)
        if prop is P.IFCP_P:
            xs = [x for x in masks if sub[x] is not None]
            return (((x, y, sub[x], sub[y]), has[x | y] & ~(has[x] & has[y]))
                    for i, x in enumerate(xs) for y in xs[i + 1:])
        return (((x, y, sub[x], None), has[x | y] & ~has[x])
                for x in masks if sub[x] is not None for y in masks if x & y == 0)
    raise ValueError(f"unhandled frame property {prop!r}")


def _or(terms: Iterable[int]) -> int:
    return reduce(or_, terms, 0)


class ConditionTables:
    """The ten conditions at a world for every N_P column of the list ``cols`` at once:
    ``failing`` reads an N_O column's verdict on a set of conditions and keeps it, one per N_O
    column and condition set asked (0.81 MB for every class and rule on 529 columns).  A
    condition's verdict is the OR of its ``_terms`` stream over the list's ``column_members``
    table ``has``, -1 included, so the streams stay the one description of each condition.
    """

    def __init__(self, cols: list[frozenset[int]], full: int):
        self.has, self.full = column_members(cols, full), full
        self._verdicts: dict[tuple, int] = {}  # by (N_O column, condition set)

    def failing(self, no: frozenset[int], props: Iterable[FrameProperty]) -> int:
        """The columns whose pair with ``no`` violates one of ``props`` (hashable); -1 for all."""
        verdict = self._verdicts.get((no, props))
        if verdict is None:
            verdict = self._verdicts[no, props] = _or([self._failing(no, p) for p in props])
        return verdict

    def _failing(self, no: frozenset[int], prop: FrameProperty) -> int:
        return _or(term for _, term in _terms(no, self.has, self.full, prop))


def find_violation(b: ModelView, prop: FrameProperty) -> tuple[int, tuple] | None:
    """The first world index violating the condition and its witness masks (x, y, z, q), or
    None: at world i, the first term of its N_O's stream holding column i (-1 holds every one)."""
    has = b.perm_members
    reads_n_o_alone = prop is FrameProperty.O_SUPPLEMENTED or prop is FrameProperty.PW_COHERENT
    for wi, (no, np) in enumerate(zip(b.n_obl, b.n_perm)):
        # A condition on N_O alone needs a member of N_O(w).  Every other term reads has[...],
        # whose bit for w is 0 when N_P(w) is empty, so such a world meets the other eight.
        if np or no and reads_n_o_alone:
            for hit, term in _terms(no, has, b.full, prop):
                if term >> wi & 1:
                    return wi, hit
    return None


def _frame_view(m: NeighbourhoodModel) -> ModelView:
    # The frame checks take 1 to _FREE_BITS worlds, where each schema block frees a variable.
    n = len(m.worlds)
    if not 1 <= n <= _FREE_BITS:
        raise ValueError(f"frame checks take 1 to {_FREE_BITS} worlds, the model has {n}")
    return m.view


def check_property(m: NeighbourhoodModel, prop: FrameProperty) -> PropertyWitness | None:
    """None iff the condition holds at every world; otherwise a concrete witness."""
    b = _frame_view(m)
    found = find_violation(b, prop)
    if found is None:
        return None
    wi, hit = found
    return PropertyWitness(prop, m.worlds[wi], *(None if x is None else b.set_of(x) for x in hit))


def classify_frame(m: NeighbourhoodModel) -> set[FrameProperty]:
    """Exactly the properties whose condition holds on this frame."""
    return {p for p in FrameProperty if check_property(m, p) is None}


# Provable implications between the conditions, as (premises, conclusion).
# The rule-shaped conditions restrict their axiom-shaped counterparts
# (instantiate the auxiliary variable as the complement of the second set,
# or as the whole first set); P-supplementation closes the gap in the
# other direction because it lets a detached subset be inflated back to
# the set of interest.  The obligation guard and the two-disjunct guard
# together give the one-disjunct guard: when the second set's complement
# is obligatory the obligation guard detaches the first set, and otherwise
# the two-disjunct guard does.  Each fact has a direct set-theoretic proof
# and is re-verified exhaustively on small frames in the test suite.
PROPERTY_ENTAILMENTS: tuple[tuple[frozenset[FrameProperty], FrameProperty], ...] = (
    (frozenset({FrameProperty.IFCP_O}), FrameProperty.AFCP_O),
    (frozenset({FrameProperty.IFCP_P}), FrameProperty.AFCP_P),
    (frozenset({FrameProperty.IFCP2_P}), FrameProperty.AFCP2_P),
    (frozenset({FrameProperty.AFCP2_P}), FrameProperty.AFCP_P),
    (frozenset({FrameProperty.IFCP2_P}), FrameProperty.IFCP_P),
    (frozenset({FrameProperty.P_SUPPLEMENTED, FrameProperty.AFCP_O}), FrameProperty.IFCP_O),
    (frozenset({FrameProperty.P_SUPPLEMENTED, FrameProperty.AFCP2_P}), FrameProperty.IFCP2_P),
    (
        frozenset({FrameProperty.P_SUPPLEMENTED, FrameProperty.AFCP_O, FrameProperty.AFCP_P}),
        FrameProperty.IFCP_P,
    ),
    (frozenset({FrameProperty.AFCP_O, FrameProperty.AFCP_P}), FrameProperty.AFCP2_P),
    (frozenset({FrameProperty.IFCP_O, FrameProperty.IFCP_P}), FrameProperty.IFCP2_P),
)


def entailment_closure(props: Iterable[FrameProperty]) -> frozenset[FrameProperty]:
    """Close a property set under the provable implications between conditions."""
    out = set(props)
    changed = True
    while changed:
        changed = False
        for premises, conclusion in PROPERTY_ENTAILMENTS:
            if conclusion not in out and premises <= out:
                out.add(conclusion)
                changed = True
    return frozenset(out)


def schema_variables(s: Schema) -> list[str]:
    """The metavariables of a pure schema, sorted; a concrete atom raises ValueError."""
    concrete = atoms(s.body) - s.metavars
    if concrete:
        names = ", ".join(sorted(concrete))
        raise ValueError(f"schema contains concrete atoms ({names}); frame validity needs a pure schema")
    return sorted(s.metavars & atoms(s.body))


# Both schema evaluators' blocks free the last min(k, _FREE_BITS // n) of k variables, n worlds.
_FREE_BITS = 12  # assignment bits in one block: at most 4 096 assignments


@cache
def _block(n: int, k: int) -> tuple[int, int, list[int]]:
    # The m last variables free in a block, its low, and their columns in product order.
    m = min(k, _FREE_BITS // n)
    rows = range(1 << n * m)
    cols = [sum((a >> n * (m - 1 - j) & (1 << n) - 1) << a * n for a in rows) for j in range(m)]
    return m, sum(1 << a * n for a in rows), cols


def find_schema_violation(b: ModelView, body: Formula,
                          variables: list[str]) -> tuple[int, tuple[int, ...]] | None:
    """The first subset assignment to ``variables`` (as masks) falsifying ``body``, with the
    index of the first world where it is false; None when the body is valid on the frame.

    Bit-parallel: the last min(k, ``_FREE_BITS`` // n) variables share one ``truth_mask``
    block, the rest are fixed per block in product order, so the lowest false bit comes first.
    The one implementation of schema validity; ``schema_valid_on_frame`` names its result.
    """
    n = len(b.worlds)
    m, low, cols = _block(n, len(variables))
    full = b.full * low
    for fixed in product(range(1 << n), repeat=len(variables) - m):
        masks = dict(zip(variables, [x * low for x in fixed] + cols))
        false_at = full ^ truth_mask(b, body, masks, low)
        if false_at:
            a, wi = divmod((false_at & -false_at).bit_length() - 1, n)
            return wi, fixed + tuple(a >> n * (m - 1 - j) & b.full for j in range(m))
    return None


_WALK_BITS = 1 << 16  # (prefix, column, assignment) bits in one walk: ints of at most 8 KB


def _repeat(x: int, width: int, times: int) -> int:
    """``times`` copies of the ``width``-bit ``x`` side by side, built by doubling."""
    out = 0
    for i in range(times.bit_length()):
        if times >> i & 1:
            out = out << (width << i) | x
        x |= x << (width << i)
    return out


def _join(parts: list[int], width: int) -> int:
    """The ``width``-bit ``parts`` side by side, the first lowest, joined pairwise."""
    while len(parts) > 1:
        parts = [lo | hi << width for lo, hi in zip(parts[::2], parts[1::2] + [0])]
        width *= 2
    return parts[0]


class _Assignments:
    """A block of subset assignments, all variables but ``free`` taking their mask in ``fixed``:
    assignment a gives the i-th free variable the set of worlds w with bit i·n + w of a.

    ``atoms[w][v]`` has bit a set when v holds at world w under a, and ``truth(x)[s]`` when the
    truth set of the modal-free ``x`` under a is s, so neither reads the frame.
    """

    def __init__(self, n: int, free: list[str], fixed: dict[str, int]):
        self.size = 1 << n * len(free)
        self.full = (1 << self.size) - 1
        bit = [self.full - self.full // ((1 << (1 << p)) + 1) for p in range(n * len(free))]
        self.atoms = [{v: self.full if x >> w & 1 else 0 for v, x in fixed.items()}
                      | {v: bit[i * n + w] for i, v in enumerate(free)} for w in range(n)]
        self._truth: dict[Formula, dict[int, int]] = {}

    def truth(self, x: Formula) -> dict[int, int]:
        table = self._truth.get(x)
        if table is None:
            table = {0: self.full}
            for w, held in enumerate(self.atoms):
                at = eval_bits(x, lambda a: held.get(a.name, 0), self.full)
                split = {}
                for s, e in table.items():
                    if e & at:
                        split[s | 1 << w] = e & at
                    if e & ~at:
                        split[s] = e & ~at
                table = split
            self._truth[x] = table
        return table


class ColumnPlan:
    """Where a body of modal depth <= 1 is false at world 1 of an n-world frame whose other
    worlds are empty, under some subset assignment to ``variables`` (a schema's metavariables
    or a formula's atoms), for many (N_O column, N_P column of ``cols``) pairs at once.

    The assignments come in blocks as in ``find_schema_violation`` (``_Assignments``).  ``first``
    walks each block over chunks of pairs, bit i·A + a standing for the i-th pair under
    assignment a of a block of A, after ``tick()`` (a search's time budget); once a block
    falsifies a pair, later blocks search only the pairs before it.  Past one block the rows go
    a window at a time, each block built once per window: the first window holds 32 walks of
    pairs and each later one twice as many, so a hit in an early row and a late block walks no
    row far after it.  As the rest of W is empty, world 1 alone can falsify the body once a
    search has passed the one-world frames whose neighbourhoods are empty.
    """

    def __init__(self, n: int, body: Formula, variables: list[str], cols: list[frozenset[int]],
                 tick=lambda: None):
        self.n, self.body, self.variables, self.cols, self.tick = n, body, variables, cols, tick

    def first(self, rows: Iterable[tuple[frozenset[int], int]]) -> tuple[int, int] | None:
        """The first (row, column) whose pair falsifies the body, or None: each row holds an N_O
        column and the bitset of its live columns (bit j for ``cols[j]``), all read before any is
        decided, walked in order, at most ``_WALK_BITS`` (pair, assignment) bits in a walk."""
        n, k, rows, lo, best = self.n, len(self.variables), list(rows), 0, None
        m = min(k, _FREE_BITS // n)
        step = max(1, _WALK_BITS >> n * m)  # pairs in a walk
        size = 32 * step if k > m else float("inf")  # live pairs in the first window
        while best is None and lo < len(rows):
            hi, held = lo, 0
            while hi < len(rows) and held < size:
                held, hi = held + rows[hi][1].bit_count(), hi + 1
            for fixed in product(range(1 << n), repeat=k - m):
                if best is not None:  # only the pairs before it
                    r, j = best
                    hi, rows = r + 1, rows[:r] + [(rows[r][0], rows[r][1] & (1 << j) - 1)]
                if not any(live for _, live in rows[lo:hi]):
                    break
                block = _Assignments(n, self.variables[k - m:], dict(zip(self.variables, fixed)))
                for chunk in _chunks(rows, lo, hi, step):
                    self.tick()
                    false_at = self._false_at(block, chunk)
                    if false_at:
                        i = ((false_at & -false_at).bit_length() - 1) // block.size
                        best = [(r, j) for r, _, cols in chunk for j in cols][i]
                        break
            lo, size = hi, 2 * size
        return best

    def _false_at(self, block: _Assignments, chunk) -> int:
        size, every = block.size, (1 << self.n) - 1
        js = [j for *_, cols in chunk for j in cols]
        full = (1 << size * len(js)) - 1
        atoms = {v: _repeat(x, size, len(js)) for v, x in block.atoms[0].items()}

        def leaf(node: Formula) -> int:
            if type(node) is Atom:
                return atoms[node.name]
            truth, flip = block.truth(node.operand), every if type(node) is PermW else 0
            if type(node) is PermS:  # a value per N_P column, joined pair by pair
                held = {j: sum(truth.get(s, 0) for s in self.cols[j]) for j in set(js)}
                return _join([held[j] for j in js], size)
            out, at = 0, 0
            for _, no, cols in chunk:  # a value per N_O column, repeated over its run
                out |= _repeat(sum(truth.get(flip ^ s, 0) for s in no), size, len(cols)) << at
                at += size * len(cols)
            return full ^ out if flip else out  # Pw x is ~O~x

        return full ^ eval_bits(self.body, leaf, full)


def _chunks(rows, lo, hi, step: int):
    # The live pairs of rows lo..hi-1 in walk order, ``step`` a chunk, as runs (row, N_O, columns).
    chunk, room = [], step
    for r, (no, live) in enumerate(rows[lo:hi], lo):
        while live:
            cols = []
            while live and len(cols) < room:
                cols.append((live & -live).bit_length() - 1)
                live &= live - 1
            chunk.append((r, no, cols))
            room -= len(cols)
            if not room:
                yield chunk
                chunk, room = [], step
    if chunk:
        yield chunk


def schema_valid_on_frame(m: NeighbourhoodModel, s: Schema) -> SchemaViolation | None:
    """Frame validity of a pure schema, by quantifying metavariables over all subsets of W.

    Returns None when valid, otherwise the falsifying subset assignment and world.
    """
    variables = schema_variables(s)
    b = _frame_view(m)
    found = find_schema_violation(b, s.body, variables)
    if found is None:
        return None
    wi, assignment = found
    return SchemaViolation({v: b.set_of(x) for v, x in zip(variables, assignment)}, m.worlds[wi])


@dataclass(frozen=True)
class GuardedRule:
    """A guarded-permission rule: from the premise and the theorem-level sides, infer the conclusion.

    ``prop`` is the matching frame condition, and ``letters`` names the rule
    letter that stands for each of its witness sets x, y, z, q in turn.
    """

    prop: FrameProperty
    premise: Schema
    sides: tuple[Schema, ...]
    conclusion: Schema
    letters: tuple[str, ...]

    def unfalsified(self, m: NeighbourhoodModel, w: str, subst: dict[str, Formula]) -> str | None:
        """None when the instance under ``subst`` falsifies the rule at ``w``, else the part that
        does not: the ``premise`` false at ``w``, a ``side`` not valid, the ``conclusion`` true."""
        if not evaluate(m, w, instantiate(self.premise, subst)):
            return "premise"
        if not all(model_valid(m, instantiate(side, subst)) for side in self.sides):
            return "side"
        return "conclusion" if evaluate(m, w, instantiate(self.conclusion, subst)) else None


def _guarded(prop: FrameProperty, premise: str, sides: tuple[str, ...], conclusion: str,
             letters: str) -> GuardedRule:
    def sch(text: str) -> Schema:
        return schema(text, "p q r s")

    return GuardedRule(prop, sch(premise), tuple(map(sch, sides)), sch(conclusion),
                       tuple(letters.split()))


GUARDED_RULES: dict[str, GuardedRule] = {
    "IFCP_O": _guarded(FrameProperty.IFCP_O, "Ps(p | q) & O r", ("r -> ~p",), "Ps q", "q p r"),
    "IFCP_P": _guarded(FrameProperty.IFCP_P, "Ps(p | q) & Pw r & Pw s", ("r -> p", "s -> q"),
                       "Ps p & Ps q", "p q r s"),
    "IFCP2_P": _guarded(FrameProperty.IFCP2_P, "Ps(p | q) & Pw r", ("r -> p",), "Ps p", "p q r"),
}


def rule_valid_on_frame(m: NeighbourhoodModel, rule: str) -> SchemaViolation | None:
    """Validity of a guarded-permission inference rule on a finite frame.

    A rule is valid iff for all subset assignments and worlds: when the
    premise holds at the world and each side-condition implication is true
    at every world under the assignment (a set inclusion), the conclusion
    holds at the world.  This coincides with the matching rule-shaped frame
    condition; a violation is reported as an assignment to the rule's
    schematic letters.
    """
    try:
        guarded = GUARDED_RULES[rule]
    except KeyError:
        known = ", ".join(sorted(GUARDED_RULES))
        raise ValueError(f"unknown rule {rule!r} (known: {known})") from None
    wit = check_property(m, guarded.prop)
    if wit is None:
        return None
    # Sorted by letter, the order in which reports print the assignment.
    return SchemaViolation(dict(sorted(zip(guarded.letters, (wit.x, wit.y, wit.z, wit.q)))),
                           wit.world)


def supplementation_closure(m: NeighbourhoodModel, which: str) -> NeighbourhoodModel:
    """Close each neighbourhood of the chosen function under supersets.

    ``which`` is "O" or "Ps".  The result is the smallest superset-closed
    collection containing each N(w): the masks including some member.  The
    operation is extensive and idempotent.
    """
    if which not in ("O", "Ps"):
        raise ValueError(f"which must be 'O' or 'Ps', got {which!r}")
    b = _frame_view(m)

    def close(cols: list[frozenset[int]]) -> list[frozenset[int]]:
        return [frozenset(x for x in range(b.full + 1) if any(x & s == s for s in col))
                for col in cols]

    n_obl, n_perm = (close(b.n_obl), b.n_perm) if which == "O" else (b.n_obl, close(b.n_perm))
    return ModelView(b.worlds, n_obl, n_perm, b.valuation).model()
