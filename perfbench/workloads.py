"""The two workloads as fixed, seeded lists of ops with known answers.

An op is one script check, one remainder computation or one search.  ``run`` is the timed
call into the library; ``check`` compares its result with the op's known
answer and returns a reason when they differ.  Every library function is
looked up on the ``deontic`` package at call time, so a traced run sees
the calls through its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import deontic as D
from deontic.systems import FRAME_CLASSES, SCHEMAS

import gen
from prepare import Setup


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # What must repeat across passes; the first result seen is checked in full.
    sig: Callable[[object], object] = lambda result: result


# ---------------------------------------------------------------------------
# proofs

def _script_op(label, text, valid, line, registry) -> Op:
    def run():
        return D.check_proof(D.parse_proof_script(text), registry)

    def check(result):
        if (result.valid, result.line) != (valid, line):
            return f"verdict {result} where the known answer is valid={valid} line={line}"
        return None

    return Op(label, run, check)


def _remainder_op(theory: gen.Theory) -> Op:
    disjuncts = [D.parse(d) for d in theory.disjuncts]
    obligations = [D.parse(o) for o in theory.obligations]
    surviving = tuple(D.Atom(x) for x in theory.surviving)
    detached = surviving if len(surviving) == 1 else ()
    names = theory.surviving
    expected_text = f"Ps {names[0]}" if len(names) == 1 else f"Ps({' | '.join(names)})"

    def run():
        result = D.compute_remainder(disjuncts, obligations, use_implication_sides=True)
        return result, D.render(D.PermS(result.surviving_disjunction()))

    def check(outcome):
        result, text = outcome
        stripped = {d.name for d, _ in result.eliminated}
        if result.surviving != surviving or stripped != theory.eliminated:
            return f"remainder {result.surviving} where the known answer is {surviving}"
        if result.detached != detached or text != expected_text:
            return f"detached {result.detached} / {text!r}, expected {detached} / {expected_text!r}"
        return None

    return Op(theory.label, run, check)


def proofs(rng: random.Random, setup: Setup) -> list[Op]:
    ops = [_script_op(n, t, True, None, setup.registry) for n, t in sorted(setup.scripts.items())]
    for n in gen.CHAIN_SIZES:
        for script in gen.elimination_chain(rng, n):
            ops.append(_script_op(script.label, script.text, script.valid, script.line,
                                  setup.registry))
        ops.append(_remainder_op(gen.remainder_theory(rng, n)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# exhaustive

def _model_key(m):
    def col(c):
        return tuple(sorted(tuple(sorted(s)) for s in c))
    return (m.worlds, tuple(col(m.n_obl[w]) for w in m.worlds),
            tuple(col(m.n_perm[w]) for w in m.worlds),
            tuple(sorted((a, tuple(sorted(s))) for a, s in m.valuation.items())))


def _search_sig(report):
    key = _model_key(report.model) if report.found else None
    return report.found, key, report.world, report.instance


def _exhausted_search_op(label, target, required, bounds) -> Op:
    def run():
        # The budget is over ten times the longest search's time.
        return D.find_countermodel(target, required, bounds, timeout_secs=10.0)

    def check(report):
        return "countermodel found where none exists up to the bounds" if report.found else None

    return Op(label, run, check, sig=_search_sig)


# Atom names set hash and sort orders inside the search, and with them how
# early its frame checks stop: the same search took 0.67 to 0.92 s with six
# different triples.  The names are therefore fixed and the seed only sets
# the order of the ops.
EXHAUSTIVE_ATOMS = ("a", "b", "c")

# Each axiom or rule is valid on its frame class, so the search exhausts its
# bounds.
# On a 2-core Xeon VM the 4-world, 2-set search takes 0.5 to 0.9 s, the
# 3-world, 3-set ones 0.2 to 0.4 s and the 3-world, 2-set ones under 0.1 s.
# Larger searches are left out: one pass must fit a run many times over.
VALIDITY_SEARCHES = (
    ("AFCP2_P", "FCP_2", 4, 2),
    ("AFCP2_P", "FCP_2", 3, 3), ("AFCP_O", "FCP_2", 3, 3), ("D_s", "Min", 3, 3),
    ("M_Ps", "FCP_3", 3, 3),
    ("AFCP_O", "FCP_2", 3, 2), ("AFCP_P", "FCP_2", 3, 2), ("AFCP2_P", "FCP_4", 3, 2),
    ("AFCP_O", "FCP_4", 3, 2), ("D_w", "Min", 3, 2), ("P_sP_w", "Min", 3, 2),
    # Guarded-permission rules, searched by name.
    ("IFCP2_P", "FCP_1", 3, 3), ("IFCP_O", "FCP_1", 3, 2), ("IFCP_P", "FCP_5", 3, 2),
)


def exhaustive(rng: random.Random, setup: Setup) -> list[Op]:
    P = D.FrameProperty
    atoms = EXHAUSTIVE_ATOMS
    x, y = atoms[:2]
    f = D.parse(f"Ps({x} | {y}) & Pw {x} -> Ps {x}")
    afcp = frozenset({P.AFCP_O, P.AFCP_P})
    ops = [
        _exhausted_search_op(f"{name}/{cls}/{w}w{s}s", SCHEMAS.get(name, name),
                             FRAME_CLASSES[cls], D.SearchBounds(w, s, atoms))
        for name, cls, w, s in VALIDITY_SEARCHES
    ]
    ops.append(_exhausted_search_op("formula/2w1s", f, afcp, D.SearchBounds(2, 1, (x, y))))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"proofs": proofs, "exhaustive": exhaustive}
