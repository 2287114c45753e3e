"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain inputs: script
text and remainder theories with the answer the engine must give.  The
seed changes names, orders and random draws but not the sizes that set an
input's cost, so runs with different seeds measure about the same work.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

# Lower-case letters are atoms; the reserved words of the syntax are upper-case.
ATOMS = string.ascii_lowercase

CHAIN_SIZES = range(5, 15)  # disjuncts per elimination chain
ELIMINATIONS = 3            # forbidden disjuncts per chain, as in five_disjuncts.proof
MUTATIONS = ("cpl", "hyp", "min")


@dataclass(frozen=True)
class Script:
    label: str
    text: str
    valid: bool
    line: int | None  # first failing line when invalid


def _disj(names) -> str:
    return " | ".join(names)


def elimination_chain(rng: random.Random, n: int) -> tuple[Script, Script]:
    """An n-disjunct elimination chain and its mutated twin.

    The chain generalises ``five_disjuncts.proof``: three forbidden
    disjuncts, each moved to the front by one ``re`` line (an n-, n-1- and
    n-2-unit tautology) and stripped by one ``ax AFCP_O`` instance and one
    ``cpl`` step.  The twin's mutation is fixed by n so that the failing
    line, and with it the work done, does not depend on the seed.
    """
    names = rng.sample(ATOMS, n)
    forbidden = rng.sample(names, ELIMINATIONS)
    header = [f"hyp: Ps({_disj(names)})"] + [f"hyp: O ~{e}" for e in forbidden]
    body = [f"Ps({_disj(names)}) ; hyp"] + [f"O ~{e} ; hyp" for e in forbidden]
    current, cur_line, cpl_lines = list(names), 1, []
    for step, e in enumerate(forbidden):
        rest = [x for x in current if x != e]
        moved = f"Ps({e} | ({_disj(rest)}))"
        body.append(f"{moved} ; re {cur_line} Ps")
        subst = f" {{p: {e}, q: {_disj(rest)}}}" if rng.random() < 0.5 else ""
        body.append(f"({moved} & O ~{e}) -> Ps({_disj(rest)}) ; ax AFCP_O{subst}")
        k = len(body)
        body.append(f"Ps({_disj(rest)}) ; cpl {2 + step},{k - 1},{k}")
        cpl_lines.append(k + 1)
        current, cur_line = rest, k + 1
    goal = f"goal: Ps({_disj(current)})"

    def text(system, hyps, lines):
        numbered = [f"{i}. {line}" for i, line in enumerate(lines, start=1)]
        return "\n".join([f"system: {system}", *hyps, goal, *numbered]) + "\n"

    chain = Script(f"chain{n}", text("FCP_2", header, body), True, None)
    kind = MUTATIONS[n % len(MUTATIONS)]
    if kind == "cpl":
        # The last cpl step cites the wrong obligation.
        last = cpl_lines[-1]
        wrong = rng.choice([2, 3])
        mutated = list(body)
        mutated[last - 1] = mutated[last - 1].replace("; cpl 4,", f"; cpl {wrong},")
        twin = Script(f"twin{n}-cpl", text("FCP_2", header, mutated), False, last)
    elif kind == "hyp":
        # One "O ~e" hypothesis is dropped from the header; its hyp line fails.
        j = rng.randrange(ELIMINATIONS)
        hyps = header[: 1 + j] + header[2 + j:]
        twin = Script(f"twin{n}-hyp", text("FCP_2", hyps, body), False, 2 + j)
    else:
        # Min has no AFCP_O, so the first ax line is rejected.
        twin = Script(f"twin{n}-min", text("Min", header, body), False, 1 + ELIMINATIONS + 2)
    return chain, twin


@dataclass(frozen=True)
class Theory:
    label: str
    disjuncts: tuple[str, ...]
    obligations: tuple[str, ...]
    surviving: tuple[str, ...]
    eliminated: frozenset[str]


def remainder_theory(rng: random.Random, n: int) -> Theory:
    """n disjuncts; some are forbidden outright, some only via an implication side.

    Forbidding obligations use fresh atoms only, so no obligation strips
    a disjunct it was not built for.  When n is a multiple of 4, all but
    one disjunct are forbidden and the survivor is detached.
    """
    names = rng.sample(ATOMS, len(ATOMS))
    disjuncts, fresh = names[:n], names[n:]
    count = n - 1 if n % 4 == 0 else n // 2
    forbidden = set(rng.sample(disjuncts, count))
    obligations = []
    for e in sorted(forbidden):
        y = rng.choice(fresh)
        obligations.append(rng.choice([f"~{e}", f"~{e} & {y}", f"{y} & ~{e}", f"~({e} | {y})"]))
    for _ in range(n // 3):
        y = rng.choice(fresh)
        obligations.append(rng.choice([f"~{rng.choice(disjuncts)} | {y}", f"~{y}"]))
    rng.shuffle(obligations)
    surviving = tuple(d for d in disjuncts if d not in forbidden)
    return Theory(f"remainder{n}", tuple(disjuncts), tuple(f"O({o})" for o in obligations),
                  surviving, frozenset(forbidden))
