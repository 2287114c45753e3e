"""Command-line front end.

Exit codes: 0 success (or countermodel Found), 1 verification failure
(or search exhaustion), 2 usage/input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bundled
from .formula import (
    And, Atom, Bottom, Formula, Iff, Implies, Not, Obl, Or, ParseError, PermS,
    PermW, Top, parse, render,
)
from .model import (
    NeighbourhoodModel, evaluate, load_model, model_to_dict, truth_set,
    validate_model,
)
from .frames import (
    GUARDED_RULES, FrameProperty, check_property, rule_valid_on_frame,
    schema_valid_on_frame, supplementation_closure,
)
from .systems import SCHEMAS, frame_class
from .proof import (
    SCENARIOS, TABLE1_DERIVABLES, ScenarioResult, check_proof, parse_proof_script,
    run_scenario, scenario_registry, verify_inclusions, verify_table1,
)
from .search import (
    RemainderError, SearchBounds, SearchTimeout, compute_remainder,
    find_countermodel,
)


def _formula_dict(f: Formula) -> dict:
    match f:
        case Atom(name):
            return {"op": "atom", "name": name}
        case Top():
            return {"op": "top"}
        case Bottom():
            return {"op": "bottom"}
        case Not(x):
            return {"op": "not", "args": [_formula_dict(x)]}
        case And(l, r):
            return {"op": "and", "args": [_formula_dict(l), _formula_dict(r)]}
        case Or(l, r):
            return {"op": "or", "args": [_formula_dict(l), _formula_dict(r)]}
        case Implies(l, r):
            return {"op": "implies", "args": [_formula_dict(l), _formula_dict(r)]}
        case Iff(l, r):
            return {"op": "iff", "args": [_formula_dict(l), _formula_dict(r)]}
        case Obl(x):
            return {"op": "O", "args": [_formula_dict(x)]}
        case PermS(x):
            return {"op": "Ps", "args": [_formula_dict(x)]}
        case PermW(x):
            return {"op": "Pw", "args": [_formula_dict(x)]}
    raise TypeError(f"not a formula: {f!r}")


def _load_model_arg(spec: str) -> NeighbourhoodModel:
    """A model argument is a file path or the name of a bundled fixture.

    ``fixtures/NAME`` and bare ``NAME`` both resolve to the bundled models
    when no such file exists on disk.
    """
    for candidate in (spec, spec + ".json"):
        if Path(candidate).is_file():
            return load_model(candidate)
    name = spec.split("/")[-1]
    try:
        return bundled.load_fixture_model(name)
    except FileNotFoundError:
        raise ValueError(f"no model file or bundled fixture named {spec!r}") from None


def _checked_model(spec: str) -> NeighbourhoodModel:
    model = _load_model_arg(spec)
    problems = validate_model(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    return model


def _ws(s) -> str:
    return "{" + ", ".join(sorted(s)) + "}"


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_parse(args) -> int:
    f = parse(args.formula)
    if args.json:
        print(json.dumps({"formula": render(f), "ast": _formula_dict(f)}, indent=2))
    else:
        print(render(f))
    return 0


def _cmd_eval(args) -> int:
    model = _checked_model(args.model)
    f = parse(args.formula)
    if args.world is not None:
        value = evaluate(model, args.world, f)
        if args.json:
            print(json.dumps({"world": args.world, "value": value}))
        else:
            print("true" if value else "false")
    else:
        ts = truth_set(model, f)
        if args.json:
            print(json.dumps({"truth_set": sorted(ts)}))
        else:
            print(_ws(ts))
    return 0


def _cmd_classify(args) -> int:
    model = _checked_model(args.model)
    rows = []
    for prop in FrameProperty:
        witness = check_property(model, prop)
        if witness is None:
            rows.append((prop.value, "satisfied", None))
        else:
            parts = [f"world {witness.world}"]
            for label, value in (("X", witness.x), ("Y", witness.y),
                                 ("Z", witness.z), ("Q", witness.q)):
                if value is not None:
                    parts.append(f"{label}={_ws(value)}")
            rows.append((prop.value, "violated", ", ".join(parts)))
    if args.json:
        print(json.dumps({name: {"status": status, "witness": detail}
                          for name, status, detail in rows}, indent=2))
    else:
        for name, status, detail in rows:
            line = f"{name:14s} {status}"
            if detail:
                line += f"  ({detail})"
            print(line)
    return 0


def _cmd_check_frame(args) -> int:
    model = _checked_model(args.model)
    if args.property:
        witness = check_property(model, FrameProperty.from_name(args.property))
        if witness is None:
            print(f"{args.property}: satisfied")
            return 0
        parts = [f"world {witness.world}"]
        for label, value in (("X", witness.x), ("Y", witness.y), ("Z", witness.z), ("Q", witness.q)):
            if value is not None:
                parts.append(f"{label}={_ws(value)}")
        print(f"{args.property}: violated ({', '.join(parts)})")
        return 1
    if args.schema:
        if args.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {args.schema!r}")
        violation = schema_valid_on_frame(model, SCHEMAS[args.schema])
    else:
        violation = rule_valid_on_frame(model, args.rule)
    name = args.schema or args.rule
    if violation is None:
        print(f"{name}: valid on this frame")
        return 0
    assigned = ", ".join(f"{v}={_ws(s)}" for v, s in sorted(violation.assignment.items()))
    print(f"{name}: violated at {violation.world} under {assigned}")
    return 1


def _cmd_prove(args) -> int:
    registry = scenario_registry()
    for path in args.system_file or ():
        registry.load_file(path)
    script = parse_proof_script(Path(args.script).read_text())
    result = check_proof(script, registry)
    if args.json:
        print(json.dumps({"valid": result.valid, "line": result.line, "reason": result.reason}))
    else:
        print(str(result))
    return 0 if result.valid else 1


def _cmd_verify_table1(args) -> int:
    systems = [args.system] if args.system else list(TABLE1_DERIVABLES)
    registry = scenario_registry()
    all_ok = True
    for name in systems:
        report = verify_table1(name, registry)
        print(report.render())
        all_ok = all_ok and report.ok
    print("all derivability scripts valid" if all_ok else "derivability FAILURES found")
    return 0 if all_ok else 1


def _cmd_countermodel(args) -> int:
    if args.target in SCHEMAS:
        target = SCHEMAS[args.target]
    elif args.target in GUARDED_RULES:
        target = args.target
    else:
        target = parse(args.target)
    required = frozenset(
        FrameProperty.from_name(name) for name in (args.require.split(",") if args.require else [])
        if name
    )
    bounds = SearchBounds(args.max_worlds, args.max_sets,
                          tuple(a for a in args.atoms.split(",") if a))
    try:
        report = find_countermodel(target, required, bounds, timeout_secs=args.timeout_secs)
    except SearchTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "outcome": report.outcome,
            "examined": report.examined,
            "pruned_by_property": report.pruned_by_property,
            "elapsed_secs": round(report.elapsed_secs, 6),
        }
        if report.found:
            payload["world"] = report.world
            payload["model"] = model_to_dict(report.model)
            if report.assignment is not None:
                payload["assignment"] = {v: sorted(s) for v, s in report.assignment.items()}
            if report.instance is not None:
                payload["falsified"] = render(report.instance)
        print(json.dumps(payload, indent=2))
    else:
        print(f"{report.outcome} (examined {report.examined}, "
              f"pruned {report.pruned_by_property}, {report.elapsed_secs:.3f}s)")
        if report.found:
            print(f"world: {report.world}")
            if report.instance is not None:
                print(f"falsified: {render(report.instance)}")
            print(json.dumps(model_to_dict(report.model), indent=2))
    return 0 if report.found else 1


def _cmd_remainder(args) -> int:
    disjunction = parse(args.disjunction)
    disjuncts: list[Formula] = []

    def flatten(f: Formula):
        if isinstance(f, Or):
            flatten(f.left)
            flatten(f.right)
        else:
            disjuncts.append(f)

    flatten(disjunction)
    obligations: list[Formula] = []
    weak: list[Formula] = []
    for raw in Path(args.theory).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        f = parse(line)
        if isinstance(f, Obl):
            obligations.append(f)
        elif isinstance(f, PermW):
            weak.append(f.operand)
        else:
            raise ValueError(f"theory lines must be O ... or Pw ... formulas, got {line!r}")
    try:
        result = compute_remainder(
            disjuncts, obligations, weak, use_implication_sides=args.with_implication_sides
        )
    except RemainderError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "surviving": [render(d) for d in result.surviving],
            "eliminated": [
                {"disjunct": render(d), "by": render(ob)} for d, ob in result.eliminated
            ],
            "detached": [render(PermS(d)) for d in result.detached],
        }, indent=2))
    else:
        survivor = result.surviving_disjunction()
        print(f"remainder: {render(PermS(survivor))}")
        for d, ob in result.eliminated:
            print(f"eliminated {render(d)} by {render(ob)}")
        for d in result.detached:
            print(f"detached: {render(PermS(d))}")
    return 0


def demo_transcript(result: ScenarioResult) -> str:
    """A scenario's transcript; five-disjuncts adds the remainder before and after O ~s."""
    out = [result.transcript()]
    if result.name == "five-disjuncts":
        disjuncts = [Atom(a) for a in "pqrst"]
        base = compute_remainder(disjuncts, [Obl(Not(Atom(a))) for a in "pqr"])
        out.append("remainder after O ~p, O ~q, O ~r: "
                   + render(PermS(base.surviving_disjunction())))
        extended = compute_remainder(disjuncts, [Obl(Not(Atom(a))) for a in "pqrs"])
        out.append("adding O ~s detaches: "
                   + ", ".join(render(PermS(d)) for d in extended.detached))
    return "\n".join(out)


def _cmd_demo(args) -> int:
    result = run_scenario(args.name)
    print(demo_transcript(result))
    return 0 if result.ok else 1


def _cmd_inclusions(args) -> int:
    verifications = verify_inclusions()
    all_ok = True
    for v in verifications:
        fact = v.fact
        status = "ok" if v.ok else "FAIL"
        all_ok = all_ok and v.ok
        print(f"{fact.smaller} < {fact.larger}: {status}  ({fact.note})")
        for script_name, result in v.script_results:
            print(f"    script {script_name}: {result}")
        if fact.strictness_fixture:
            print(f"    fixture {fact.strictness_fixture}:")
            for check, actual in v.fixture_results:
                line = f"        {check.kind} {check.name}: {actual}"
                if check.advertised:
                    line += f"  [advertised: {check.advertised}]"
                print(line)
        small, large = frame_class(fact.smaller), frame_class(fact.larger)
        gained = ", ".join(sorted(p.value for p in large - small))
        print(f"    frame class gains: {gained or '(none)'}")
    print("lattice verified" if all_ok else "lattice verification FAILED")
    return 0 if all_ok else 1


def _cmd_closure(args) -> int:
    model = _checked_model(args.model)
    closed = supplementation_closure(model, args.which)
    print(json.dumps(model_to_dict(closed), indent=2))
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deontic",
        description="Deontic logic engine: models, frames, proofs, countermodels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("parse", _cmd_parse, "parse a formula and print its canonical rendering")
    p.add_argument("formula")

    p = add("eval", _cmd_eval, "evaluate a formula on a model")
    p.add_argument("formula")
    p.add_argument("--model", required=True, help="model file or bundled fixture name")
    p.add_argument("--world", help="evaluate at one world (default: print the truth set)")

    p = add("classify", _cmd_classify, "report which frame conditions a model satisfies")
    p.add_argument("model", help="model file or bundled fixture name")

    p = add("check-frame", _cmd_check_frame, "check one frame condition, schema, or rule")
    p.add_argument("model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--property")
    group.add_argument("--schema")
    group.add_argument("--rule", choices=sorted(GUARDED_RULES))

    p = add("prove", _cmd_prove, "check a derivation script")
    p.add_argument("script")
    p.add_argument("--system-file", action="append", help="extra system definition (json)")

    p = add("verify-table1", _cmd_verify_table1, "run the bundled derivability suite")
    p.add_argument("--system", choices=sorted(TABLE1_DERIVABLES))

    p = add("countermodel", _cmd_countermodel, "bounded countermodel search")
    p.add_argument("--target", required=True, help="formula, schema name, or rule name")
    p.add_argument("--require", default="", help="comma-separated frame properties")
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--max-sets", type=int, default=2)
    p.add_argument("--atoms", default="a,b,c")
    p.add_argument("--timeout-secs", type=float, default=None)

    p = add("remainder", _cmd_remainder, "strip forbidden disjuncts from a disjunctive permission")
    p.add_argument("--disjunction", required=True)
    p.add_argument("--theory", required=True, help="file of O .../Pw ... formulas, one per line")
    p.add_argument("--with-implication-sides", action="store_true",
                   help="also eliminate via O r with r -> ~d a tautology")

    p = add("demo", _cmd_demo, "replay a bundled scenario")
    p.add_argument("name", choices=sorted(SCENARIOS))

    add("inclusions", _cmd_inclusions, "verify the strength lattice")

    p = add("closure", _cmd_closure, "superset-close one neighbourhood function")
    p.add_argument("model")
    p.add_argument("--which", choices=["O", "Ps"], required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
