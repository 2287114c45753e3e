"""Command-line front end.

Every subcommand returns a ``Report``; ``main`` prints its text, or its
JSON document under ``--json``, and exits with its code.

Exit codes: 0 success (or countermodel Found), 1 verification failure
(or search exhaustion), 2 usage/input errors.  When the reader closes the
pipe early (``deontic inclusions | head -1``), the command ends quietly
with its verdict's code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bundled
from .formula import Formula, Obl, Or, ParseError, PermW, flatten, formula_to_dict, parse, render
from .model import (
    NeighbourhoodModel, evaluate, load_model, model_to_dict, render_world_set, truth_set,
    validate_model,
)
from .frames import (
    GUARDED_RULES, FrameProperty, check_property, rule_valid_on_frame,
    schema_valid_on_frame, supplementation_closure,
)
from .systems import SCHEMAS
from .proof import (
    SCENARIOS, TABLE1_DERIVABLES, check_proof, parse_proof_script, run_scenario,
    scenario_registry, strength_lattice, verify_table1,
)
from .search import (
    RemainderError, SearchBounds, SearchTimeout, compute_remainder, find_countermodel,
)


@dataclass
class Report:
    """What a subcommand prints: ``text``, or ``data`` as JSON; ``code`` is the exit code."""

    text: str
    data: dict
    code: int = 0
    indent: int | None = 2  # None prints the JSON on one line


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


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_parse(args) -> Report:
    f = parse(args.formula)
    return Report(render(f), {"formula": render(f), "ast": formula_to_dict(f)})


def _cmd_eval(args) -> Report:
    model = _checked_model(args.model)
    f = parse(args.formula)
    if args.world is not None:
        value = evaluate(model, args.world, f)
        return Report("true" if value else "false", {"world": args.world, "value": value},
                      indent=None)
    ts = truth_set(model, f)
    return Report(render_world_set(ts), {"truth_set": sorted(ts)}, indent=None)


def _property_status(model: NeighbourhoodModel, prop: FrameProperty) -> dict:
    witness = check_property(model, prop)
    return {"status": "satisfied" if witness is None else "violated",
            "witness": witness.render() if witness else None}


def _cmd_classify(args) -> Report:
    model = _checked_model(args.model)
    data = {prop.value: _property_status(model, prop) for prop in FrameProperty}
    lines = [f"{name:14s} {row['status']}" + (f"  ({row['witness']})" if row["witness"] else "")
             for name, row in data.items()]
    return Report("\n".join(lines), data)


def _cmd_check_frame(args) -> Report:
    model = _checked_model(args.model)
    if args.property:
        row = _property_status(model, FrameProperty.from_name(args.property))
        text = f"{args.property}: {row['status']}"
        if row["witness"] is None:
            return Report(text, {"property": args.property, **row})
        return Report(f"{text} ({row['witness']})", {"property": args.property, **row}, 1)
    if args.schema:
        if args.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {args.schema!r}")
        violation = schema_valid_on_frame(model, SCHEMAS[args.schema])
        kind, name = "schema", args.schema
    else:
        violation = rule_valid_on_frame(model, args.rule)
        kind, name = "rule", args.rule
    if violation is None:
        return Report(f"{name}: valid on this frame", {kind: name, "status": "valid"})
    return Report(f"{name}: violated {violation.render()}",
                  {kind: name, "status": "violated", **violation.to_dict()}, 1)


def _cmd_prove(args) -> Report:
    registry = scenario_registry()
    for path in args.system_file or ():
        registry.load_file(path)
    result = check_proof(parse_proof_script(Path(args.script).read_text()), registry)
    return Report(result.render(), result.to_dict(), 0 if result.valid else 1, indent=None)


def _cmd_verify_table1(args) -> Report:
    registry = scenario_registry()
    reports = [verify_table1(name, registry)
               for name in ([args.system] if args.system else TABLE1_DERIVABLES)]
    ok = all(report.ok for report in reports)
    lines = [report.render() for report in reports]
    lines.append("all derivability scripts valid" if ok else "derivability FAILURES found")
    return Report("\n".join(lines), {"ok": ok, "systems": [r.to_dict() for r in reports]},
                  0 if ok else 1)


def _cmd_countermodel(args) -> Report:
    if args.target in SCHEMAS:
        target = SCHEMAS[args.target]
    elif args.target in GUARDED_RULES:
        target = args.target
    else:
        target = parse(args.target)
    required = frozenset(FrameProperty.from_name(name) for name in args.require.split(",") if name)
    bounds = SearchBounds(args.max_worlds, args.max_sets,
                          tuple(a for a in args.atoms.split(",") if a))
    report = find_countermodel(target, required, bounds, timeout_secs=args.timeout_secs)
    return Report(report.render(), report.to_dict(), 0 if report.found else 1)


def _cmd_remainder(args) -> Report:
    disjuncts = flatten(parse(args.disjunction), Or)
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
    result = compute_remainder(disjuncts, obligations, weak,
                               use_implication_sides=args.with_implication_sides)
    return Report(result.render(), result.to_dict())


def _cmd_demo(args) -> Report:
    result = run_scenario(args.name)
    return Report(result.render(), result.to_dict(), 0 if result.ok else 1)


def _cmd_inclusions(args) -> Report:
    lattice = strength_lattice()
    return Report(lattice.render(), lattice.to_dict(), 0 if lattice.ok else 1)


def _cmd_closure(args) -> Report:
    closed = model_to_dict(supplementation_closure(_checked_model(args.model), args.which))
    return Report(json.dumps(closed, indent=2), closed)


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

    add("inclusions", _cmd_inclusions, "compute the strength order of the built-in systems")

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
        report = args.func(args)
        try:
            print(json.dumps(report.data, indent=report.indent) if args.json else report.text,
                  flush=True)
        except BrokenPipeError:
            # The reader has gone: send what is left, and the flush at exit, to devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return report.code
    except RemainderError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError, SearchTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
