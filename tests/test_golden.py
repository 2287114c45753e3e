"""Golden CLI outputs: every subcommand, as text and as JSON, pinned byte for byte.

``golden/cli_outputs.json`` maps each case id to its argv, exit code and
stdout.  The evaluation, frame-check and search cases were captured before
the evaluator was unified, the other text cases and the JSON of ``parse``,
``prove`` and ``remainder`` before the subcommands were moved onto one report
layer, and the JSON of the subcommands that printed text under ``--json``
until then (``json_cases``) right after; a change of any byte here is a
change of behaviour.  Search elapsed times are masked.  File arguments are given
relative to the repository root.  To pin a deliberate change, rewrite the
file from ``outputs(cases())``.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from deontic import bundled
from deontic.cli import main
from deontic.frames import GUARDED_RULES, FrameProperty
from deontic.proof import SCENARIOS, TABLE1_DERIVABLES
from deontic.systems import SCHEMAS

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.json"
THEORY = "tests/golden/theory.txt"

MODELS = ("corollary3_model1", "corollary3_model1_mod", "corollary3_model2")

# Modal depth 0 to 3, every connective and operator, atoms inside and outside the valuation.
FORMULAS = (
    "a", "d", "T", "F", "~a | c", "a & b -> c", "a <-> ~b", "(a | b) & ~(b & c)",
    "O a", "O(a & b)", "O ~(a | c)", "Ps(~a | c)", "Ps(a | b)", "Ps(a & c | b)", "Pw b",
    "Pw ~(a & b)", "Ps T", "O F", "Ps(a | b) & O ~a -> Ps b",
    "O Ps a", "Ps Pw(a | b)", "Pw O ~c", "O(a -> Ps b)", "Ps(Ps(~a | c) | a)",
    "Pw(O(a & b) <-> c)", "~O(a & b) & Ps ~Pw ~a",
    "O Ps Pw a", "Ps(Pw O b | c)", "Pw(O Ps(a & b) <-> c)", "O ~Ps ~Pw ~a",
    "Ps(Ps(Ps(~a | c) | a) | b) -> Pw Pw Pw a",
)

SEARCHES = {
    "rule-IFCP_O": ("--target", "IFCP_O", "--require", "AFCPO",
                    "--max-worlds", "3", "--max-sets", "2"),
    "schema-M_O": ("--target", "M_O", "--require", "AFCPO,AFCPP,PsCoherent",
                   "--max-worlds", "2", "--max-sets", "2"),
    "formula-depth2": ("--target", "Ps(a | b) & O ~a -> Ps b & Pw Ps b", "--require", "PwCoherent",
                       "--max-worlds", "3", "--max-sets", "1", "--atoms", "a,b"),
    "formula-exhausts": ("--target", "Ps(a | b) & Pw a -> Ps a", "--require", "AFCPO,AFCPP",
                         "--max-worlds", "2", "--max-sets", "1", "--atoms", "a,b"),
    # Depth 1 and found at 2 worlds: only permutations fixing world 1 apply to the first,
    # since its atom occurs outside every modal operator, and all of them to the second.
    "formula-depth1-bare-atom": ("--target", "O a -> a", "--require", "OSupplemented,PwCoherent",
                                 "--max-worlds", "2", "--max-sets", "2", "--atoms", "a"),
    "formula-depth1": ("--target", "O a & O b -> O(a & b)", "--require", "PsCoherent",
                       "--max-worlds", "2", "--max-sets", "2", "--atoms", "a,b"),
}

# Remainder disjunctions against THEORY: a partial elimination (r only with implication
# sides), every survivor weakly permitted, a singleton survivor, and full elimination.
DISJUNCTIONS = {
    "partial": "p | q | r | s | t",
    "weak-lift": "s | t",
    "singleton": "p | s",
    "inconsistent": "p | q",
}

_ELAPSED = re.compile(r'("elapsed_secs": )[0-9.e-]+|(pruned \d+, )[0-9.]+(?=s\)$)', re.M)


def cases() -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for model in MODELS:
        for i, text in enumerate(FORMULAS):
            out[f"eval/{model}/{i}"] = ("eval", text, "--model", model)
            out[f"eval-json/{model}/{i}"] = ("eval", "--json", text, "--model", model)
        out[f"classify-json/{model}"] = ("classify", "--json", model)
        for name in SCHEMAS:
            out[f"check-frame/{model}/schema/{name}"] = ("check-frame", model, "--schema", name)
        for name in GUARDED_RULES:
            out[f"check-frame/{model}/rule/{name}"] = ("check-frame", model, "--rule", name)
    for label, argv in SEARCHES.items():
        out[f"countermodel-json/{label}"] = ("countermodel", "--json") + argv
    out.update(report_cases())
    out.update(json_cases())
    return out


def report_cases() -> dict[str, tuple[str, ...]]:
    """Text outputs of every subcommand, and the JSON ones that predate the report layer."""
    out: dict[str, tuple[str, ...]] = {}
    for i, text in enumerate(FORMULAS):
        out[f"parse/text/{i}"] = ("parse", text)
        out[f"parse/json/{i}"] = ("parse", "--json", text)
    for model in MODELS:
        out[f"classify/{model}"] = ("classify", model)
        for prop in FrameProperty:
            out[f"check-frame/{model}/property/{prop.value}"] = (
                "check-frame", model, "--property", prop.value)
        for which in ("O", "Ps"):
            out[f"closure/{model}/{which}"] = ("closure", model, "--which", which)
    for name in bundled.fixture_names("proofs"):
        path = f"src/deontic/fixtures/proofs/{name}"
        out[f"prove/text/{name}"] = ("prove", path)
        out[f"prove/json/{name}"] = ("prove", "--json", path)
    out["verify-table1/all"] = ("verify-table1",)
    for system in TABLE1_DERIVABLES:
        out[f"verify-table1/{system}"] = ("verify-table1", "--system", system)
    for label, argv in SEARCHES.items():
        out[f"countermodel/{label}"] = ("countermodel",) + argv
    for label, disjunction in DISJUNCTIONS.items():
        for flags in ((), ("--with-implication-sides",)):
            suffix = "-sides" if flags else ""
            argv = ("remainder", "--disjunction", disjunction, "--theory", THEORY) + flags
            out[f"remainder/text/{label}{suffix}"] = argv
            out[f"remainder/json/{label}{suffix}"] = argv + ("--json",)
    for name in SCENARIOS:
        out[f"demo/{name}"] = ("demo", name)
    out["inclusions/text"] = ("inclusions",)
    return out


def json_cases() -> dict[str, tuple[str, ...]]:
    """The JSON schemas of check-frame, verify-table1, demo, inclusions and closure."""
    out: dict[str, tuple[str, ...]] = {}
    for model in MODELS:
        checks = ([("property", prop.value) for prop in FrameProperty]
                  + [("schema", name) for name in SCHEMAS]
                  + [("rule", name) for name in GUARDED_RULES])
        for kind, name in checks:
            out[f"check-frame-json/{model}/{kind}/{name}"] = (
                "check-frame", "--json", model, f"--{kind}", name)
        for which in ("O", "Ps"):
            out[f"closure-json/{model}/{which}"] = ("closure", "--json", model, "--which", which)
    out["verify-table1-json/all"] = ("verify-table1", "--json")
    for system in TABLE1_DERIVABLES:
        out[f"verify-table1-json/{system}"] = ("verify-table1", "--json", "--system", system)
    for name in SCENARIOS:
        out[f"demo-json/{name}"] = ("demo", "--json", name)
    out["inclusions/json"] = ("inclusions", "--json")
    return out


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    resolved = [str(ROOT / a) if a.startswith(("src/", "tests/")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)
    return code, _ELAPSED.sub(lambda m: (m.group(1) or m.group(2)) + "0", out.getvalue())


def outputs(selected: dict[str, tuple[str, ...]]) -> dict:
    """The outputs of the selected cases, in the golden file's form."""
    return {case: {"argv": list(argv), "code": code, "stdout": stdout}
            for case, argv in selected.items()
            for code, stdout in [_run(argv)]}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def _group(case: str) -> str:
    return "/".join(case.split("/")[:2])


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(cases())


@pytest.mark.parametrize("group", sorted({_group(case) for case in cases()}))
def test_outputs_match_golden(pinned, group):
    selected = {case: argv for case, argv in cases().items() if _group(case) == group}
    assert outputs(selected) == {case: pinned[case] for case in selected}
