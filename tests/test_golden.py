"""Golden CLI outputs: evaluation, frame checks and searches, pinned byte for byte.

``golden/cli_outputs.json`` maps each case id to its argv, exit code and
stdout, as produced by the engine before the evaluator was unified; a change
of any byte here is a change of behaviour.  Search elapsed times are masked.
To pin a deliberate change, rewrite the file from ``outputs(cases())``.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from deontic.cli import main
from deontic.frames import GUARDED_RULES
from deontic.systems import SCHEMAS

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

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
}

_ELAPSED = re.compile(r'("elapsed_secs": )[0-9.e-]+')


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
    return out


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, _ELAPSED.sub(r"\g<1>0", out.getvalue())


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
