"""Fuzzing the front door: whatever the input, ``cli.main`` ends with exit code 0, 1 or 2.

Random formula text (unbalanced, unknown tokens, nesting up to 3 000 levels),
random model documents and random proof scripts go through every subcommand
that reads them; an exception escaping ``main`` fails the test.  Countermodel
searches run with small bounds and a timeout.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deontic.cli import main

TOKENS = ("a", "b", "p", "q", "O", "Ps", "Pw", "T", "F", "~", "&", "|", "->", "<->",
          "(", ")", "$", "X", "1", "<-", "-", "ps", "a1", "_")

nested = st.builds(
    lambda pair, depth, inner: pair[0] * depth + inner + pair[1] * depth,
    st.sampled_from([("(", ")"), ("~", ""), ("O ", ""), ("Ps(", ")"), ("a & (", ")"),
                     ("(", ""), ("", ")"), ("Pw ~", "")]),
    st.integers(0, 3000),
    st.sampled_from(["a", "a | b", "", "~", "T -> F"]),
)
formula_text = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join),
    st.lists(st.sampled_from(TOKENS), max_size=25).map("".join),
    st.text(max_size=30),
    nested,
)

world = st.one_of(st.sampled_from(["w1", "w2", "w3", "w9"]), st.text(max_size=2))
junk = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=4))
world_set = st.one_of(st.lists(world, max_size=3), junk)
model_document = st.one_of(
    st.fixed_dictionaries(
        {"worlds": st.one_of(st.lists(world, max_size=4), junk)},
        optional={
            "N_O": st.one_of(st.dictionaries(world, st.lists(world_set, max_size=3)), junk),
            "N_P": st.one_of(st.dictionaries(world, st.lists(world_set, max_size=3)), junk),
            "valuation": st.one_of(
                st.dictionaries(st.sampled_from(["a", "b", "A", "1", ""]), world_set), junk),
        },
    ),
    junk,
    st.lists(junk, max_size=3),
)
model_text = st.one_of(model_document.map(json.dumps), st.text(max_size=20))

JUSTIFICATIONS = ("hyp", "taut", "ax AFCP_O", "ax FCP {p: a, q: b}", "ax NOPE", "ax M_O {p: (}",
                  "mp 1 2", "mp 1", "cpl 1,2", "cpl", "cpl 1 9", "re 1 Ps", "re 1 X", "rm 1 O",
                  "ifcp_o 1 side=taut", "ifcp_o 1,2 side=3", "ifcp_p 1 taut taut", "ifcp2_p 1 2",
                  "ifcp2_p", "bogus", "")
script_line = st.one_of(
    st.builds("{}. {} ; {}".format, st.integers(0, 4), formula_text,
              st.sampled_from(JUSTIFICATIONS)),
    st.builds("{}: {}".format, st.sampled_from(["hyp", "hyp*", "goal"]), formula_text),
    st.sampled_from(["system: FCP_2", "system: E", "system: FCP_6", "system: NOPE", "system:",
                     "# comment", "", "1. p"]),
)
script_text = st.lists(script_line, max_size=8).map("\n".join)
theory_text = st.lists(st.one_of(formula_text, st.sampled_from(["O ~p", "Pw q", "# c"])),
                       max_size=5).map("\n".join)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


json_flag = st.sampled_from([[], ["--json"]])


@settings(max_examples=30, deadline=None)
@given(text=formula_text, flag=json_flag)
def test_parse(text, flag):
    assert _exit_code(["parse", text, *flag]) in (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(doc=model_text, text=formula_text, world_arg=st.sampled_from([[], ["--world", "w1"]]),
       check=st.sampled_from([
           ["classify"], ["closure", "--which", "O"], ["closure", "--which", "Ps"],
           ["check-frame", "--property", "AFCPO"], ["check-frame", "--property", "IFCP2P"],
           ["check-frame", "--schema", "M_O"], ["check-frame", "--rule", "IFCP_P"],
       ]),
       flag=json_flag)
def test_model_commands(workdir, doc, text, world_arg, check, flag):
    path = workdir / "model.json"
    path.write_text(doc)
    assert _exit_code(["eval", text, "--model", str(path), *world_arg, *flag]) in (0, 1, 2)
    assert _exit_code([check[0], str(path), *check[1:], *flag]) in (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(script=script_text, flag=json_flag)
def test_prove(workdir, script, flag):
    path = workdir / "script.proof"
    path.write_text(script)
    assert _exit_code(["prove", str(path), *flag]) in (0, 1, 2)


@settings(max_examples=25, deadline=None)
@given(disjunction=formula_text, theory=theory_text,
       sides=st.sampled_from([[], ["--with-implication-sides"]]), flag=json_flag)
def test_remainder(workdir, disjunction, theory, sides, flag):
    path = workdir / "theory.txt"
    path.write_text(theory)
    argv = ["remainder", "--disjunction", disjunction, "--theory", str(path), *sides, *flag]
    assert _exit_code(argv) in (0, 1, 2)


@settings(max_examples=15, deadline=None)
@given(target=st.one_of(formula_text, st.sampled_from(["M_O", "AFCP2_P", "IFCP_O", "IFCP_P"])),
       require=st.sampled_from(["", "AFCPO", "AFCPO,AFCPP", "Nope", ",,"]),
       worlds=st.integers(0, 2), sets=st.integers(-1, 1),
       atoms=st.sampled_from(["a,b", "a", "", "p,q,r,s", "a,a", "O,b", "1x"]), flag=json_flag)
def test_countermodel(target, require, worlds, sets, atoms, flag):
    argv = ["countermodel", "--target", target, "--require", require, "--max-worlds", str(worlds),
            "--max-sets", str(sets), "--atoms", atoms, "--timeout-secs", "0.2", *flag]
    assert _exit_code(argv) in (0, 1, 2)
