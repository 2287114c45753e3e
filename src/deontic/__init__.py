"""Deontic logic engine.

Classical (non-normal) deontic systems over a bimodal language with
obligation, strong permission and weak permission: parsing and rendering,
finite neighbourhood models, frame-condition checking, Hilbert-style
proof checking with guarded free-choice rules, bounded countermodel
search, and remainder detachment.
"""

from .formula import (
    And, Atom, Bottom, Formula, Iff, Implies, Not, Obl, Or, ParseError,
    PermS, PermW, Schema, Top, TOP, BOTTOM, atoms, expand_pw, instantiate,
    is_tautology, match_schema, modal_depth, parse, render, schema,
    tautological_consequence,
)
from .model import (
    NeighbourhoodModel, WorldSet, dump_model, evaluate, load_model,
    make_model, model_from_dict, model_to_dict, model_valid, truth_set,
    validate_model,
)
from .frames import (
    FrameProperty, PropertyWitness, SchemaViolation, check_property,
    classify_frame, entailment_closure, rule_valid_on_frame, schema_valid_on_frame,
    supplementation_closure,
)
from .systems import (
    BASE_RULES, RULE_NAMES, SCHEMAS, SystemDef, SystemRegistry, frame_class, recheck_witness,
)
from .proof import (
    Hypothesis, Justification, ProofLine, ProofResult, ProofScript,
    check_proof, parse_proof_script, run_scenario, scenario_registry,
    strength_lattice, verify_table1,
)
from .search import (
    CountermodelReport, RemainderError, RemainderResult, SearchBounds,
    SearchError, SearchTimeout, compute_remainder, find_countermodel,
)

__version__ = "0.1.0"
