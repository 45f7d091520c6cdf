"""Explicit-state model checking for the alternating-time mu-calculus.

Models are either concurrent game frames (agents pick moves simultaneously,
a transition function resolves them) or effectivity frames (each coalition
lists the state sets it can force).  Checking runs through a parity-game
reduction solved by Zielonka's algorithm or through direct nested fixpoint
evaluation, on either model kind.
"""

from .benchgen import gen_castle, gen_modulo, gen_random_cgf, gen_random_formula
from .convert import convert, induced_effectivity, minimal_sets, minimize
from .errors import AmcError, CheckTimeout, FormulaError, ModelError, ParseError
from .formula import (
    Allows,
    And,
    Atom,
    Bot,
    ClosureGraph,
    ClosureNode,
    Enforce,
    Formula,
    Mu,
    NegAtom,
    Nu,
    Or,
    Top,
    Var,
    build_closure,
    coalitions_in,
    connective_count,
    fixpoint_priorities,
    format_coalition,
    format_formula,
    free_vars,
    parse_formula,
    syntactic_size,
    validate_formula,
)
from .localfp import (
    check_via_fixpoint,
    fixpoint_extension,
    fixpoint_verdicts,
    nested_fixpoint,
    one_step,
    prop_step,
)
from .mcgame import (
    EXISTS,
    FORALL,
    ParityGame,
    Solution,
    build_game,
    check_via_game,
    export_pgsolver,
    game_verdicts,
    import_pgsolver,
    zielonka_solve,
)
from .model import (
    Cgf,
    Ef,
    Model,
    canonical_family,
    format_grand,
    load_model,
    loads_model,
    model_to_json,
    outcome,
    save_model,
    validate_cgf,
    validate_ef,
)
from .timing import Deadline

__all__ = [name for name in dir() if not name.startswith("_")]
