"""Disprove properties of conditional rewrite systems via countermodels.

The package compiles a (possibly many-sorted, conditional) rewrite system
into a Horn theory over the predicates ``->``, ``->*``, ``->^`` and
``|>``, negates an existential positive property into per-disjunct
obligations (headless Horn clauses), and then either checks a given
structure or searches for one.  A verified certificate shows the property
fails for actual rewriting, because satisfaction of existential positive
sentences is preserved along the homomorphism from the least Herbrand
model into any model of the theory.
"""
from .checker import Certificate, Verdict, check_clause, check_obligation, verify
from .certificates import serialize_certificate
from .compiler import compile_ctrs, relativize_sorts, root_theory, subterm_theory
from .errors import (
    CountermodelError,
    EmptySortError,
    ModelError,
    OptionError,
    ParseError,
    QueryError,
    RuleError,
    SignatureError,
    SourceSpan,
    TermError,
    UnsupportedFragmentError,
)
from .finder import FindOutcome, SearchBudget, find_model, find_symbolic_model
from .linear import (
    AffineForm,
    ConstraintSystem,
    Feasibility,
    LinearConstraint,
    equality,
    integer_tighten,
    solve,
)
from .logic import Atom, HornClause, Theory, format_clause, format_theory
from .model_format import parse_model, serialize_model
from .oracle import AtomSet, saturate
from .pipeline import (
    Disproof,
    build_theory,
    disprove,
    oracle_cross_check,
    theory_for_query,
)
from .queries import Query, negate_to_obligations, template
from .query_format import parse_query
from .structures import (
    ClosureViolation,
    FiniteStructure,
    Interval,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    Ray,
    Structure,
    SymbolicStructure,
    closure_check,
    eval_atom,
    eval_term,
)
from .terms import (
    CTRS,
    App,
    ConditionalRule,
    Signature,
    Term,
    Var,
)
from .trs_format import CTRSDocument, parse_ctrs, parse_ctrs_document

__version__ = "0.1.0"
