"""Rees algebras of differential modules of graded complete intersections.

Exact computer algebra over Q: polynomial arithmetic with weighted
gradings, Groebner bases, Jacobian presentations of differential modules,
Fitting-height conditions, Eagon-Northcott complexes, Rees algebras by
torsion saturation, free resolutions, and a verification pipeline tying
the verdicts together.
"""

from .algebra import GradedAlgebra, validation_issues
from .eagon_northcott import (FreeComplex, build_en, en_acyclicity,
                              koszul_complex)
from .errors import (ContextMismatchError, DiffreesError, ParseError,
                     StepBudgetExceeded, ValidationError)
from .fitting import (euler_minor_identity, fitting_ideal, fitting_profile,
                      ft_condition, ft_condition_off_irrelevant,
                      last_rows_probe)
from .groebner import DimensionReport, IdealHandle, step_budget
from .matrix import PolyMatrix
from .poly import (DEGREVLEX, MonomialOrder, Polynomial, VariableContext,
                   parse_polynomial)
from .rees import (ReesPresentation, SymmetricPresentation, analytic_spread,
                   find_test_element, is_linear_type, rees_ideal,
                   symmetric_presentation)
from .resolution import FreeResolution, depth_and_cm, free_resolution
from .sampler import probe_corpus, random_graded_ci
from .verifier import Report, emit_report, run_case, smooth_ci_shortcut

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
