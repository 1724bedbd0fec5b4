"""Characteristic-integral solver and operator diagnostics for
periodic-Dirichlet first-order hyperbolic systems on a slab.

The transport part is inverted in closed form by integrating along
characteristic lines; composing that inverse with the zero-order
coupling gives a second-kind operator whose finite sections, Neumann
iterations, and smoothing behaviour the rest of the package measures.
"""
from __future__ import annotations

from .characteristics import (SingularBlockError, TransportPlan,
                              apply_coupling, apply_transport, default_step,
                              residual_sup, solve_transport,
                              solve_transport_stack)
from .config import ConfigError, RunConfig, load_config
from .diagnostics import (DiagnosticsReport, JacobianRow, ModulusRow,
                          jacobian_table, oscillatory_probe,
                          smoothing_profile, transversal_jacobian)
from .expressions import (EvalError, Expression, ParseError,
                          check_periodicity, evaluate, evaluate_on, parse,
                          pretty)
from .fredholm import (DISCRETE_UNKNOWN_CAP, NonConvergence, SolveOutcome,
                       apply_k, apply_k_cubed_fused, apply_k_power,
                       assemble_dense, finite_section_kernel_check,
                       kernel_dimension, solve_discrete, solve_neumann)
from .gridfield import (Grid, GridDomainError, GridFunction, from_csv,
                        interpolate, interpolate_many, sample,
                        shift_diff_norm, sum_sup_norm, sup_norm, to_csv,
                        zeros)
from .system import (FORWARD, MIRRORED, EffectiveSlopes, SystemSpec,
                     TripleCheck, ValidationReport, Violation,
                     check_nondegeneracy, effective_slopes,
                     nondegeneracy_value, spec_from_strings, validate_spec)

__version__ = "0.1.0"

__all__ = [
    "SingularBlockError", "TransportPlan", "apply_coupling",
    "apply_transport", "default_step", "residual_sup", "solve_transport",
    "solve_transport_stack",
    "ConfigError", "RunConfig", "load_config",
    "DiagnosticsReport", "JacobianRow", "ModulusRow", "jacobian_table",
    "oscillatory_probe", "smoothing_profile", "transversal_jacobian",
    "EvalError", "Expression", "ParseError", "check_periodicity",
    "evaluate", "evaluate_on", "parse", "pretty",
    "DISCRETE_UNKNOWN_CAP", "NonConvergence", "SolveOutcome", "apply_k",
    "apply_k_cubed_fused", "apply_k_power", "assemble_dense",
    "finite_section_kernel_check", "kernel_dimension", "solve_discrete",
    "solve_neumann",
    "Grid", "GridDomainError", "GridFunction", "from_csv", "interpolate",
    "interpolate_many", "sample", "shift_diff_norm", "sum_sup_norm",
    "sup_norm", "to_csv", "zeros",
    "FORWARD", "MIRRORED", "EffectiveSlopes", "SystemSpec", "TripleCheck",
    "ValidationReport", "Violation", "check_nondegeneracy",
    "effective_slopes", "nondegeneracy_value", "spec_from_strings",
    "validate_spec",
    "__version__",
]
