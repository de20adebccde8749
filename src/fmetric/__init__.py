"""Verification and fixed-point toolkit for F-metric spaces.

The chain axiom replaces the triangle inequality: a space qualifies
when some non-decreasing generator f and constant alpha >= 0 satisfy
f(d(x, y)) <= f(sum of chain link distances) + alpha for every finite
chain between distinct points. This package verifies that axiom on
explicit matrices, computes the smallest admissible alpha, runs
fixed-point iteration with cycle detection, and tests contraction-style
conditions on bundled and user-supplied spaces.
"""
from types import ModuleType as _ModuleType

from .conditions import (
    PairSample,
    all_pairs,
    edelstein_check,
    grid_pairs,
    kannan_check,
    monotone_step_check,
    orbital_kannan_check,
    random_pairs,
    shift_condition_check,
)
from .corpus import (
    NamedExample,
    build_example,
    example_ids,
    interval_halving,
    oscillating_orbit_space,
    random_fspace,
    random_metric,
    rect_b_family,
    reproduce,
    sequence_space,
)
from .errors import (
    DomainError,
    FmetricError,
    SpaceAxiomError,
    SpaceFormatError,
    UnknownFunctionError,
)
from .fclass import (
    AlteringDistance,
    FGenerator,
    check_F1,
    check_F2,
    check_altering,
    lookup_function,
    registered_altering,
    registered_generators,
)
from .fspace import (
    AnalyticSpace,
    FiniteSpace,
    Witness,
    alpha_divergence_profile,
    ball_base,
    check_identity_symmetry,
    hausdorff_witness,
    min_alpha,
    min_chain_sums,
    open_ball,
    verify_D3,
)
from .reports import ConditionReport, PropertyReport, SolveReport, VerificationReport
from .solver import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_CYCLE,
    IterationTrace,
    accumulation_points,
    apply_map,
    cauchy_tail_check,
    fixed_point_scan,
    orbit,
    picard,
)
from .spaceio import load_space_file

__version__ = "0.1.0"
# the public API: every name the imports above bind, except the submodules
__all__ = sorted(
    n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))
)
