"""Numerical toolkit for hypoelliptic symbols, Roumieu sequences, and growth estimates.

The package has five layers:

* :mod:`hypoel.symbols` -- exact multivariate symbol calculus (derivatives,
  powers, the Hormander strength function, freezing variable coefficients);
* :mod:`hypoel.analysis` -- ray-sampling tests of hypoellipticity, minimal
  exponent estimation, and operator strength comparison;
* :mod:`hypoel.sequences` -- defining sequences (M_p): Gevrey families,
  condition checks, inclusion and power-bound constant fits;
* :mod:`hypoel.weights` -- temperate weight functions and their ball-sup
  regularization;
* :mod:`hypoel.grids` / :mod:`hypoel.estimates` -- a periodic spectral grid
  engine and the verification harness for operator growth inequalities.
"""

from .analysis import (
    HypoReport,
    RayConfig,
    StrengthReport,
    check_constant_strength,
    check_hypoelliptic,
    equally_strong,
    estimate_d,
    snap_rational,
)
from .domains import BoxDomain
from .errors import (
    DimensionMismatch,
    DomainError,
    HypoelError,
    ParseError,
    PreconditionError,
)
from .estimates import (
    EstimateReport,
    GrowthFit,
    RationalExponent,
    fit_roumieu_space,
    fit_roumieu_vector,
    verify_dominated_transfer,
    verify_domination,
    verify_growth_chain,
    verify_iterate_bound,
)
from .grids import (
    GridFunction,
    GridSpec,
    NormSweep,
    apply_operator,
    derivative_norms,
    gaussian_bump,
    iterate_norms,
    modulated_bump,
    plane_wave,
    polynomial_bump,
    restricted_l2,
    sample,
    shrink_norm,
    weighted_norm,
    zero_function,
)
from .sequences import (
    RoumieuSequence,
    SequenceConditionReport,
    check_basic,
    fit_inclusion,
    fit_power_bound,
    gevrey,
    load_table,
    power_sequence,
)
from .symbols import SymbolPolynomial, VariableOperator
from .weights import (
    OnePlusNorm,
    PairSampleConfig,
    PowerWeight,
    StrengthWeight,
    TemperateFit,
    WeightFunction,
    fit_temperate,
    h_delta,
    verify_ball_sup_sandwich,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
