"""Geodesic random walks and their couplings on time-dependent metrics.

Simulation of time-inhomogeneous geodesic random walks on model manifolds,
couplings by reflection and by parallel transport, one-dimensional
comparison processes, and a Monte Carlo harness that verifies meeting-time,
contraction and gradient bounds at desk scale.
"""

__version__ = "0.1.0"

from .comparison import (OUParams, RadialComparisonSpec, beta, builtin_b,
                         chi, feller_explosion_test)
from .coupling import (CouplingKind, coupled_kernel, coupled_step,
                       coupling_probability_bound, dominating_process)
from .errors import (ConfigError, DegenerateGeodesic, GtwalkError,
                     InvalidInput, SingularConfiguration,
                     UnsupportedOperation)
from .manifolds import (Euclidean, Geodesic, Hyperbolic, ManifoldModel,
                        Point, RoundSphere, ScaledMetric, TangentVector,
                        curvature_condition_residual, distance, exp,
                        make_model, minimal_geodesic, parallel_transport)
from .numeric import NumericChart
from .stats import (KsResult, McEstimate, VerificationReport,
                    check_contraction, check_gradient_estimate,
                    convergence_diagnostic, estimate_coupling_survival,
                    ks_statistic, wasserstein1_1d)
from .variation import (GreenSolution, SampledField, VariationTerms,
                        coupled_variation_terms, dagger_field, dt_distance,
                        index_form, solve_green)
from .walk import Schedule, step, walk_kernel
