"""Numerical conformal geometry on asymptotically flat charts.

The package evaluates Weyl connections, weighted spinor operators, the
two conformal Lichnerowicz identities, and the mass of asymptotically
flat Weyl structures on analytically specified metrics, using truncated
Taylor (jet) arithmetic so that every derivative is exact to machine
precision.

Layering (each module uses only the ones before it):

``exprdsl``  expression language: parser, evaluator, symbolic derivative
``jets``     dense multivariate jet arithmetic, orders 1..3
``jetlinalg`` matrix helpers over jets (inverse, determinant, sqrt)
``chart``    asymptotically flat charts and their validation
``curvature`` Christoffel symbols, curvature tensors, Laplacians
``weyl``     Weyl connections and the conformal scalar curvature
``clifford`` Clifford algebra representations
``spinor``   weighted spinor calculus and the Lichnerowicz residuals
``mass``     sphere quadrature, boundary fluxes, masses
``config``   JSON configuration documents and report serialization
``suites``   seeded identity/law batteries shared by the CLI and tests
``cli``      the ``confmass`` command-line tool
"""

from .chart import (ChartError, End, EndSystem, MetricChart, conformal_rescale,
                    decay_scan, lee_jets, make_chart, metric_jets,
                    scale_coordinates)
from .config import (SCHEMA_VERSION, ConfigError, LoadedConfig, bundled_names,
                     dump_report, load_config, load_expected, parse_config)
from .curvature import (christoffels, codiff_oneform, curvature, laplacian)
from .exprdsl import ParseError, evaluate, parse, to_source
from .jets import Jet, JetSpace, evaluate_jet, seed_point
from .mass import (ExtrapolationResult, MassReport, SphereRule, adm_flux,
                   extrapolate, lee_flux, riemannian_mass, sphere_area,
                   sphere_rule, two_path_mass_delta, weyl_flux, weyl_mass,
                   witten_flux)
from .spinor import (SpinorFieldSpec, lichnerowicz_I_residual,
                     lichnerowicz_II_residual, make_spinor_spec, spinor_calc,
                     spinor_jets)
from .weyl import weyl_data, weyl_scalar

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chart
    "ChartError", "End", "EndSystem", "MetricChart", "conformal_rescale",
    "decay_scan", "lee_jets", "make_chart", "metric_jets", "scale_coordinates",
    # config
    "SCHEMA_VERSION", "ConfigError", "LoadedConfig", "bundled_names",
    "dump_report", "load_config", "load_expected", "parse_config",
    # curvature / weyl
    "christoffels", "codiff_oneform", "curvature", "laplacian",
    "weyl_data", "weyl_scalar",
    # exprdsl / jets
    "ParseError", "evaluate", "parse", "to_source",
    "Jet", "JetSpace", "evaluate_jet", "seed_point",
    # spinor
    "SpinorFieldSpec", "lichnerowicz_I_residual", "lichnerowicz_II_residual",
    "make_spinor_spec", "spinor_calc", "spinor_jets",
    # mass
    "ExtrapolationResult", "MassReport", "SphereRule", "adm_flux",
    "extrapolate", "lee_flux", "riemannian_mass", "sphere_area", "sphere_rule",
    "two_path_mass_delta", "weyl_flux", "weyl_mass", "witten_flux",
]
