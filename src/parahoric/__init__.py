"""Computable core of parahoric overconvergent cohomology.

Subpackages:
  rootdata      split root data and parabolic combinatorics
  slopes        controlling operators and critical-slope bounds
  padics        p-adic valuations, Newton polygons and CertificationError
  induction     theta operators and parahoric BGG checks on GL(n)
  manin         coset presentations of weight-k modular symbols
  distributions moment modules for the three coefficient backends
  ocsymbols     overconvergent modular symbols for GL(2)/Q
  cli           command-line entry points
"""
from __future__ import annotations

__version__ = "0.1.0"

from .rootdata import RootDatum, datum_by_name, datum_from_json, gl_datum, gsp4_datum
from .slopes import (
    ControllingDatum,
    TorusElement,
    greedy_factorization,
    h_crit,
    in_T_plus,
    in_T_plusplus,
    normalize_valuation,
    q_noncritical,
    verify_factorization,
)
from .padics import (
    AmbiguityError,
    CertificationError,
    NewtonPolygon,
    default_precision,
    hensel_lift_root,
    newton_polygon_of_poly,
    valuation,
)
from .induction import BGGReport, bgg_kernel, theta_matrix, theta_preserves_parahoric
from .manin import ManinSystem
from .distributions import family_moment_matrix
from .ocsymbols import (
    DivergenceError,
    Eigensymbol,
    FamilySpectralData,
    LiftReport,
    UpSpectralData,
    auto_eigensymbol,
    charpoly_up,
    classical_space,
    family_charpoly,
    lift_symbol,
    ordinary_eigensymbol,
    random_initial_lift_pair,
)
