"""Exact-arithmetic toolkit for BPS-type invariant transforms and cover series.

The package computes, over exact rationals only:

* the invertible genus-filtered transform between Gromov-Witten and
  Gopakumar-Vafa invariant tables and an integrality checker
  (:mod:`bps_kit.transform`);
* the closed-form multiple-cover contributions of a rigid rational
  curve and the delta-function collapse of their transform
  (:mod:`bps_kit.covers`);
* normal-form arithmetic in the rank-6 and rank-2 quotient rings that
  house the quantum K-theoretic cover series (:mod:`bps_kit.kring`);
* the cover coefficients a(r, q^r), b(r, q^r), localization-style
  I-coefficients, their split into Laurent-polynomial plus proper
  parts, and the GV-weighted right-hand side builder
  (:mod:`bps_kit.jfunctions`);
* the integer polynomial kernel backing all of the above, and the
  stored truncated Laurent series and rational functions in q that it
  returns (:mod:`bps_kit.series`).
"""

from .covers import bernoulli, conifold_gv_table, conifold_gw_table
from .jfunctions import (
    DivisorPairing,
    JmgsRhs,
    JmgsTerm,
    SplitCheckReport,
    a_series,
    b_series,
    i_coefficient,
    j_x_coefficient,
    j_y_coefficient,
    jmgs_rhs,
    split_check,
)
from .kring import KElem, X_RING, Y_RING, element, gen_p, gen_t, ring_one
from .series import LaurentSeries, QRationalFunction
from .transform import (
    IntegralityReport,
    InvariantTable,
    KIND_GV,
    KIND_GW,
    check_integrality,
    gv_to_gw,
    gw_to_gv,
    mobius,
    sin_power_series,
)

__version__ = "0.1.0"
