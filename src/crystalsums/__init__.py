"""Exact configuration sums of affine crystal paths, three independent ways.

The package computes the energy-graded generating functions of crystal
paths for types A_n and C_n by direct enumeration, bosonic (Weyl
alternating) sums, and fermionic (rigged configuration) sums, and verifies
the resulting polynomial q-identities, including the Rogers-Ramanujan and
hard-hexagon family.
"""

from .qpoly import QLaurent, invert_q, qbinomial, qmultinomial

__all__ = ["QLaurent", "invert_q", "qbinomial", "qmultinomial"]

__version__ = "0.1.0"
