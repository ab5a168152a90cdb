"""Exact tame, Contou-Carrere and higher symbols over iterated Laurent
series with finite-field or artinian local coefficients, together with
executable reciprocity laws, Toeplitz-operator joint torsion and 2-cocycle
commutator pairings.
"""

from .errors import (AlgebraError, DescriptorMismatch, DivisionByNonUnit,
                     ExpressionSyntaxError, IncompleteFlagCover,
                     InvalidCocycle, NonCommutingPair,
                     NonUnitLeadingCoefficient, NotAUnit, NotRegular,
                     PrecisionExhausted, SingularCompression, UnknownSymbol,
                     UnsupportedArgument, ZeroFunction, ZeroOnCurve)
from .rings import (ArtinianLocal, GaloisField, PrimeField, RingValue, embed,
                    format_value, relative_norm)
from .laurent import (LaurentRing, LaurentSeries, default_precision,
                      format_series, iterated_ring, laurent_inv, nest,
                      unit_decompose)
from .symbols import (CONVENTION, cc_symbol, higher_symbol, steinberg_expand,
                      tame_symbol)
from .poly import (Poly, factor, is_irreducible, poly_gcd, random_poly,
                   roots_in, squarefree_decomposition)
from .geometry import (BivarPoly, BivarRational, Place, RationalFunction,
                       SurfaceFlag, flag_expand, local_expand,
                       residue_extension, support_places)
from .reciprocity import (LocalFactor, ReciprocityReport, cc_check,
                          parshin_check, weil_check)
from .toeplitz import (joint_torsion, szego_ratio, toeplitz_index,
                       toeplitz_matrix)
from .groups import FiniteGroup, group_catalog
from .cocycle import (Cocycle2, bicharacter_cocycle, coboundary,
                      extension_commutator, random_cocycle, trivial_cocycle)
from .parser import (parse_expression, parse_polynomial, parse_ring,
                     parse_scalar, ring_label)

__all__ = [name for name in dir() if not name.startswith("_")]
