"""wamkit: exact weight enumerators, weight adjacency matrices and
MacWilliams transforms for block, convolutional and quantum
convolutional codes."""

from .block import (LinearCode, SystematicCode, dual_code, hwgf, ipwgf,
                    macwilliams_hwgf, macwilliams_ipwgf)
from .conv import (ConvSeed, FreeDistanceResult, PolyGenMatrix,
                   SystematicConvSeed, dual_ipwam, dual_seed,
                   dual_systematic_seed, dual_wam, free_distance, free_wgf,
                   iowam, ipwam, macwilliams_ipwam, macwilliams_wam,
                   orthogonality_check, poly_generator, seed_series,
                   total_wgf, wam)
from .errors import (AlgebraError, BudgetError, FieldError, FormatError,
                     ShapeError, WamkitError)
from .fields import FieldSpec
from .pauli import CliffordSeed, PauliWord, symplectic_product
from .poly import WeightPoly
from .polymatrix import PolyMatrix, series_inverse
from .quantum import (EaqccSpec, PolyCheckMatrix, dual_spec,
                      poly_check_matrix, quantum_macwilliams,
                      quantum_wam, state_diagram_dot)

__version__ = "0.1.0"
