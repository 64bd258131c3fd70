"""Harmonic analysis on a deformed two-torus at finite truncation.

The package realizes the twisted generator algebra of an irrational
deformation parameter together with the non-tracial state induced by a
circle diffeomorphism conjugate to a rotation: blockwise GNS model,
modular operators, hat and paren coefficient transforms, summation
kernels with transference, and deformed Dirac blocks, all at a finite
block/mode truncation with quadrature-grade accuracy.
"""

from .dynamics import (ConjugatorLift, DiffeoSpec, GrowthSequence, benchmark,
                       growth_sequence, iterate_lift, radon_nikodym,
                       rotation, rotation_number)
from .errors import (AliasingError, AlphaMismatchError, GridMismatchError,
                     GridTooSmallError, InverseSolveError, NcTorusError,
                     OutOfBoxError, PositivityError, RouteMismatchError,
                     SingularBlockError)
from .fourier import (FourierCoeffs, anti_transform, classical_limit_compare,
                      epsilon_basis, hat_functional, hat_vector,
                      paren_functional, paren_vector,
                      riemann_lebesgue_profile)
from .gns import (GnsOperator, GnsVector, TruncationBox, basis_vector,
                  build_u_kl, represent, state_coefficients, state_eval,
                  vacuum, vacuum_image)
from .modular import (apply_J, apply_delta_power, borel_apply,
                      borel_identity_check, conjugated_borel_apply,
                      tomita_check)
from .summation import (SummationKernel, TransferencePoint,
                        convergence_profile, smoothed_mean, transfer_operator,
                        transfer_vector, transference_integral_check,
                        wts_deviation)
from .weyl import (SymplecticPair, WeylElement, abstract_fourier_coeff,
                   involution, random_element, smooth_seminorm, star_product,
                   trace, weyl_relation_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
