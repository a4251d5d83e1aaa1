"""Time-frequency analysis on finite groups.

Cohen-class distributions, pseudo-differential quantization,
theorem-condition checkers, and phase retrieval, built on matrix-valued
Fourier analysis over a group and its unitary dual.
"""

from .groups import FiniteGroup, Irrep, UnitaryDual, build_cyclic, build_dihedral, build_product, load_group_file
from .harmonic import (FourierCoefficients, Signal, constant_signal, convolve, delta_signal, fourier, haar_inner,
                       inverse_fourier, nc_integral, plancherel_inner)
from .tfplane import (AmbiguityFunction, TFFunction, TimeLagKernel, ambiguity_to_timelag, inverse_symplectic_fourier,
                      symplectic_fourier, tf_convolve, tf_inner, timelag_to_ambiguity)
from .transforms import (CohenKernel, ambiguity_transform, anti_kn_kernel, born_jordan_cyclic_kernel, cohen_transform,
                         commutator_kernel, conjugate_kernel, kn_kernel, margin_fix_kernel, rihaczek,
                         spectrogram_kernel, stft, wigner_kernel_odd_cyclic, wigner_odd_cyclic)
from .quantization import (GroupOperator, SingularKernel, dequantize, kn_operator, kn_symbol, null_symbol_witness,
                           operator_trace, original_localization, quantize)

__version__ = "0.1.0"
