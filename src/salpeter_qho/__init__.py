"""Exact relativistic corrections to the d-dimensional isotropic quantum
harmonic oscillator under the spinless Salpeter Hamiltonian.

Energies are reported in reduced units: epsilon0 multiplies hbar*omega,
epsilon1 multiplies lambda*hbar*omega and epsilon2 multiplies
lambda^2*hbar*omega, with lambda = hbar*omega/(m c^2).
"""

from .corrections import epsilon1_general, epsilon1_rewritten, epsilon2_general
from .kramers import first_order_method1
from .ladder2d import FockState2D, first_order_2d, map_Nm_to_nl, second_order_2d
from .laguerre_me import first_order_method2, second_order_method2
from .spectrum import degeneracy_level, degeneracy_total, level_table, split_count
from .states import QuantumNumbers, energy_unperturbed

__all__ = [
    "QuantumNumbers",
    "FockState2D",
    "energy_unperturbed",
    "epsilon1_general",
    "epsilon1_rewritten",
    "epsilon2_general",
    "first_order_method1",
    "first_order_method2",
    "second_order_method2",
    "first_order_2d",
    "second_order_2d",
    "map_Nm_to_nl",
    "degeneracy_total",
    "degeneracy_level",
    "split_count",
    "level_table",
]

__version__ = "0.1.0"
