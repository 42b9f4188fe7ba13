"""Discrete Wigner functions on the 2N x 2N phase-space lattice.

The package builds the finite clock/shift algebra, phase-point operators,
Wigner tables of density operators, state reconstruction, lattice-line
marginals, and Kraus-channel evolution in phase space, all in plain numpy.

The names below are the library API listed in the README; every other
name stays importable from its submodule.
"""

from .channels import (
    KrausChannel,
    adjoint_form_report,
    channel_wigner,
    stochastic_channel,
    unitary_propagator,
)
from .phase_space import fourier_matrix
from .wigner import (
    basis_state,
    density_from_state,
    marginal_momentum,
    marginal_position,
    purity_residual,
    reconstruct,
    superposition_state,
    w_transform,
    wigner_table,
)

__version__ = "0.1.0"

__all__ = [
    "KrausChannel",
    "adjoint_form_report",
    "basis_state",
    "channel_wigner",
    "density_from_state",
    "fourier_matrix",
    "marginal_momentum",
    "marginal_position",
    "purity_residual",
    "reconstruct",
    "stochastic_channel",
    "superposition_state",
    "unitary_propagator",
    "w_transform",
    "wigner_table",
]
