"""Vacuum-fluctuation-induced entanglement of two two-level atoms and the
companion Casimir-Polder interaction energy, with brute-force quadrature
oracles for every closed form."""

__version__ = "0.1.0"

from .casimir import PotentialResult, PowerLawFit, fit_powerlaw, vdw_near, wcp
from .entanglement import (ConcurrenceResult, SpinCorrelators, TwoQubitState,
                           amplitude_c_ee, c1_c2_from_amplitudes,
                           concurrence_far, concurrence_full, concurrence_near,
                           correlators_from_state, effective_density_matrix,
                           entanglement_of_formation, palma_concurrence,
                           wootters_concurrence)
from .errors import AccuracyError, DomainError, FrequencyMismatchError
from .kernel import contracted_tensor
from .model import (PairConfiguration, TwoLevelAtom, Validity, ValidityReport,
                    hydrogen_1s2p, pair_from_alignment, perturbative_validity,
                    reduce)
from .specfun import AuxFunValue, aux

__all__ = [
    "AccuracyError", "AuxFunValue", "ConcurrenceResult", "DomainError",
    "FrequencyMismatchError", "PairConfiguration", "PotentialResult",
    "PowerLawFit", "SpinCorrelators", "TwoLevelAtom", "TwoQubitState",
    "Validity", "ValidityReport",
    "amplitude_c_ee", "aux", "c1_c2_from_amplitudes", "concurrence_far",
    "concurrence_full", "concurrence_near", "contracted_tensor",
    "correlators_from_state", "effective_density_matrix",
    "entanglement_of_formation", "fit_powerlaw", "hydrogen_1s2p",
    "pair_from_alignment", "palma_concurrence", "perturbative_validity",
    "reduce", "vdw_near", "wcp", "wootters_concurrence",
]
