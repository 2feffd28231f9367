"""Spectra and exact unitary evolution on finite unions of intervals.

The package computes the discrete spectra of the self-adjoint extensions
D_B of -i/(2*pi) d/dx on a union of finite intervals, evaluates the unitary
group U(t) exactly through admissible-path sums, decides spectrality of
boundary matrices, and verifies the structural consequences (gap
decompositions, path-sum identities, permutation and weighted-permutation
classifications, tiling, translation congruence).
"""

__version__ = "0.1.0"

from .analysis import (
    CongruenceChain,
    ForelliReport,
    MultiplicativeReport,
    NamedCheck,
    PowerSuiteReport,
    SpectralVerdict,
    equal_length_power_suite,
    exp_gram,
    forelli_spectral_suite,
    multiplicative_spectral_suite,
    spectral_pair_evidence,
    structure_suite,
)
from .boundary import (
    MatrixStructure,
    UnitaryEigenData,
    boundary_exponential_vectors,
    cis,
    classify_structure,
    eig_unitary,
    exp_diag,
    forelli_weight_check,
    is_unitary,
    matrix_from_spectrum,
    permutation_matrix,
    reflected_boundary_matrix,
    require_unitary,
)
from .errors import (
    GuardExceeded,
    NumericalError,
    SpectralIntervalsError,
    ValidationError,
)
from .evolution import (
    Atom,
    EvolutionResult,
    LocalTranslationReport,
    Piece,
    PiecewiseExpPoly,
    apply_U_paths,
    apply_U_spectral,
    eigenfunction,
    evolve_point,
    inner_product,
    local_translation_test,
    norm,
    probe_points,
    random_domain_function,
    reflection_consistency,
    sample_local_pair,
)
from .intervals import (
    Commensurability,
    CongruenceMap,
    IntervalUnion,
    commensurability,
    gap_decomposition,
    move_interval,
    new_interval_union,
    reflect,
    tiles_by_lattice,
    translates_disjoint,
    translation_congruence_to_interval,
)
from .paths import (
    EndStates,
    EndSums,
    Path,
    PathTable,
    TranslationIdentityReport,
    aggregate_equal_length,
    cluster_ends,
    end_states,
    end_sums,
    enumerate_paths,
    local_translation_identities,
    path_sum_by_end,
)
from .spectrum import (
    SpectralCheck,
    SpectrumReport,
    compute_spectrum,
    default_grid_step,
    default_window,
    equal_length_spectrum,
    spectral_matrix_check,
    transfer_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
