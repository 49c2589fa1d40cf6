"""Band structure, spectral gaps and large-coupling eigenvalue counting
for discrete periodic Schrodinger operators on Z^d-periodic graphs."""

from .errors import GapcountError
from .floquet import (
    BandStructure,
    Gap,
    GapEdge,
    band_structure,
    band_values,
    check_edge_regularity,
    check_gap_edge_regularity,
    fiber_matrix,
    find_gaps,
    gap_edge,
    torus_grid,
)
from .gamma import (
    GammaResult,
    edge_integral,
    gamma_at_edge,
    gamma_coefficient,
    sphere_integral,
    weak_edge_membership,
)
from .pdo_lab import (
    SymbolTriple,
    commutator_decay,
    cwikel_ratio,
    dp_vs_formula,
    fourier_modsq_coeffs,
    homogeneous_symbol,
    pdo_singular_values,
    tabulated_symbol,
)
from .periodic_graph import (
    FiniteHamiltonian,
    GraphError,
    PeriodicGraph,
    ThetaProfile,
    assemble_truncated,
    build_graph,
    dimer_chain,
    load_graph,
    potential_from_function,
    sample_potential,
    square_lattice,
    theta_const,
    theta_cos2,
)
from .weak_lp import (
    WeightedSequence,
    distribution,
    dp_window,
    membership_verdicts,
    weak_quasinorm,
)

__version__ = "0.1.0"

# The counting API needs scipy.sparse and scipy.linalg, which take longer to
# import than the rest of gapcount together; its names load spectral_counts on
# first use (PEP 562), so the band, Gamma, PDO and weak-lp paths run on NumPy.
_COUNTING = (
    "BSMatrix",
    "CountingError",
    "asymptotic_table",
    "bs_matrix",
    "counting_bs",
    "counting_direct",
    "edge_counting",
    "eigencount_below",
    "inertia",
)

# every public name the imports above bound, as a star import took them
# before the counting names were deferred, and those names
__all__ = [name for name in globals() if not name.startswith("_")] + list(_COUNTING)


def __getattr__(name: str):
    if name in _COUNTING:
        from . import spectral_counts

        return getattr(spectral_counts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_COUNTING))
