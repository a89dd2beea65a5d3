"""orbilens: exact spectral geometry of orbifold lens spaces.

Descriptors and isometry live in :mod:`orbilens.core`, exact spectra and
generating functions in :mod:`orbilens.spectrum`, heat-trace
asymptotics in :mod:`orbilens.heat`, range sweeps in
:mod:`orbilens.search`, and the CLI in :mod:`orbilens.cli`.
"""

from ._version import __version__
from .core import (
    IsometryWitness,
    LensSpace,
    SingularDecomposition,
    apply_witness,
    canonical_form,
    decompose_singular,
    is_isometric,
    pad,
    reduce,
    sphere,
)
from .heat import (
    HeatCoefficient,
    HeatExpansion,
    HeatTerm,
    HeatVerdict,
    StratumTerm,
    csc2_sum,
    csc4_sum,
    heat_expansion_3d,
    same_heat_expansion,
    stratum_b01,
)
from .search import (
    PairReport,
    PerQ,
    SweepSummary,
    enumerate_classes,
    find_heat_degenerate,
    isometry_classes,
    summarize_sweep,
    sweep_stream,
    verify_rigidity,
)
from .spectrum import (
    GeneratingFunction,
    IsospectralDecision,
    ResidueProfile,
    SpectrumRow,
    SpectrumTable,
    eigenvalue,
    evaluate_F,
    generating_function,
    is_isospectral,
    isospectral_bound,
    multiplicity,
    multiplicity_series,
    order_spectrum,
    pole_order,
    residue_case3,
    residue_cot_sum,
    spectrum_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
