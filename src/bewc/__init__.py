"""Equivocation analysis for coset codes over the binary erasure wiretap channel."""

from .codes import (
    CodeSpec,
    CodeError,
    GuardError,
    RandomCodeParams,
    enumerate_subspaces,
    from_generator,
    gaussian_binomial,
    hamming_base,
    parse,
    random_base,
    serialize,
    simplex_base,
)
from .coset import Codebook, EncoderMatrices, build_encoder, codebook, decode, encode
from .equivocation import (
    EquivocationCurve,
    GapReport,
    McEstimate,
    achievability_gap,
    curve,
    exact_equivocation,
    mc_equivocation,
    observation_equivocation_oracle,
    pattern_equivocation,
    rank_profile,
    support_profile,
)
from .experiments import (
    EnsembleReport,
    SearchResult,
    ensemble_study,
    exhaustive_search,
    family_sweep,
    simulate_session,
)
from .gf2 import BitMatrix

__version__ = "0.1.0"
