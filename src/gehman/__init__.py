"""Exact rotation codings, the diamond interleaving, and its dendrite.

Modules:
  exactnum  arithmetic and circle geometry over rationals extended by one
            square root, with no floating point in any decision
  coding    rotation itineraries, sequence metric, factor machinery
  diamond   the block interleaving of two streams and its position algebra
  family    the coded points x_s and their parameter maps
  chaoscan  pair classification, certified distality, scrambling scans
  dendrite  the tree model, its induced map, and the path metric
  cli       batch command-line front end
"""

from gehman.exactnum import (
    MixedFieldError,
    QuadSurd,
    circle_distance,
    mod1,
    parse_surd,
    rotate,
)
from gehman.coding import (
    CutPointCollision,
    DistBound,
    PeriodicStream,
    RotationCoding,
    SymbolStream,
    WordStream,
    dist,
    factors,
    lcp,
    recurrent_factors,
    shift,
    sturmian_stream,
)
from gehman.diamond import (
    DiamondStream,
    block_start,
    crossover_split,
    position_decode,
)
from gehman.family import (
    DEFAULT_CODES,
    AlphaCode,
    FamilyConfig,
    a_stream,
    alpha_of,
    b_stream,
    r_of,
    x_stream,
)
from gehman.chaoscan import (
    DistalityCertificate,
    PairVerdict,
    certified_b_distality,
    classify_pair,
    omega_scrambled_check,
    sclosed_limit_check,
    scrambled_scan,
    sturmian_no_LY_check,
)
from gehman.dendrite import (
    Branch,
    DendriteModel,
    End,
    Interior,
    Root,
    apply_f,
    emit_graph,
    family_model,
    no_isolated_points_check,
    path_dist,
    steps_to_root,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaCode",
    "Branch",
    "CutPointCollision",
    "DEFAULT_CODES",
    "DendriteModel",
    "DiamondStream",
    "DistBound",
    "DistalityCertificate",
    "End",
    "FamilyConfig",
    "Interior",
    "MixedFieldError",
    "PairVerdict",
    "PeriodicStream",
    "QuadSurd",
    "Root",
    "RotationCoding",
    "SymbolStream",
    "WordStream",
    "a_stream",
    "alpha_of",
    "apply_f",
    "b_stream",
    "block_start",
    "certified_b_distality",
    "circle_distance",
    "classify_pair",
    "crossover_split",
    "dist",
    "emit_graph",
    "factors",
    "family_model",
    "lcp",
    "mod1",
    "no_isolated_points_check",
    "omega_scrambled_check",
    "parse_surd",
    "path_dist",
    "position_decode",
    "r_of",
    "recurrent_factors",
    "rotate",
    "sclosed_limit_check",
    "scrambled_scan",
    "shift",
    "steps_to_root",
    "sturmian_no_LY_check",
    "sturmian_stream",
    "x_stream",
]
