"""Approximate nearest-neighbor search for scaling (gauge) distances and
Bregman divergences through convexified lower envelopes over a separated
box decomposition."""

from .admissibility import (
    ComplexityReport,
    SampleSpec,
    check_bound_lemma,
    check_eigen_sandwich,
    check_three_point,
    measure_admissibility,
    measure_bregman_complexity,
)
from .ann import (
    AnnIndex,
    InnerPatchSet,
    brute_force,
    build_index,
    load_index,
    ray_to_hypercube_boundary,
    save_index,
)
from .avd import AvdConfig, AvdLeaf, AvdTree, build_avd, check_leaf
from .convexify import NormalizedFamily, check_invariants, convexify, normalize
from .distances import (
    BregmanSpec,
    DomainError,
    GaugeParams,
    SiteFunction,
    generalized_kl_spec,
    itakura_saito_spec,
    make_bregman,
    make_custom_gauge,
    make_mahalanobis,
    make_minkowski,
    squared_euclidean_spec,
    squared_mahalanobis_spec,
    tau_for_gauge,
)
from .envelope import ConcaveEnvelope, build_relative
from .geom import (
    AlignedBox,
    BbdCell,
    EuclideanBall,
    dist_point_cell,
    enclosing_ball,
    is_separated,
    separation_ratio,
)

__version__ = "0.1.0"
