"""Certified interleaving calculus for finite-grid persistent objects over
finite sets, GF(2)-vector spaces, and simplicial complexes, with filtration
builders, persistent invariants, exact bottleneck distance, and a CLI.
"""

from .errors import (
    BudgetExceededError,
    CategoryError,
    DimensionError,
    InvalidScaleError,
    OrderError,
    PerscertError,
    SchemaError,
    ShiftError,
    ValidationError,
)
from .grades import (
    Grade,
    even_reindex,
    floor_int,
    grade,
    odd_reindex,
    rat,
    rat_to_str,
    scale,
    zero_grade,
)
from .persist import (
    DeltaMorphism,
    Grid,
    InterleavingCert,
    InterleavingReport,
    PersistentObject,
    PullbackResult,
    canonical_grid,
    check_interleaving,
    compose,
    compose_interleavings,
    constant_object,
    extend_floor,
    floor_roundtrip_cert,
    identity_shift,
    integer_object,
    pullback_interleaving,
    rescale,
    rescale_cert,
    rescale_morphism,
    restrict_to_Z,
    self_interleaving,
    shift_morphism,
)
from .complexes import (
    FilteredComplex,
    MetricInput,
    degree_rips,
    function_rips,
    is_filtered,
    metric_from_coordinates,
    skeleton,
    sq_gadget,
    to_persistent,
    validate,
    vietoris_rips,
)
from .invariants import (
    Bar,
    Barcode,
    barcode,
    filtration_barcode,
    homology,
    homology_cert,
    pi0,
    pi0_induced,
    slice_axis,
)
from .rectify import (
    ZigzagResult,
    even_odd_restrict,
    reindex,
    three_halves_check,
    zigzag,
)
from .distances import Matching, bottleneck, stability_audit
from .search import (
    SearchResult,
    find_partner,
    induces_interleaving_in_pi0,
    interleaving_distance_search,
    module_distance_crosscheck,
)

__version__ = "0.1.0"
