"""Generalized W-class state toolbox.

Builds the W-class state families (qudit weight-one superpositions, vacuum
superpositions and mixtures, purifications), evaluates their entanglement
measures through closed forms, verifies the monogamy / polygamy /
upper-bound / tightened-bound inequalities, cross-checks the closed forms
with a convex-roof oracle, and tabulates the multiplayer game gap bounds.
"""

from .tensor import (
    DIM_CAP,
    DensityOperator,
    Partition,
    PartyLayout,
    PureState,
    SchmidtSpectrum,
    SubsystemLayout,
    bipartition_matrix,
    coarse_grain,
    coarse_grain_state,
    compress_local_support,
    partial_trace,
    partial_transpose,
    schmidt_spectrum,
    trace_norm,
)
from .states import (
    GWBlocks,
    GWSpec,
    ProvenanceError,
    PurificationSpec,
    build_gw_qudit,
    build_w_qubit,
    gw_spec_from_json,
    gw_spec_to_json,
    mix_with_vacuum,
    purify_mixture,
    reduce_to_parties,
    superpose_with_vacuum,
)
from .measures import (
    ALPHA_MONOGAMY_MIN,
    ALPHA_POLYGAMY_MAX,
    ApplicabilityError,
    ConcurrenceSplit,
    DomainError,
    FindingError,
    MeasureValue,
    block_pair_reduction,
    concurrence_pure,
    concurrence_two_qubit,
    cren_gw,
    cut_spectrum,
    f_alpha,
    g_alpha,
    gw_one_to_rest_concurrence_sq,
    gw_pairwise_concurrence,
    negativity,
    renyi_entanglement_gw,
    renyi_entropy,
)
from .inequalities import (
    Applicability,
    InequalityReport,
    TighterParams,
    at_orders,
    check_merged_block_upper_bound,
    check_monogamy_power,
    check_monogamy_sq,
    check_polygamy,
    check_polygamy_power,
    check_reoa_triangle,
    check_tighter_multi,
    check_tighter_three,
    check_upper_bound_bipartition,
    h_coefficient,
    prepare_checks,
    report_to_csv_row,
    report_to_json_line,
    run_mixture_suite,
)
from .roof import (
    RoofEstimate,
    convex_roof_bounds,
    oracle_reports,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
from .games import (
    GameBoundInput,
    GapBoundResult,
    check_monogamy_cap,
    check_trace_bound_renyi,
    game_gap_fn,
    game_gap_grid_min,
    gap_bound,
    trace_distance_to_vacuum,
)

__version__ = "0.1.0"
