"""Partial summation algebra: carriers, categories, convolution products, laws."""

from .family import (
    IndexedFamily,
    Partition,
    bell_number,
    enumerate_partitions,
    family_of,
    make_family,
    reindex,
    sample_partition,
    subfamily,
)
from .pcm import (
    NOT_SUMMABLE,
    Cyclotomic,
    NotSummable,
    PartialFn,
    Pcm,
    PcmHom,
    Relation,
    Residue,
    Summable,
    Vec,
    check_hom,
    make_abs_convergence_pcm,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    make_partial_fn_pcm,
    make_partial_injection_pcm,
    make_relations_pcm,
    make_unit_ball_pcm,
)
from .fincat import (
    FinCategory,
    Functor,
    cyclic_category,
    from_monoid,
    product_category,
    trivial_category,
    truncated_category,
    validate_category,
    validate_functor,
)
from .category import (
    Matrix,
    PcmCategory,
    PcmFunctor,
    check_pcm_functor,
    check_strong_distributivity,
    cyclotomic_category,
    derived_laws,
    from_semiring,
    k_bounded_category,
    matrix_category,
    pcm_product,
    relations_category,
    resolve_base,
)
from .cauchy import (
    CauchyArrow,
    CauchyCategory,
    cauchy_product,
    eta_functor,
    gamma_functor,
    geometric_stream,
    map_base,
    map_index,
    series_convolve,
    sigma_functor,
    star_embed,
)
from .universal import (
    SubstitutionData,
    dft_substitute,
    object_obstruction,
    substitution_hom,
)
from .laws import (
    check_full_pa,
    check_positivity,
    check_unary,
    check_wpa,
    minimize,
    run_category_suite,
    run_pcm_suite,
)

__version__ = "0.1.0"
