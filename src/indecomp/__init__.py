"""Exact arithmetic for indecomposable integers in cubic and quadratic fields.

Modules:
    order_kernel   arithmetic in Z[rho] for cubic and quadratic orders, root
                   isolation, conjugation, units
    codifferent    the codifferent (1/f'(rho)) Z[rho] and trace certificates
    families       closed-form inventories and triangle geometry
    oracle         brute-force decomposability, minimal traces, lattice search
    quadratic      real quadratic fields, continued fractions and certificates
    norms          small-norm elements and primitive principal ideal counts
    forms          universal quadratic form bounds and constructive universality
    verify         end-to-end verification suites
    cli            command-line front end
"""

from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    RootIntervals,
    UnitSystem,
    conjugate,
    elem,
    embed,
    galois_conjugation_matrix,
    is_totally_positive,
    isolate_roots,
    make_custom_field,
    make_field,
    mul,
    norm,
    one,
    rho,
    sym_funcs,
    trace,
    unit_generators,
    unit_inverse,
)
from .codifferent import (
    CodifferentElement,
    MonogenicityStatus,
    certificate_delta,
    is_totally_positive_codiff,
    monogenicity_certificate,
    trace_pairing,
)
from .families import (
    IndecomposableRecord,
    TrianglePoint,
    fundamental_triangle,
    indecomposables_ennola,
    indecomposables_simplest,
    indecomposables_thomas,
    parallelepiped_candidates,
    rotate,
    triangle_element,
    triangle_norm,
    upper_strip_split,
)
from .oracle import (
    SearchInventory,
    decompose,
    indecomposables_by_search,
    min_trace,
    norms_superadditive,
    search_box,
)
from .quadratic import (
    CFExpansion,
    cf_expand,
    indecomposables_quadratic,
    make_quad_field,
    quad_counts,
    semiconvergent,
    trace_one_delta,
)
from .norms import (
    IdealHNF,
    count_bruteforce,
    count_exact,
    count_fast,
    ideal_hnf,
    max_norm_indecomposable,
    sq_count,
    sum_norm,
)
from .forms import (
    DiagonalForm,
    RankReport,
    decompose_into_indecomposables,
    diagonal_universal,
    minimal_vector_bound,
    rank_report,
    verify_universality_window,
)

__version__ = "0.1.0"
