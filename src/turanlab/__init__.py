"""turanlab: exact workbench for clique-free extremal graph theory."""

from .canon import certificate
from .constructions import (
    extremal_family,
    groetzsch_graph,
    k4free_5chromatic,
    sat_non_blowup,
    sat_twin_free,
    three_sat_many_twin_classes,
    three_sat_twin_free,
    threshold_size,
    trianglefree_5chromatic,
    turan_graph,
    turan_number,
)
from .deficiency import deficiency, deficiency_lower_bound, optimal_blowup
from .enumeration import (
    EnumerationLimitError,
    EnumerationWorkerError,
    enumerate_graphs,
    levels_up_to,
)
from .graph import (
    Graph,
    GraphFormatError,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    from_graph6,
    to_graph6,
    twin_classes,
)
from .invariants import (
    CliquePresentError,
    Coloring,
    SearchBudgetExceeded,
    chromatic_number,
    clique_number,
    is_clique_free,
    is_r_colorable,
)
from .saturation import SaturationReport, is_saturated, saturate
from .symmetrization import (
    SymmetrizationTrace,
    zykov,
    zykov_reduce,
)
from .tripartite import (
    CertificateError,
    TripartiteCertificate,
    extract_tripartite,
    validate_certificate,
)
from .verify import deficiency_search

__version__ = "0.1.0"
