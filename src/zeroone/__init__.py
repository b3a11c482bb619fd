"""Exact Schubert polynomial calculator and zero-one classifier."""

from .perms import (
    Diagram,
    Permutation,
    one_step_pattern,
    parse_diagram,
    parse_permutation,
    pattern_at,
    rothe_diagram,
)
from .poly import (
    Polynomial,
    demazure,
    divided_difference,
    is_zero_one,
    schubert_all,
    schubert_classic,
)
from .orthodontia import (
    OrthodonticTrace,
    build_D_im,
    is_multiplicity_free,
    orthodontic_sequence,
    schubert_orthodontic,
)
from .tableaux import (
    read_words_into_diagram,
    root_operator,
    schubert_from_tableaux,
    tableaux_set,
    tableaux_stages,
    tau_reindexing,
)
from .weyl import (
    dual_character,
    pattern_dominance_check,
    schubert_pattern_inequality,
)
from .classify import (
    MULTIPLICITOUS_PATTERNS,
    avoids_multiplicitous,
    find_configuration,
    survey,
    zero_one_status,
)

__version__ = "0.1.0"
