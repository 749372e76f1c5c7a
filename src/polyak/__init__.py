"""Finite type invariants and homotopy classification of Gauss words.

The package computes presentations of the rank-truncated Polyak algebra,
extracts its abelian group structure through a sparse Smith normal form
over Z/2^k, builds the simplified universal finite type invariant from the
row transformation, and applies it to classify Gauss words up to homotopy.
"""

from .classify import Classification, HomotopyClass, classify, classify_words, report
from .homotopy import (
    MoveApplication,
    SearchOutcome,
    apply_move,
    invert_move,
    neighbors,
    reduce_word,
    render_trace,
    search,
)
from .invariant import (
    InvariantTable,
    build_table,
    element_order,
    evaluate,
    evaluate_combination,
    load_table,
    save_table,
    semiletter_resolution,
)
from .presentation import (
    GeneratorTable,
    Presentation,
    RelationVector,
    build_generators,
    build_presentation,
    g2_relations,
    g3_relations,
    load_presentation,
    relation_counts,
    save_presentation,
    truncate_term,
)
from .smith import (
    RowOpLog,
    SmithResult,
    SparseMatrix,
    load_matrix_text,
    save_matrix_text,
    snf_dense_naive,
    snf_sparse_mod2k,
    u_rows_replay,
    verify_cokernel_map,
)
from .words import (
    EMPTY_WORD,
    GaussWord,
    angle_bracket,
    canonicalize,
    delete_letters,
    enumerate_canonical,
    has_adjacent_double,
)

__version__ = "0.1.0"
