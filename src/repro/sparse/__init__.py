"""Sparse-matrix substrate: COO/CSR/CSC formats, sparse vectors, I/O.

Everything here is implemented from scratch (no scipy.sparse dependency) so
the distributed layer controls its own storage layout, exactly as the
paper's CombBLAS substrate does.
"""

from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .io import (
    iter_matrix_market_chunks,
    read_matrix_market,
    stream_matrix_market,
    write_matrix_market,
)
from .permute import (
    compose_permutations,
    invert_permutation,
    is_permutation,
    permute_symmetric,
    random_symmetric_permutation,
)
from .ragged import ragged_positions
from .spvector import SparseVector
from .stream import (
    ArrayEdgeStream,
    EdgeStream,
    ShardedCOOBuilder,
    ShardedEdgeStream,
    UndirectedEdgeStream,
)
from .symmetry import is_structurally_symmetric, strip_to_pattern, symmetrize

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "SparseVector",
    "ragged_positions",
    "EdgeStream",
    "ArrayEdgeStream",
    "UndirectedEdgeStream",
    "ShardedCOOBuilder",
    "ShardedEdgeStream",
    "read_matrix_market",
    "iter_matrix_market_chunks",
    "stream_matrix_market",
    "write_matrix_market",
    "is_permutation",
    "invert_permutation",
    "compose_permutations",
    "permute_symmetric",
    "random_symmetric_permutation",
    "is_structurally_symmetric",
    "symmetrize",
    "strip_to_pattern",
]
