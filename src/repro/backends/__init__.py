"""BFS frontier-expansion kernels.

:mod:`~repro.backends.numpy_backend` holds the push and pull frontier
expansions that :func:`repro.core.bfs.bfs_levels` calls on every level,
and :mod:`~repro.backends.frontier` the sort-based dedup they share with
the batched multi-source sweep.  The semiring SpMSpV kernels live in
:mod:`repro.semiring.spmspv`.  Each kernel has one implementation.
"""
