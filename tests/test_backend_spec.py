"""Backend selection by registry name: resolution, scoping, boundaries.

The registry name is the one textual currency for backend selection
(CLI, campaign configs, ``repro.bench.api.run``, ``repro-serve``,
worker payloads), so its error messages are contract: an unknown name
is rejected with the list of available backends.
"""

import argparse

import numpy as np
import pytest

from repro.backends import (
    available_backends,
    backend_scope,
    default_backend,
    resolve_backend,
)
from repro.backends.numpy_backend import NumpyBackend


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_resolve_bare_name_and_instance_passthrough():
    b = resolve_backend("numpy")
    assert b.name == "numpy"
    assert resolve_backend(b) is b


def test_resolve_none_uses_scoped_default():
    with backend_scope("numpy"):
        assert resolve_backend(None).name == "numpy"
        assert default_backend() == "numpy"


def test_resolve_unknown_name_is_keyerror():
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend("no-such-backend")
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend("no-such-backend:threads=2")


def test_resolve_rejects_unknown_knob_on_numpy():
    with pytest.raises(KeyError, match=r"'numpy:threads=4'; available: \['numpy'"):
        resolve_backend("numpy:threads=4")


def test_resolve_rejects_other_types():
    with pytest.raises(TypeError):
        resolve_backend(3.14)


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def test_backend_scope_nests_and_restores():
    prev = default_backend()
    with backend_scope("numpy") as outer:
        assert outer.name == "numpy"
        if "scipy" in available_backends():
            with backend_scope("scipy"):
                assert default_backend() == "scipy"
            assert default_backend() == "numpy"
    assert default_backend() == prev


def test_backend_scope_restores_across_exceptions():
    prev = default_backend()
    with pytest.raises(RuntimeError):
        with backend_scope("numpy"):
            raise RuntimeError("boom")
    assert default_backend() == prev


def test_backend_scope_accepts_registered_instance():
    b = resolve_backend("numpy")
    with backend_scope(b) as resolved:
        assert resolved is b
        assert resolve_backend(None) is b


def test_backend_scope_rejects_unreachable_instance():
    class Orphan(NumpyBackend):
        name = "_orphan_test"

    with pytest.raises(ValueError, match="not reachable"):
        with backend_scope(Orphan()):
            pass  # pragma: no cover


# ----------------------------------------------------------------------
# The bench.api boundary: name validation with api-flavored errors
# ----------------------------------------------------------------------
def test_resolve_backend_spec_round_trips():
    from repro.bench.api import resolve_backend_spec

    assert resolve_backend_spec("numpy") == "numpy"
    assert resolve_backend_spec(None) == default_backend()


def test_resolve_backend_spec_unknown_is_valueerror():
    from repro.bench.api import resolve_backend_spec

    with pytest.raises(ValueError, match="unknown backend 'cuda'"):
        resolve_backend_spec("cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_spec("cuda:threads=2")


def test_resolve_backend_spec_propagates_knob_errors():
    # Knobbed and malformed strings are no longer parsed; they are names
    # the registry does not hold, and the error lists the ones it does.
    from repro.bench.api import resolve_backend_spec

    with pytest.raises(ValueError, match=r"'numpy:threads=0': expected one of"):
        resolve_backend_spec("numpy:threads=0")
    with pytest.raises(ValueError, match=r"'numpy:': expected one of \['numpy'"):
        resolve_backend_spec("numpy:")


def test_serve_backend_argparse_type():
    from repro.service.serve import _backend_spec, build_parser

    assert _backend_spec("numpy") == "numpy"
    with pytest.raises(argparse.ArgumentTypeError, match="unknown backend"):
        _backend_spec("cuda")
    with pytest.raises(argparse.ArgumentTypeError, match=r"'numba:threads=4': expected one of"):
        _backend_spec("numba:threads=4")
    args = build_parser().parse_args(["--backend", "numpy"])
    assert args.backend == "numpy"


# ----------------------------------------------------------------------
# End-to-end: every registered name reaches kernel dispatch
# ----------------------------------------------------------------------
def test_spec_string_reaches_kernel_dispatch():
    from repro.core import bfs_levels
    from tests.conftest import csr_from_edges

    A = csr_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    oracle, n = bfs_levels(A, 0, backend="numpy")
    for b in available_backends():
        levels, nb = bfs_levels(A, 0, backend=b)
        assert np.array_equal(levels, oracle)
        assert nb == n
