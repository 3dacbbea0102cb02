"""The backend-spec API: parsing, resolution, scoping.

The spec string is the one textual currency for backend selection
(CLI, campaign configs, ``repro.bench.api.run``, worker payloads), so
its grammar and error messages are contract: parse-time rejection of a
malformed spec must happen before any backend — including optional
ones that may not be importable — is consulted.
"""

import argparse

import numpy as np
import pytest

from repro.backends import (
    BackendSpec,
    available_backends,
    backend_scope,
    current_spec,
    default_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.numpy_backend import NumpyBackend


# ----------------------------------------------------------------------
# Grammar: parse + canonical round-trip
# ----------------------------------------------------------------------
def test_parse_bare_name():
    spec = BackendSpec.parse("numpy")
    assert spec.name == "numpy"
    assert spec.knobs == ()
    assert str(spec) == "numpy"


def test_parse_knobs_coerced_and_canonicalized():
    spec = BackendSpec.parse("numba:threads=4,fastmath=true,tol=0.5,tag=x")
    assert spec.name == "numba"
    assert spec.knobs_dict == {
        "threads": 4,
        "fastmath": True,
        "tol": 0.5,
        "tag": "x",
    }
    # canonical form sorts knobs and lowercases bools; it round-trips
    assert str(spec) == "numba:fastmath=true,tag=x,threads=4,tol=0.5"
    assert BackendSpec.parse(str(spec)) == spec


def test_parse_round_trip_is_stable():
    for text in ("numpy", "numba:threads=2", "scipy:a=1,b=false"):
        spec = BackendSpec.parse(text)
        assert BackendSpec.parse(str(spec)) == spec


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "  ",
        "9numpy",
        "nu mba:threads=2",
        "numba:",
        "numba:threads",
        "numba:threads=",
        "numba:=4",
        "numba:threads=2,threads=3",
        "numba:threads=2,,",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError, match="invalid backend spec"):
        BackendSpec.parse(bad)


def test_parse_rejects_non_string():
    with pytest.raises(ValueError, match="must be a string"):
        BackendSpec.parse(4)


@pytest.mark.parametrize("bad", ["threads=0", "threads=-2", "threads=two",
                                 "threads=1.5", "threads=true"])
def test_reserved_threads_knob_validated_at_parse_time(bad):
    """A bad thread count fails at parse time, even for backends that are
    not importable in this environment."""
    with pytest.raises(ValueError, match="threads"):
        BackendSpec.parse(f"numba:{bad}")


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_resolve_bare_name_and_instance_passthrough():
    b = resolve_backend("numpy")
    assert b.name == "numpy"
    assert resolve_backend(b) is b
    assert resolve_backend(BackendSpec.parse("numpy")) is b


def test_resolve_none_uses_scoped_default():
    with backend_scope("numpy"):
        assert resolve_backend(None).name == "numpy"
        assert default_backend() == "numpy"
        assert current_spec() == BackendSpec.parse("numpy")


def test_resolve_unknown_name_is_keyerror():
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend("no-such-backend")
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend("no-such-backend:threads=2")


def test_resolve_rejects_unknown_knob_on_numpy():
    with pytest.raises(ValueError, match="does not accept knob"):
        resolve_backend("numpy:threads=4")


def test_resolve_rejects_other_types():
    with pytest.raises(TypeError):
        resolve_backend(3.14)


def test_configured_instances_are_memoized():
    """Same canonical spec -> same configured instance (warmed JIT state
    must be reused, not rebuilt per call)."""

    class Knobbed(NumpyBackend):
        name = "_knobbed_test"
        knobs = frozenset({"level"})

        def with_knobs(self, **knobs):
            configured = Knobbed()
            configured._level = knobs.get("level")
            return configured

        @property
        def spec_string(self):
            level = getattr(self, "_level", None)
            return self.name if level is None else f"{self.name}:level={level}"

    register_backend(Knobbed(), overwrite=True)
    try:
        one = resolve_backend("_knobbed_test:level=3")
        two = resolve_backend("_knobbed_test:level=3")
        assert one is two
        assert resolve_backend("_knobbed_test:level=4") is not one
        # re-registration invalidates derived configured instances
        register_backend(Knobbed(), overwrite=True)
        assert resolve_backend("_knobbed_test:level=3") is not one
    finally:
        from repro import backends

        backends._REGISTRY.pop("_knobbed_test", None)
        for key in [k for k in backends._CONFIGURED if k.startswith("_knobbed_test")]:
            del backends._CONFIGURED[key]


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
# The bench.api boundary: spec validation with api-flavored errors
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
    from repro.bench.api import resolve_backend_spec

    with pytest.raises(ValueError, match="threads"):
        resolve_backend_spec("numpy:threads=0")
    with pytest.raises(ValueError, match="invalid backend spec"):
        resolve_backend_spec("numpy:")


def test_serve_backend_argparse_type():
    from repro.service.serve import _backend_spec, build_parser

    assert _backend_spec("numpy") == "numpy"
    with pytest.raises(argparse.ArgumentTypeError, match="unknown backend"):
        _backend_spec("cuda")
    args = build_parser().parse_args(["--backend", "numpy"])
    assert args.backend == "numpy"


# ----------------------------------------------------------------------
# End-to-end: a knobbed spec string survives the dispatch path
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
