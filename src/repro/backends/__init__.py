"""Pluggable kernel backends for the hot sparse primitives.

Every layer of the library (serial RCM, the algebraic formulation, the
distributed runtime, solvers, and the bench harness) funnels its sparse
kernel work — SpMSpV, dense SpMV, BFS frontier expansion — through the
dispatchers in :mod:`repro.semiring.spmspv` and :mod:`repro.core.bfs`.
Those dispatchers resolve a :class:`~repro.backends.base.KernelBackend`
from this registry, so swapping the kernel implementation is one call
(or one ``repro-bench --backend`` flag) with zero algorithm changes.

Three backends ship:

* ``"numpy"`` — the pure-numpy reference (always available, the oracle);
* ``"scipy"`` — the numpy reference with scipy.sparse's compiled pull
  scan and ``(+, *)`` matvec (registered only when scipy imports
  cleanly);
* ``"numba"`` — JIT-compiled kernels with a threaded per-rank path
  (registered only when numba imports cleanly; configure with
  ``"numba:threads=N"``).

Backends are addressed by *spec string* — ``"name"`` or
``"name:knob=value,..."`` (:class:`~repro.backends.spec.BackendSpec`).
Resolution is explicit::

    from repro.backends import resolve_backend, backend_scope

    kernels = resolve_backend("numba:threads=4")   # configured instance
    kernels = resolve_backend(None)                # the current default

    with backend_scope("scipy"):
        ...  # kernel dispatch in this context uses scipy

:func:`backend_scope` is a context-variable scope: it nests, is safe
under asyncio, and never leaks across contexts.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

from .base import KernelBackend
from .numpy_backend import NumpyBackend
from .spec import BackendSpec

__all__ = [
    "KernelBackend",
    "BackendSpec",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "backend_scope",
    "current_spec",
    "default_backend",
]

_REGISTRY: dict[str, KernelBackend] = {}

#: Memoized configured instances, keyed by canonical spec string, so
#: per-call resolution of e.g. "numba:threads=4" reuses one instance
#: (and its warmed-up JIT state) instead of rebuilding it.
_CONFIGURED: dict[str, KernelBackend] = {}

#: Context-local default spec string (see :func:`backend_scope`).
_SCOPE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_backend_scope", default="numpy"
)


def register_backend(backend: KernelBackend, overwrite: bool = False) -> None:
    """Add a backend instance to the registry under ``backend.name``."""
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    # configured instances derived from a replaced base are stale
    if overwrite:
        for key in [k for k in _CONFIGURED if BackendSpec.parse(k).name == backend.name]:
            del _CONFIGURED[key]


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def default_backend() -> str:
    """Spec string of the currently-default backend (scope-aware)."""
    return _SCOPE.get()


def current_spec() -> BackendSpec:
    """The currently-default backend as a parsed :class:`BackendSpec`."""
    return BackendSpec.parse(default_backend())


def resolve_backend(
    which: str | BackendSpec | KernelBackend | None = None,
) -> KernelBackend:
    """Resolve a backend reference to a ready instance.

    Accepts, in order of precedence:

    * a :class:`KernelBackend` instance — passes through unchanged;
    * a spec string (``"numpy"``, ``"numba:threads=4"``) or a parsed
      :class:`BackendSpec` — registry lookup plus knob configuration;
    * ``None`` — the context's current default (see
      :func:`backend_scope` / :func:`default_backend`).

    Unknown names raise ``KeyError``; malformed specs and unknown or
    invalid knobs raise ``ValueError`` — both with actionable messages,
    so CLI/config layers can surface them verbatim.
    """
    if isinstance(which, KernelBackend):
        return which
    if which is None:
        which = default_backend()
    if isinstance(which, str):
        # fast path: bare registry name, no knobs to parse
        if ":" not in which:
            try:
                return _REGISTRY[which]
            except KeyError:
                raise KeyError(
                    f"unknown backend {which!r}; available: {available_backends()}"
                ) from None
        spec = BackendSpec.parse(which)
    elif isinstance(which, BackendSpec):
        spec = which
    else:
        raise TypeError(
            f"cannot resolve a backend from {type(which).__name__!r}"
        )
    try:
        base = _REGISTRY[spec.name]
    except KeyError:
        raise KeyError(
            f"unknown backend {spec.name!r}; available: {available_backends()}"
        ) from None
    if not spec.knobs:
        return base
    key = str(spec)
    configured = _CONFIGURED.get(key)
    if configured is None:
        configured = base.with_knobs(**spec.knobs_dict)
        _CONFIGURED[key] = configured
    return configured


@contextlib.contextmanager
def backend_scope(
    which: str | BackendSpec | KernelBackend | None,
) -> Iterator[KernelBackend]:
    """Make ``which`` the default backend within this context.

    Context-variable based: nests cleanly, follows tasks under asyncio,
    and is restored on exit even across exceptions.  Yields the resolved
    instance.
    """
    resolved = resolve_backend(which)
    if isinstance(which, KernelBackend):
        spec_string = which.spec_string
        # an unregistered ad-hoc instance cannot be named by spec string;
        # re-resolving its name inside the scope must find *it*
        try:
            reachable = resolve_backend(spec_string) is which
        except (KeyError, ValueError):
            reachable = False
        if not reachable:
            raise ValueError(
                f"backend instance {which!r} is not reachable via its spec "
                f"string {spec_string!r}; register it first"
            )
    else:
        spec_string = str(resolved.spec_string if which is None else which)
    token = _SCOPE.set(spec_string)
    try:
        yield resolved
    finally:
        _SCOPE.reset(token)


register_backend(NumpyBackend())

# scipy is optional: the backend registers only when its import succeeds,
# so environments without scipy still expose the full numpy-backed API
try:
    from .scipy_backend import ScipyBackend
except ImportError:  # pragma: no cover - depends on environment
    ScipyBackend = None  # type: ignore[assignment,misc]
else:
    register_backend(ScipyBackend())

# numba is optional too: the compiled threaded backend registers only
# when numba imports cleanly (same pattern; see backends/numba_backend.py)
try:
    from .numba_backend import NumbaBackend
except ImportError:  # pragma: no cover - depends on environment
    NumbaBackend = None  # type: ignore[assignment,misc]
else:
    register_backend(NumbaBackend())
