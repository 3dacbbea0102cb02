"""Pluggable kernel backends for the hot sparse primitives.

Every layer of the library (serial RCM, the algebraic formulation, the
distributed runtime, solvers, and the bench harness) funnels its sparse
kernel work — SpMSpV, dense SpMV, BFS frontier expansion — through the
dispatchers in :mod:`repro.semiring.spmspv` and :mod:`repro.core.bfs`.
Those dispatchers resolve a :class:`~repro.backends.base.KernelBackend`
from this registry, so swapping the kernel implementation is one call
(or one ``repro-bench --backend`` flag) with zero algorithm changes.

Two backends ship:

* ``"numpy"`` — the pure-numpy reference (always available, the oracle);
* ``"scipy"`` — the numpy reference with scipy.sparse's compiled pull
  scan and ``(+, *)`` matvec (registered only when scipy imports
  cleanly).

Backends are addressed by registry name.  Resolution is explicit::

    from repro.backends import resolve_backend, backend_scope

    kernels = resolve_backend("scipy")   # the registered instance
    kernels = resolve_backend(None)      # the current default

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

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "backend_scope",
    "default_backend",
]

_REGISTRY: dict[str, KernelBackend] = {}

#: Context-local default backend name (see :func:`backend_scope`).
_SCOPE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_backend_scope", default="numpy"
)


def register_backend(backend: KernelBackend) -> None:
    """Add a backend instance to the registry under ``backend.name``."""
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def default_backend() -> str:
    """Name of the currently-default backend (scope-aware)."""
    return _SCOPE.get()


def resolve_backend(which: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend reference to a ready instance.

    * a :class:`KernelBackend` instance passes through unchanged;
    * ``None`` is the context's current default (see
      :func:`backend_scope` / :func:`default_backend`);
    * a string is a registry lookup.  An unknown name raises
      ``KeyError`` listing :func:`available_backends`, so CLI/config
      layers can surface it verbatim.
    """
    if isinstance(which, KernelBackend):
        return which
    if which is None:
        which = default_backend()
    if not isinstance(which, str):
        raise TypeError(f"cannot resolve a backend from {type(which).__name__!r}")
    try:
        return _REGISTRY[which]
    except KeyError:
        raise KeyError(
            f"unknown backend {which!r}; available: {available_backends()}"
        ) from None


@contextlib.contextmanager
def backend_scope(which: str | KernelBackend | None) -> Iterator[KernelBackend]:
    """Make ``which`` the default backend within this context.

    Context-variable based: nests cleanly, follows tasks under asyncio,
    and is restored on exit even across exceptions.  Yields the resolved
    instance.  The scope stores the registry name, so an instance must
    be the one registered under its name.
    """
    resolved = resolve_backend(which)
    if _REGISTRY.get(resolved.name) is not resolved:
        raise ValueError(
            f"backend instance {resolved!r} is not reachable via its name "
            f"{resolved.name!r}; register it first"
        )
    token = _SCOPE.set(resolved.name)
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
