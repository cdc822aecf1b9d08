"""Kernel backend selection for the arena's record hot path.

The stride-5 record operations of :class:`~repro.core.arena.ArenaDataStructure`
(pointer-bump ``extend``, the union descend-and-rebuild path copy, the eviction
sweep's slab head advance and the enumeration walk) run on one of two
interchangeable *kernels* over the very same slab ``array('q')`` buffers and
slab-local ``prods`` lists — the arena has one layout, both kernels share it:

``python``
    Today's pure-python implementation.  Always available, runs everywhere
    (including PyPy, where the JIT unboxes the reads natively — the CI lane),
    and serves as the differential oracle for the native backend.

``native``
    The optional C extension :mod:`repro.core._kernel` (built by ``setup.py``;
    absent when no toolchain was available at install time).  One ``Kernel``
    instance per arena holds the slab buffers through the buffer protocol and
    executes the four record operations without boxing any element read.

Selection precedence (resolved once per data-structure construction):

1. the explicit ``kernel=`` knob on the engines / the arena (``"auto"``,
   ``"python"`` or ``"native"``; ``"native"`` raises when unavailable — an
   explicit request must not silently degrade);
2. the :data:`KERNEL_ENV` environment variable (same values, same failure);
3. ``auto`` (the default): ``native`` when the extension imported, else
   ``python``.

A snapshot taken under either kernel restores under the other bit-identically
(``tests/test_kernel.py`` pins this down).  Verify what a process is actually
running with ``backend_info()`` — also surfaced by the CLI ``--stats`` line
and the engines' ``kernel_info()``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Environment variable overriding the default backend choice.
KERNEL_ENV = "REPRO_KERNEL"

_BACKENDS = ("auto", "python", "native")

try:
    from repro.core import _kernel as _native
except ImportError as exc:  # pragma: no cover - depends on the build
    _native = None
    _IMPORT_ERROR: Optional[str] = str(exc)
else:
    _IMPORT_ERROR = None


def native_available() -> bool:
    """Whether the C extension imported in this process."""
    return _native is not None


def native_module():
    """The imported :mod:`repro.core._kernel` module (``None`` if absent)."""
    return _native


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve the backend name to run: ``"python"`` or ``"native"``.

    ``kernel`` is the explicit constructor knob; ``None`` defers to the
    :data:`KERNEL_ENV` environment variable and then to auto-detection.  See
    the module docstring for the exact precedence and failure semantics.
    """
    explicit = kernel is not None
    if not explicit:
        kernel = os.environ.get(KERNEL_ENV, "").strip() or "auto"
    if kernel not in _BACKENDS:
        source = "kernel=" if explicit else f"{KERNEL_ENV}="
        raise ValueError(
            f"unknown kernel backend {source}{kernel!r}; expected one of {_BACKENDS}"
        )
    if kernel == "auto":
        return "native" if _native is not None else "python"
    if kernel == "native" and _native is None:
        raise ValueError(
            "the native kernel backend is not available in this "
            f"installation ({_IMPORT_ERROR}); build it with "
            "`python setup.py build_ext --inplace` or select "
            "kernel='python'"
        )
    return kernel


def backend_info() -> Dict[str, object]:
    """What this process can and would run — the ``--stats`` / CI probe."""
    return {
        "backends": ["python", "native"] if _native is not None else ["python"],
        "default": "native" if _native is not None else "python",
        "native_available": _native is not None,
        "native_module": getattr(_native, "__file__", None),
        "env": os.environ.get(KERNEL_ENV) or None,
        "import_error": _IMPORT_ERROR,
    }
