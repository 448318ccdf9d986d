"""Locate and import the secgame sources of the checkout this benchmark sits in.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy.  BLAS threads are pinned and ``SECGAME_THREADS`` is removed
before numpy is imported, so every run is one single-threaded client.
"""

from __future__ import annotations

import os
import platform
import sys
import types

BLAS_THREADS = 1
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(CHECKOUT, "src")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable secgame sources."""


def pin_environment():
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SECGAME_THREADS", None)


def load():
    """Import secgame from ``<checkout>/src`` and return its modules as a namespace."""
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "secgame", "__init__.py")):
        raise ProgramMissing(f"no secgame package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import secgame
    from secgame import cli, model, scenarios, solver, vi

    if not os.path.abspath(secgame.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"secgame was imported from {secgame.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, model=model, scenarios=scenarios,
                                 solver=solver, vi=vi)


def environment():
    """What a result depends on besides the code: cores, versions, thread caps."""
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "SECGAME_THREADS": os.environ.get("SECGAME_THREADS", "unset"),
    }
