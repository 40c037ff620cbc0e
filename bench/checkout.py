"""Point the benchmark at the checkout's own sources, single-threaded.

Every benchmark module calls :func:`use_checkout_sources` before it imports
numpy or asyncadmm: BLAS is pinned to one thread, and ``src/`` of the
checkout that holds this directory goes first on ``sys.path``, so an
installed copy of the package is never measured by mistake.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout around the benchmark holds no asyncadmm sources."""


def use_checkout_sources() -> Path:
    """Pin BLAS threads and import asyncadmm from ``ROOT/src``; returns ROOT."""
    if "numpy" not in sys.modules:
        for name in PINNED_THREADS:
            os.environ[name] = "1"
    if not (SRC / "asyncadmm" / "__init__.py").is_file():
        raise CheckoutError(f"no asyncadmm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import asyncadmm

    if Path(asyncadmm.__file__).resolve().parent != SRC / "asyncadmm":
        raise CheckoutError(f"asyncadmm imported from {asyncadmm.__file__}, not {SRC}")
    return ROOT
