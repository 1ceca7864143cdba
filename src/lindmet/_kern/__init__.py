"""Propagation kernel with backend selection at import time.

The compiled Cython extension is used when present; otherwise the pure-Python
fallback takes over.
"""
try:
    from . import _cykern as _impl

    BACKEND = "compiled"
except ImportError:
    from . import _pykern as _impl

    BACKEND = "python"

expm = _impl.expm
propagate_schedule = _impl.propagate_schedule

__all__ = ["BACKEND", "expm", "propagate_schedule"]
