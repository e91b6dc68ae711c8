"""Numba acceleration shim.

Hot numeric kernels in this package are decorated with :func:`njit`. By
default that is ``numba.njit(cache=True)``; setting the environment variable
``GATEDESIGN_NUMBA=0`` before import (or running without numba installed)
swaps in a transparent no-op decorator so the same source runs as plain
Python/numpy. numba is an optional extra (``pip install gatedesign[numba]``);
where it is absent the no-op path is the one that runs and is measured. The
benchmark in ``bench/`` records which path ran (``numba_enabled``).
"""
import os

_flag = os.environ.get("GATEDESIGN_NUMBA", "1").strip().lower()
NUMBA_ENABLED = _flag not in ("0", "false", "no", "off")

if NUMBA_ENABLED:
    try:
        import numba

        def njit(func=None, **kwargs):
            kwargs.setdefault("cache", True)
            if func is None:
                return numba.njit(**kwargs)
            return numba.njit(**kwargs)(func)

    except ImportError:  # numba is an optional extra
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(func=None, **kwargs):
        def wrap(f):
            return f

        if func is None:
            return wrap
        return wrap(func)


def py_func(kernel):
    """Return the pure-Python version of a kernel (itself when numba is off)."""
    return getattr(kernel, "py_func", kernel)
