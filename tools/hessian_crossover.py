"""Dense-vs-Lanczos crossover of ``calculus.hessian_extreme_eigs``.

    python3 tools/hessian_crossover.py

Run from anywhere; the package is imported from this checkout's src. For
each n and t of the grid below, builds the -grad^2 f(X) operator of seeded
``random_spd`` inputs A, X on [1, 4] once, then times the two paths of
``hessian_extreme_eigs`` on it, called in turn: eigvalsh of the twin's
n^2 x n^2 matrix (dense) and Lanczos on the twin's matvec. Prints the
machine, the median milliseconds of each path and the largest n of the grid
at which dense was faster at every t, the value ``calculus.DENSE_MAX_N`` is
set from.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sandwich_opt import calculus, hessian_operator, random_spd  # noqa: E402

SIZES = (8, 12, 16, 19, 20, 24, 32)
ORDERS = (0.3, 0.5, 0.7)
# Each median is over at least MIN_REPEATS runs of each path and at least
# MIN_SECONDS.
MIN_REPEATS, MIN_SECONDS = 5, 0.5


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def median_ms(*fns):
    """Median milliseconds of each of fns, called in turn, so that a change
    of host speed during the measurement reaches all of them alike."""
    times = [[] for _ in fns]
    start = time.perf_counter()
    while len(times[0]) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        for fn, record in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            record.append(time.perf_counter() - t0)
    return [1e3 * statistics.median(record) for record in times]


def main():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    print(f"cpu: {_cpu_model()} ({len(os.sched_getaffinity(0))} available)")
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"blas {blas.get('name', 'unknown')} {blas.get('version', '')}, "
          f"blas threads {_blas_threads()}")
    print(f"{'n':>3} {'t':>4} {'dense ms':>9} {'lanczos ms':>10}  faster")
    dense_max_n = None
    for n in SIZES:
        A, X = random_spd(n, 1.0, 4.0, 100 + n), random_spd(n, 1.0, 4.0, 200 + n)
        dense_wins = True
        for t in ORDERS:
            op = hessian_operator(A, X, t)
            dense, lanczos = median_ms(
                lambda: np.linalg.eigvalsh(calculus._twin_matrix(op)),
                lambda: calculus._lanczos_extreme(calculus._twin_matvec(op), n))
            dense_wins &= dense < lanczos
            print(f"{n:>3} {t:>4} {dense:>9.2f} {lanczos:>10.2f}  "
                  f"{'dense' if dense < lanczos else 'lanczos'}", flush=True)
        if dense_wins:
            dense_max_n = n
    print(f"largest n with dense faster at every t: {dense_max_n}; "
          f"calculus.DENSE_MAX_N = {calculus.DENSE_MAX_N}")


if __name__ == "__main__":
    main()
