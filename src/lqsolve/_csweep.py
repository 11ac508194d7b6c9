"""Build, cache and load the C kernel in ``_sweep.c``.

The shared object is compiled with gcc on first import into the package's
``__pycache__``, under a name keyed by a hash of the source and the
compiler flags, and written under a temporary name first so that
concurrent first imports never load a half-written file.  Later imports
only hash the source and load the cached file.  It is loaded once, here:
``lq_sweep`` (gaita's sweep), ``lq_prox`` (jaita's prox) and ``ddot`` hold
the handles, or are None with ``fallback_reason`` saying why; the solvers
then run the Python sweep and prox, the oracles the kernel is tested
against.
"""

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_sweep.c"
CACHE = HERE / "__pycache__"
# -ffp-contract=off: a fused multiply-add would round differently from numpy
FLAGS = ("-O2", "-std=c11", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's np.dot of two float64 vectors calls this ddot of its bundled OpenBLAS
DDOT = "scipy_cblas_ddot64_"


class Unavailable(Exception):
    """The C kernel cannot be built or loaded here."""


def _ddot_address():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("*openblas*")) if libs.is_dir() else []
    for path in paths:
        fn = getattr(ctypes.CDLL(str(path)), DDOT, None)
        if fn is not None:
            return ctypes.cast(fn, ctypes.c_void_p).value
    raise Unavailable(f"numpy's BLAS has no {DDOT}")


def _build(target):
    import shutil
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise Unavailable("gcc not found")
    try:
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=CACHE, prefix=target.stem, suffix=".tmp")
    except OSError as exc:
        raise Unavailable(f"cannot write {CACHE}: {exc.strerror}") from None
    os.close(fd)
    try:
        proc = subprocess.run([gcc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, target)
    except OSError as exc:
        raise Unavailable(f"cannot build {target.name}: {exc.strerror}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        raise Unavailable(f"gcc failed: {lines[0] if lines else proc.returncode}")


def load():
    """Return (lq_sweep, lq_prox, ddot address), building the kernel if needed."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        raise Unavailable(f"{SOURCE.name} not found") from None
    ddot = _ddot_address()
    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    target = CACHE / f"_sweep-{key}.so"
    if not target.exists():
        _build(target)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as exc:
        raise Unavailable(f"cannot load {target.name}: {exc}") from None
    sweep, prox = lib.lq_sweep, lib.lq_prox
    sweep.restype = prox.restype = ctypes.c_int64
    sweep.argtypes = ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
                      + [ctypes.c_void_p] * 3 + [ctypes.c_double] * 6
                      + [ctypes.c_void_p] * 2)
    prox.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 2
                     + [ctypes.c_double] * 5 + [ctypes.c_void_p])
    return sweep, prox, ddot


try:
    lq_sweep, lq_prox, ddot = load()
    fallback_reason = None
except Unavailable as exc:
    lq_sweep = lq_prox = ddot = None
    fallback_reason = str(exc)
