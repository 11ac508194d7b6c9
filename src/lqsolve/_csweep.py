"""Build, cache and load the C kernel in ``_sweep.c``, which lqsolve needs.

The shared object is compiled with gcc on first import into the package's
``__pycache__``, under a name keyed by a hash of the source and the
compiler flags, and written under a temporary name first so that
concurrent first imports never load a half-written file.  Later imports
only hash the source and load the cached file.  It is loaded once, here:
``lq_sweep`` (gaita's sweep), ``lq_prox`` (the prox behind
``prox.prox_vector``), ``lq_parse`` (``cli.read_array``'s parser, the
only reader of array files), ``lq_refresh`` (the run loop's residual
refresh) and ``lq_dot`` (the dot product behind the run loop's norms)
hold the handles.  The kernel calls no BLAS: it computes its own dot
products, so it loads with any numpy build.  Where the kernel cannot be
built or loaded, importing lqsolve raises Unavailable, whose message
names the cause.
"""

import ctypes
import hashlib
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_sweep.c"
CACHE = HERE / "__pycache__"
# -O3 vectorizes the dot product and the residual update (_sweep.c picks
# their lanes at load time); -ffp-contract=off: a fused multiply-add would
# round differently from numpy and from the tests' oracles.
# No fast-math flag and no -march: the first would reorder sums, the second
# would tie the cached build to the CPU that compiled it.
FLAGS = ("-O3", "-std=c11", "-ffp-contract=off", "-fPIC", "-shared")


class Unavailable(ImportError):
    """The C kernel cannot be built or loaded here."""


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
    """Return (lq_sweep, lq_prox, lq_parse, lq_refresh, lq_dot), building
    the kernel if needed."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        raise Unavailable(f"{SOURCE.name} not found") from None
    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    target = CACHE / f"_sweep-{key}.so"
    if not target.exists():
        _build(target)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as exc:
        raise Unavailable(f"cannot load {target.name}: {exc}") from None
    sweep, prox, parse = lib.lq_sweep, lib.lq_prox, lib.lq_parse
    refresh, dot = lib.lq_refresh, lib.lq_dot
    sweep.restype = parse.restype = ctypes.c_int64
    prox.restype = None
    refresh.restype = dot.restype = ctypes.c_double
    sweep.argtypes = ([ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3
                      + [ctypes.c_double] * 6 + [ctypes.c_void_p])
    prox.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 2
                     + [ctypes.c_double] * 5 + [ctypes.c_void_p])
    # a bytes argument passes its own buffer, not a copy
    parse.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.POINTER(ctypes.c_int64),
                      ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    refresh.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 4
    dot.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 2
    return sweep, prox, parse, refresh, dot


lq_sweep, lq_prox, lq_parse, lq_refresh, lq_dot = load()
