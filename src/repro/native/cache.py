"""Compile-and-load machinery: the on-disk shared-object cache.

Generated C is content-addressed: the cache key is a SHA-256 over the
source text, the compiler path and the exact flag vector, so a source
change, a toolchain change or a flag change each produce a new entry and
a stale ``.so`` can never be picked up for new code.  Entries are
published with write-to-temp + ``os.replace``, which is atomic on POSIX:
two processes compiling the same kernel concurrently both succeed and one
rename wins — no locks, no torn files.

Loading opens the object with ``ctypes.CDLL`` and calls its entry point
through a cffi function pointer (ABI mode — no setuptools, no
compile-against-Python), or through ctypes without cffi.  Both release
the GIL for the duration of the C call.  A cached ``.so`` that is not an
ELF object or fails to dlopen (truncated, wrong arch, corrupted) is
unlinked and recompiled once; only if that also fails does the loop fall
back to vec.

Compilation flags pin the FP semantics the bitwise guarantee needs:
``-ffp-contract=off`` (GCC defaults to ``fast`` in gnu mode, which would
fuse ``a*b+c`` into FMA and change results) and
``-fno-unsafe-math-optimizations``.  ``-O2`` is safe under those, and so
are the flags that let the generated ``omp simd`` loops vectorise on
baseline x86-64 (``-fno-math-errno``, ``-fno-tree-sink``,
``-fno-thread-jumps``): they change which instructions compute a value,
never the value (SSE2 lanes round exactly like the scalar unit).
``-fopenmp`` enables the generated ``omp parallel for`` over row or element
blocks; the team size is a run-time argument of every call, so one object
serves every team size and the key does not depend on it.  A compiler that
rejects ``-fopenmp`` gets one retry without it (:data:`SERIAL_CFLAGS`, a
key of its own): the pragma is then ignored, the kernel runs on one thread
and the process remembers — once — that threading declined
(:func:`take_thread_decline`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time

from repro.common.config import get_config

__all__ = [
    "NativeUnavailable",
    "find_compiler",
    "cache_dir",
    "load_kernel",
    "clear_memory_cache",
    "cache_info",
    "cache_clear",
    "cache_prune",
    "CFLAGS",
    "SERIAL_CFLAGS",
    "openmp",
    "probe_openmp",
    "take_thread_decline",
]


class NativeUnavailable(Exception):
    """No working toolchain/loader: the native tier cannot run here."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: exact flag vector — part of the cache key.  No ``-march=native``: the
#: key hashes the flags and the compiler path, not the CPU, so a shared
#: cache directory would hand one host's AVX-512 objects to another
CFLAGS = (
    "-O2",
    "-std=c11",
    "-fPIC",
    "-shared",
    # no FMA contraction: a*b+c rounds twice, as NumPy's ufuncs do
    "-ffp-contract=off",
    "-fno-unsafe-math-optimizations",
    # sqrt is one correctly rounded instruction, with no errno call-out
    # for a negative operand that keeps a loop scalar (same value: NaN)
    "-fno-math-errno",
    # the emitter computes both arms of a select before it; sinking an
    # arm back under a branch would leave the loop scalar
    "-fno-tree-sink",
    # threading jumps over selects on one condition rebuilds the branch
    # (mass_ener_flux_x/y) and leaves the loop scalar
    "-fno-thread-jumps",
    "-fopenmp",
)
#: the flag vector for a compiler without OpenMP: same code, one thread;
#: ``-fopenmp-simd`` still honours the ``omp simd`` pragmas
SERIAL_CFLAGS = tuple(f for f in CFLAGS if f != "-fopenmp") + ("-fopenmp-simd",)

#: why threading declined in a process whose compiler has no OpenMP
NO_OPENMP = "threads: no OpenMP"

#: the C type of every ``kernel_run`` entry point
_ENTRY_T = "void (*)(double **, const long long **, const long long *, double *, const double *)"

_lock = threading.Lock()
_compiler: tuple[bool, str | None] = (False, None)  # (resolved, path)
_mem: dict[str, "LoadedKernel"] = {}
#: does the compiler take -fopenmp?  None until a compile has tried it
_openmp: bool | None = None
#: a "no OpenMP" finding not yet handed to take_thread_decline()
_decline_pending = False


def find_compiler() -> str | None:
    """The C compiler to use, or None.

    ``REPRO_NATIVE_CC`` overrides discovery: a path/name to use verbatim,
    or ``none`` to disable compilation (the no-toolchain degradation path,
    also what CI's compiler-less matrix leg sets).
    """
    global _compiler
    with _lock:
        resolved, path = _compiler
        if resolved:
            return path
        env = os.environ.get("REPRO_NATIVE_CC")
        if env is not None:
            env = env.strip()
            if env.lower() in ("", "none", "0"):
                path = None
            else:
                path = shutil.which(env) or (env if os.path.exists(env) else None)
        else:
            path = next(
                (p for c in ("cc", "gcc", "clang") if (p := shutil.which(c))),
                None,
            )
        _compiler = (True, path)
        return path


def _reset_compiler_cache() -> None:
    """Testing hook: re-read REPRO_NATIVE_CC on next find_compiler() and
    forget what the last compiler said about OpenMP."""
    global _compiler, _openmp, _decline_pending
    with _lock:
        _compiler = (False, None)
        _openmp = None
        _decline_pending = False


def openmp() -> bool | None:
    """Whether compiled kernels run threaded: None until a compile tried."""
    return _openmp


def _flags() -> tuple:
    return SERIAL_CFLAGS if _openmp is False else CFLAGS


def _learn_openmp(ok: bool) -> None:
    """Record what a compile said about ``-fopenmp``; a refusal is final."""
    global _openmp, _decline_pending
    with _lock:
        if _openmp is not False:
            _openmp = ok
            _decline_pending = not ok


def take_thread_decline() -> str | None:
    """:data:`NO_OPENMP` once per process after the compiler rejected
    ``-fopenmp``, else None — the caller books it exactly once."""
    global _decline_pending
    with _lock:
        if not _decline_pending:
            return None
        _decline_pending = False
        return NO_OPENMP


def probe_openmp() -> bool | None:
    """Settle :func:`openmp` by compiling an empty unit (None: no compiler)."""
    if _openmp is not None:
        return _openmp
    cc = find_compiler()
    if cc is None:
        return None
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "probe.c")
        with open(src, "w") as f:
            f.write("void probe(void) {}\n")
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", os.path.join(d, "probe.so"), src],
            capture_output=True,
        )
    _learn_openmp(proc.returncode == 0)
    return _openmp


def cache_dir() -> str:
    """The on-disk cache directory (created on first use)."""
    cfg = get_config()
    d = (
        cfg.native_cache_dir
        or os.environ.get("REPRO_NATIVE_CACHE_DIR")
        or os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")
    )
    os.makedirs(d, exist_ok=True)
    return d


def source_key(source: str, flags: tuple | None = None) -> str:
    """Content hash of one translation unit under the current toolchain."""
    cc = find_compiler() or "none"
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\0")
    h.update(" ".join(flags or _flags()).encode())
    h.update(b"\0")
    h.update(cc.encode())
    return h.hexdigest()[:32]


class LoadedKernel:
    """A dlopened entry point with pre-castable argument marshalling."""

    __slots__ = ("path", "_make", "openmp")

    def __init__(self, path: str, make, openmp: bool):
        self.path = path
        self._make = make
        #: built with -fopenmp: its parallel loops honour the team size
        self.openmp = openmp

    def make_call(self, p_addr: int, m_addr: int, n_addr: int, red_addr: int, cv_addr: int):
        """A zero-argument callable bound to five stable buffer addresses."""
        return self._make(p_addr, m_addr, n_addr, red_addr, cv_addr)


_ELF_MAGIC = b"\x7fELF"
_ffi = None  # one cffi FFI for every kernel, made on the first load


def _load_so(path: str, openmp: bool) -> LoadedKernel:
    """dlopen ``path`` via ctypes; call it through cffi (preferred) or ctypes.

    A file without the ELF magic raises :class:`OSError` before any
    dlopen.  The open itself is ``ctypes.CDLL``, never ``ffi.dlopen``: when
    dlopen fails, cffi retries through ``ctypes.util.find_library``, which
    forks ``ldconfig`` from a process that may hold OpenMP threads.
    """
    global _ffi
    with open(path, "rb") as f:
        if f.read(4) != _ELF_MAGIC:
            raise OSError(f"{path}: not an ELF object")
    import ctypes

    lib = ctypes.CDLL(path)
    try:
        import cffi

        if _ffi is None:
            _ffi = cffi.FFI()
        ffi = _ffi
        # ``_lib`` below keeps the object mapped while the pointer lives
        raw = ffi.cast(_ENTRY_T, ctypes.cast(lib.kernel_run, ctypes.c_void_p).value)

        def make(pa, ma, na, ra, ca, _ffi=ffi, _raw=raw, _lib=lib):
            args = (
                _ffi.cast("double **", pa),
                _ffi.cast("const long long **", ma),
                _ffi.cast("const long long *", na),
                _ffi.cast("double *", ra),
                _ffi.cast("const double *", ca),
            )
            return lambda: _raw(*args)

        return LoadedKernel(path, make, openmp)
    except ImportError:
        pass  # no cffi in this environment: ctypes below
    raw = lib.kernel_run
    raw.restype = None
    raw.argtypes = [ctypes.c_void_p] * 5

    def make(pa, ma, na, ra, ca, _raw=raw):
        return lambda: _raw(pa, ma, na, ra, ca)

    return LoadedKernel(path, make, openmp)


def _run_cc(source: str, cc: str, directory: str, flags: tuple) -> str:
    """Compile ``source`` under ``flags``; atomically publish ``<key>.c`` +
    ``<key>.so`` and return the object's path."""
    key = source_key(source, flags)
    so_path = os.path.join(directory, f"{key}.so")
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=directory)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(source)
        tmp_so = tmp_c[:-2] + ".so"
        proc = subprocess.run(
            [cc, *flags, "-o", tmp_so, tmp_c, "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"cc failed ({proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        # keep the source next to the object for repro-native / debugging
        os.replace(tmp_c, os.path.join(directory, f"{key}.c"))
        tmp_c = None
        os.replace(tmp_so, so_path)
    finally:
        if tmp_c is not None and os.path.exists(tmp_c):
            os.unlink(tmp_c)
    return so_path


def _compile(source: str, cc: str, directory: str) -> tuple[str, bool]:
    """Compile ``source``: ``(object path, built with OpenMP)``."""
    flags = _flags()
    try:
        path = _run_cc(source, cc, directory, flags)
    except NativeUnavailable:
        if flags is SERIAL_CFLAGS:
            raise
        # perhaps only -fopenmp was refused: the same code once more,
        # serially; a second failure is a real one and propagates
        path = _run_cc(source, cc, directory, SERIAL_CFLAGS)
        _learn_openmp(False)
        return path, False
    if flags is CFLAGS:
        _learn_openmp(True)
    return path, flags is CFLAGS


def is_cached(source: str) -> bool:
    """True when ``source`` would load without running the compiler."""
    key = source_key(source)
    with _lock:
        if key in _mem:
            return True
    return os.path.exists(os.path.join(cache_dir(), f"{key}.so"))


def load_kernel(source: str) -> tuple[LoadedKernel, bool]:
    """The compiled entry point for ``source``: ``(kernel, was_cached)``.

    ``was_cached`` is True when the ``.so`` came off disk without running
    the compiler (the warm-cache case the benchmarks separate out).
    Raises :class:`NativeUnavailable` when no compiler is available and
    the object is not already cached, or when compilation/loading fails.
    """
    flags = _flags()
    key = source_key(source, flags)
    with _lock:
        hit = _mem.get(key)
    if hit is not None:
        return hit, True

    directory = cache_dir()
    so_path = os.path.join(directory, f"{key}.so")
    was_cached = os.path.exists(so_path)
    openmp = flags is CFLAGS
    if not was_cached:
        cc = find_compiler()
        if cc is None:
            raise NativeUnavailable("no C compiler available")
        so_path, openmp = _compile(source, cc, directory)
    try:
        kern = _load_so(so_path, openmp)
    except OSError:
        # corrupt/stale on-disk object: drop it and compile exactly once
        try:
            os.unlink(so_path)
        except OSError:
            pass
        cc = find_compiler()
        if cc is None:
            raise NativeUnavailable("cached object unloadable and no compiler")
        was_cached = False
        so_path, openmp = _compile(source, cc, directory)
        kern = _load_so(so_path, openmp)
    with _lock:
        # under the key of the flags it was built with
        _mem[os.path.basename(so_path)[:-3]] = kern
    return kern, was_cached


def clear_memory_cache() -> None:
    """Drop in-process handles (tests; dlopened objects stay mapped)."""
    with _lock:
        _mem.clear()


# -- cache maintenance (the repro-native CLI) ---------------------------------

def _entries(directory: str | None = None) -> list[tuple[str, str, int, float]]:
    d = directory or cache_dir()
    out = []
    try:
        names = os.listdir(d)
    except OSError:
        return out
    for name in sorted(names):
        if not (name.endswith(".so") or name.endswith(".c")):
            continue
        # mkstemp temporaries from an in-flight compile (possibly another
        # process's) share the directory and the suffixes; published keys
        # are hex digests, so the "tmp" prefix cleanly separates them.
        # Counting or unlinking an in-flight temp here would fail the
        # racing compile.
        if name.startswith("tmp"):
            continue
        path = os.path.join(d, name)
        try:
            st = os.stat(path)
        except OSError:
            continue
        out.append((name, path, st.st_size, st.st_mtime))
    return out


def _stale_tmps(directory: str | None = None, min_age_seconds: float = 3600.0) -> list[str]:
    """Leftover mkstemp temporaries from crashed compiles, old enough that
    no live compile can still own them."""
    d = directory or cache_dir()
    cutoff = time.time() - min_age_seconds
    out = []
    try:
        names = os.listdir(d)
    except OSError:
        return out
    for name in names:
        if not name.startswith("tmp"):
            continue
        if not (name.endswith(".so") or name.endswith(".c")):
            continue
        path = os.path.join(d, name)
        try:
            if os.stat(path).st_mtime < cutoff:
                out.append(path)
        except OSError:
            continue
    return out


def cache_info() -> dict:
    """Entry count / byte totals / directory, for ``repro-native info``."""
    d = cache_dir()
    entries = _entries(d)
    sos = [e for e in entries if e[0].endswith(".so")]
    return {
        "dir": d,
        "objects": len(sos),
        "sources": len(entries) - len(sos),
        "bytes": sum(e[2] for e in entries),
        "compiler": find_compiler(),
        "loaded": len(_mem),
    }


def cache_clear() -> int:
    """Remove every cached object+source; returns the number removed.

    In-flight compile temporaries are left alone (unlinking them would fail
    a concurrent compiler); hour-old leftovers from crashed compiles go.
    """
    removed = 0
    for _, path, _, _ in _entries():
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    for path in _stale_tmps():
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    clear_memory_cache()
    return removed


def cache_prune(max_age_days: float = 30.0) -> int:
    """Remove entries older than ``max_age_days``; returns the number removed."""
    cutoff = time.time() - max_age_days * 86400.0
    removed = 0
    for _, path, _, mtime in _entries():
        if mtime < cutoff:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    for path in _stale_tmps(min_age_seconds=max(max_age_days * 86400.0, 3600.0)):
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    return removed
