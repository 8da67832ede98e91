"""Weak-factor-recognition exact string search.

The engine finds every (possibly overlapping) occurrence of a byte pattern
``x`` of length ``m`` in a byte text ``y`` of length ``n``. Preprocessing
hashes the nonempty factors (contiguous substrings) of the pattern into a
:class:`FactorFilter`: if ``z`` is a factor of
``x`` then ``hash_factor(z)`` is in the filter. The converse need not hold,
so the filter recognizes a superset of the factor set: false positives are
possible, false negatives are not.

Searching slides a window of size ``m`` over the text. At each alignment the
window is scanned right to left while the hash of the growing suffix keeps
testing positive in the filter. A scan that fails at cursor position ``c``
proves that ``y[c..j]`` is not a factor of the pattern, so no occurrence can
start at or before ``c`` within the window and the window jumps past it. A
scan that survives all ``m`` characters triggers a direct byte-by-byte
verification. After a verification the window advances by a single character,
which is what makes the worst case (e.g. ``a^m`` in ``a^n``) cost O(n*m).

The suffix hash is built incrementally: folding one more character ``c`` on
the left of a suffix with hash ``v`` costs one shift-add,
``((v << shift_s) + c) mod 2**alpha``. The scan folds ``k`` characters
(fewer at the window's left end) between consecutive filter tests; ``k=1``
probes after every character, and the chained variants (``k > 1``) trade
slightly shorter shifts for fewer table probes. It is one loop for every
``k``, and the hash stream is the same, so no occurrence can be missed for
any ``k``.

Two backends run the same algorithm over the same filter layout and give
identical probe outcomes, positions and counters. The native backend is the
C kernel in ``_kernel.c``, whose header describes each mechanism that makes
it faster: the probes it skips because their outcome is known, the
word-at-a-time verification, the branch-free entry and its sampler, the
prefetch, the run skip, the split of a long call and its orbits. A native
call with at least 2**15 windows may scan on one helper thread where two
CPUs are usable. The helper touches no Python object, and the call waits
for any part of the text the helper took; one that starts after the call
has ended takes nothing and exits. The counters, and the inspected bytes
derived from them, stay the algorithm's logical counts: none counts probes,
and ``check_comparisons`` counts bytes. On the first import after the
source or the compile command changes, the kernel is compiled with
``cc -O2 -pthread -shared -fPIC`` (``_KERNEL_CC``) into
``__pycache__/_kernel-<cache tag>-<crc32 of the command and the source>.so``
beside this module and loaded with :mod:`ctypes`. When that fails (no
compiler, a read-only package directory, a load error) the pure-Python loops
below run instead; they are also the reference the tests compare the
kernel against. A matcher's ``backend``, and each search's, names the
backend that runs.

The algorithm's two phases are two calls: ``preprocess(pattern, params)``
builds the :class:`FactorFilter`, and its ``search(text, k)`` scans a text;
module-level :func:`search` composes the two. Every algorithm of
:func:`wfr.baselines.prepare` is a :class:`Matcher` like the filter: its
constructor is the one check of a pattern, and :meth:`Matcher.stream` the
one scan driver and check of ``k``. A ``bytes`` pattern or text, and a
``bytearray`` text that a stream scans, is read in place; any other
bytes-like one is copied once into ``bytes``, so both backends see the same
bytes.

The scan is resumable: every scan (the filter's two backends, Horspool and
naive) scans one window of the text at a time and carries the next window
end and the four counters in a 5-slot state. A window reads only its own
``m`` bytes and the next window end is never before the end of the scanned
bytes, so :meth:`Matcher.stream` reads a file in windows, each the last
``m-1`` bytes of the previous window plus what one ``readinto`` adds, and
gets the positions and counters of a whole-text search. A file's windows
are views of one ``bytearray`` per stream, ``_CHUNK_BYTES + m-1`` bytes or
less for a smaller regular file: the kept bytes move to its front and the
read fills it after them, so the text is never copied into a new object.
It never holds all the positions: every scan has the kernel's contract,
writing at most one buffer of ``_POSITIONS_PER_CALL`` positions, which the
stream allocates once, and returning how many it wrote. Each
non-empty batch is a view of that buffer, valid until the next call.
``stream(source, k)`` returns the :class:`PositionStream` of a text, scanned
in place as its only window, or of a binary file; it hands each batch over
as a list the caller owns. ``search(source, k)`` extends one list from the
views.
"""

from __future__ import annotations

import ctypes
import io
import os
import stat
import sys
import zlib
from dataclasses import dataclass, field

from .errors import ConfigurationError, InvalidPatternError

ALPHA_MIN = 8
ALPHA_MAX = 30

K_MIN = 1
K_MAX = 4

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# The command that compiles the kernel, before its output and source. It
# enters the library's name with the source, so that changed flags build anew.
_KERNEL_CC = ("cc", "-O2", "-pthread", "-shared", "-fPIC")
# Positions a scan writes per call: the size of the driver's one buffer per stream.
_POSITIONS_PER_CALL = 4096
# Bytes of text a file's buffer holds after the m-1 it keeps: with the
# positions, it bounds a file search's memory. 256 KiB, 1 MiB and 4 MiB reads
# scanned a 16 MiB sigma=4 file in 28.5-29.7 ms on a 2-vCPU VM, so the size is
# set by memory alone.
_CHUNK_BYTES = 1 << 20
# Sets a slot of an immutable Matcher; a global saves preprocess a lookup per slot.
_set_slot = object.__setattr__
# The filter layout, as _kernel.c defines it: hash values below 2**_DIRECT_BITS
# go to the direct bitset when the hashed set exists; an empty set slot holds
# _EMPTY, and a value's home slot is the top bits of v * _HASH_MUL mod 2**32.
_DIRECT_BITS = 16
_EMPTY = 0xFFFFFFFF
_HASH_MUL = 0x9E3779B1


def _build_kernel(source: str, library: str) -> None:
    """Compile ``source`` into ``library``; ``OSError`` on any failure.

    The output goes to a per-process temporary name and is then renamed, so
    concurrent first imports never load a half-written library.
    """
    import subprocess  # only here: most imports find the library cached

    os.makedirs(os.path.dirname(library), exist_ok=True)
    tmp = f"{library}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [*_KERNEL_CC, "-o", tmp, source],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        os.replace(tmp, library)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc failed on {source}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel(source: str = KERNEL_SOURCE) -> ctypes.CDLL | None:
    """The native kernel built from ``source``, or None when it cannot be
    built or loaded; never raises."""
    try:
        with open(source, "rb") as fh:
            crc = zlib.crc32(fh.read(), zlib.crc32(" ".join(_KERNEL_CC).encode()))
        folder = os.path.join(os.path.dirname(source), "__pycache__")
        prefix = f"_kernel-{sys.implementation.cache_tag}-"
        name = f"{prefix}{crc:08x}.so"
        library = os.path.join(folder, name)
        if not os.path.exists(library):
            _build_kernel(source, library)
            try:  # best effort: delete the libraries of older sources
                for other in os.listdir(folder):
                    if other.startswith(prefix) and other.endswith(".so") and other != name:
                        os.unlink(os.path.join(folder, other))
            except OSError:
                pass
        lib = ctypes.CDLL(library)
        i64, ptr = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64)
        lib.wfr_build.argtypes = [ctypes.c_char_p, i64, ctypes.c_char_p, ctypes.c_int, ctypes.c_int]
        lib.wfr_build.restype = None
        lib.wfr_build_hashed.argtypes = [
            ctypes.c_char_p, i64, ctypes.c_char_p, ctypes.c_char_p, i64, ctypes.c_int, ctypes.c_int,
        ]
        lib.wfr_build_hashed.restype = None
        lib.wfr_scan.argtypes = [
            ctypes.c_char_p, i64, ctypes.c_char_p, i64, ctypes.c_char_p, ctypes.c_char_p, i64,
            ctypes.c_int, ctypes.c_uint64, ctypes.c_int, ptr, i64, ptr, i64,
        ]
        lib.wfr_scan.restype = i64
    except (OSError, AttributeError):  # AttributeError: a symbol is missing
        return None
    return lib


_native = _load_kernel()


@dataclass(frozen=True)
class FilterParams:
    """Tunable constants for factor hashing and filter size.

    alpha: bit width of hash values, which lie in ``[0, 2**alpha)``.
    shift_s: bits shifted in per character when a hash is extended.
    """

    alpha: int = 16
    shift_s: int = 2

    def __post_init__(self) -> None:
        if not ALPHA_MIN <= self.alpha <= ALPHA_MAX:
            raise ConfigurationError(
                f"alpha must be in [{ALPHA_MIN}, {ALPHA_MAX}], got {self.alpha}"
            )
        if self.shift_s not in (1, 2):
            raise ConfigurationError(f"shift_s must be 1 or 2, got {self.shift_s}")

    @property
    def table_bits(self) -> int:
        """Size of the hash space, ``2**alpha``: the number of values a factor
        hash can take. A filter's memory depends on its pattern as well; see
        :class:`FactorFilter`."""
        return 1 << self.alpha

    @property
    def hash_mask(self) -> int:
        """Mask reducing an integer modulo ``2**alpha``."""
        return (1 << self.alpha) - 1


DEFAULT_PARAMS = FilterParams()


@dataclass
class SearchOutcome:
    """Occurrence positions plus exact instrumentation of one search run.

    positions: strictly increasing start indices of all occurrences.
    verification_count: number of byte-by-byte window verifications.
    attempt_count: number of window alignments opened.
    total_shift: sum of window advances in bytes, including the final
        advance that moves the window past the end of the text.
    check_comparisons: total byte comparisons spent in verifications.
    backend: ``"native"`` or ``"python"``, the engine that ran; not part of
        equality, because both give the same result.
    """

    positions: list[int] = field(default_factory=list)
    verification_count: int = 0
    attempt_count: int = 0
    total_shift: int = 0
    check_comparisons: int = 0
    backend: str = field(default="python", compare=False)

    @property
    def occurrence_count(self) -> int:
        return len(self.positions)

    @property
    def false_positive_count(self) -> int:
        """Verifications that did not yield an occurrence."""
        return self.verification_count - len(self.positions)

    @property
    def mean_shift(self) -> float:
        """Average window advance in bytes, 0.0 if no attempt was made."""
        if self.attempt_count == 0:
            return 0.0
        return self.total_shift / self.attempt_count


class PositionStream:
    """The occurrence positions of one search, in batches, like
    :func:`re.finditer`: iterating yields non-empty ``list[int]`` batches in
    text order, each a fresh list the caller owns.

    The four counters read the counts of the text scanned so far; once the
    stream is exhausted they are those of the whole search, the same as on
    the :class:`SearchOutcome` of the same search. ``backend`` names the
    engine that runs.
    """

    __slots__ = ("backend", "_batches", "_state")

    def __init__(self, batches, state, backend: str) -> None:
        self._batches = batches
        self._state = state
        self.backend = backend

    def __iter__(self) -> PositionStream:
        return self

    def __next__(self) -> list[int]:
        return next(self._batches).tolist()

    @property
    def verification_count(self) -> int:
        return self._state[1]

    @property
    def attempt_count(self) -> int:
        return self._state[2]

    @property
    def total_shift(self) -> int:
        return self._state[3]

    @property
    def check_comparisons(self) -> int:
        return self._state[4]

    def _collect(self) -> SearchOutcome:
        """Exhaust the stream into a :class:`SearchOutcome`, extending its
        positions straight from each batch's view."""
        positions: list[int] = []
        for batch in self._batches:
            positions.extend(batch)
        return SearchOutcome(positions, *self._state[1:], backend=self.backend)


def hash_factor(z: bytes, params: FilterParams = DEFAULT_PARAMS) -> int:
    """Hash a byte sequence to an integer in ``[0, 2**alpha)``.

    The empty sequence hashes to 0 and
    ``hash_factor(z) == ((hash_factor(z[1:]) << shift_s) + z[0]) mod 2**alpha``.
    """
    s = params.shift_s
    mask = params.hash_mask
    v = 0
    for c in reversed(z):
        v = ((v << s) + c) & mask
    return v


def extend_hash(v: int, c: int, params: FilterParams = DEFAULT_PARAMS) -> int:
    """Fold byte ``c`` onto the left end of a sequence with hash ``v``.

    ``extend_hash(hash_factor(z), c) == hash_factor(bytes([c]) + z)``.
    """
    return ((v << params.shift_s) + c) & params.hash_mask


def _as_bytes(arg, name: str) -> bytes:
    """``arg`` itself when it is ``bytes``, else a ``bytes`` copy of its
    buffer (multi-byte items become their bytes); ``TypeError`` when ``arg``
    is not bytes-like, which names ``str`` for a text-mode file."""
    if type(arg) is bytes:
        return arg
    try:
        return memoryview(arg).tobytes()
    except TypeError:
        kind = "str" if isinstance(arg, io.TextIOBase) else type(arg).__name__
        raise TypeError(f"{name} must be bytes-like, not {kind}") from None


def _as_pattern(arg) -> bytes:
    """:func:`_as_bytes` of a pattern; :class:`InvalidPatternError` if empty,
    since a stream's first window end ``m-1`` and the ``m-1`` bytes a
    file's windows keep need ``m >= 1``."""
    pattern = arg if type(arg) is bytes else _as_bytes(arg, "pattern")
    if not pattern:
        raise InvalidPatternError("pattern must be at least one byte")
    return pattern


class Matcher:
    """One preprocessed pattern, which scans any number of texts or binary
    files with :meth:`stream`, or with :meth:`search`, which collects it.
    ``pattern`` is checked by :func:`_as_pattern`, and
    ``scan(matcher, window, k, state, base, pos)``, run by ``backend``
    (``"native"`` or ``"python"``), has the contract of the kernel's
    ``wfr_scan``: it scans ``window`` (``bytes``, a ``bytearray``, or a
    view of a file's ``bytearray``) from window end ``state[0]``, writes at
    most ``len(pos)`` occurrences plus ``base`` to ``pos``, updates
    ``state`` and returns how many it wrote. A matcher is immutable (assigning an attribute raises
    ``AttributeError``) and safe for concurrent searches."""

    __slots__ = ("pattern", "backend", "_scan")

    def __init__(self, pattern: bytes, scan, backend: str = "python") -> None:
        _set_slot(self, "pattern", _as_pattern(pattern))
        _set_slot(self, "_scan", scan)
        _set_slot(self, "backend", backend)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def search(self, source, k: int = 1) -> SearchOutcome:
        """All occurrences of the pattern in ``source`` and the scan's
        counters, with zero attempts if ``m > n``: :meth:`stream` collected
        into one list."""
        return self.stream(source, k)._collect()

    def stream(self, source, k: int = 1) -> PositionStream:
        """The :class:`PositionStream` of ``source``, scanned as it is
        iterated; :class:`ConfigurationError` now unless ``k``, for wfr the
        characters folded per filter probe, is an ``int`` in ``[1, 4]`` and
        at most ``m``. ``source`` is a binary file, which is anything with
        ``readinto``, or else the text, which must be bytes-like
        (``TypeError`` otherwise, and for a text-mode file): a ``bytes`` or
        ``bytearray`` text is read in place, so changing a ``bytearray``
        while its stream is in use changes what is found, and any other
        bytes-like text is copied once. A file is read with ``readinto``
        until it returns 0, with the positions and counters of
        ``search(fh.read(), k)``, through one buffer of at most 1 MiB plus
        ``m-1`` bytes of text; a short read, from a pipe, fills less of it. It is read as the stream is iterated, so the stream must
        be used up before the file is closed. The driver calls the scan until
        ``state[0] >= len(window)`` on each window, the text or each of
        :func:`_file_windows`, and yields each non-empty batch as an int64
        memoryview of ``pos``."""
        m, scan = len(self.pattern), self._scan
        if not isinstance(k, int) or not K_MIN <= k <= K_MAX:
            raise ConfigurationError(f"k must be in [{K_MIN}, {K_MAX}], got {k!r}")
        if k > m:
            raise ConfigurationError(f"k={k} exceeds pattern length m={m}")
        state = (ctypes.c_int64 * 5)(m - 1)  # window end, then the four counters

        def batches():
            pos = (ctypes.c_int64 * _POSITIONS_PER_CALL)()
            # A list extends from a slice of this native-format view about twice as
            # fast as from a ctypes slice, which boxes each item through ctypes.
            found_at = memoryview(pos).cast("B").cast("q")
            base = 0  # offset of the window's first byte in the text
            if hasattr(source, "readinto"):
                windows = _file_windows(source, m)
            elif type(source) is bytearray:
                windows = (source,)
            else:
                windows = (_as_bytes(source, "text"),)  # one window, scanned in place
            for window in windows:
                while state[0] < len(window):
                    found = scan(self, window, k, state, base, pos)
                    if found:
                        yield found_at[:found]
                # The next window end is at or past len(window), so a window not
                # yet scanned starts in the last m-1 bytes or later.
                dropped = max(len(window) - (m - 1), 0)
                state[0] -= dropped
                base += dropped

        return PositionStream(batches(), state, self.backend)


def _file_windows(fh, m: int):
    """The windows of binary file ``fh`` for an ``m``-byte pattern, views of
    one ``bytearray``: each is the last ``m-1`` bytes of the previous window
    (all of it when shorter), then what one ``fh.readinto`` adds, so every
    alignment lies whole in some window. Bytes past a window's end are
    stale."""
    view = memoryview(bytearray(_buffer_size(fh) + m - 1))
    n = 0
    while True:
        kept = min(n, m - 1)
        view[:kept] = view[n - kept : n]  # memmove: the two may overlap
        got = fh.readinto(view[kept:])
        if got is None:
            raise BlockingIOError("text file is non-blocking and has no data ready")
        if not got:
            return
        n = kept + got
        yield view[:n]


def _buffer_size(fh) -> int:
    """The bytes of text a buffer for ``fh`` holds after the ``m-1`` it
    keeps: the bytes left in a regular file or an ``io.BytesIO``, if fewer
    than ``_CHUNK_BYTES`` and at least 1, else ``_CHUNK_BYTES``. A regular
    file of size 0 gets ``_CHUNK_BYTES``, as a pipe does, since files under
    ``/proc`` and ``/sys`` report size 0 but hold data; an empty file
    therefore allocates one ``_CHUNK_BYTES`` buffer. It only sets the
    memory."""
    try:
        if isinstance(fh, io.BytesIO):  # seek, not getbuffer(), which copies a shared text
            at = fh.tell()
            left = fh.seek(0, io.SEEK_END) - at
            fh.seek(at)
        else:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode) or not st.st_size:
                return _CHUNK_BYTES
            left = st.st_size - fh.tell()
    except (AttributeError, OSError, ValueError):  # no file descriptor
        return _CHUNK_BYTES
    return max(min(left, _CHUNK_BYTES), 1)


def _layout(params: FilterParams, m: int) -> tuple[int, int]:
    """``(D, slots)`` of the filter of an ``m``-byte pattern: its direct
    bitset holds the hash values below ``2**D`` and its hashed set the rest
    in ``slots`` slots, 0 when there is no set.

    The pattern has at most ``m*L`` distinct hash values, ``L =
    ceil(alpha/shift_s)``, and ``slots`` is the smallest power of two at
    least ``2*m*L``, so at most half the slots are used. When the two parts
    would take no less memory than a bitset of all ``2**alpha`` values, and
    always when ``alpha <= 16``, that bitset is the whole filter.
    """
    alpha = params.alpha
    if alpha > _DIRECT_BITS:
        slots = 1 << (2 * m * -(-alpha // params.shift_s) - 1).bit_length()
        if (1 << (_DIRECT_BITS - 3)) + 4 * slots < 1 << (alpha - 3):
            return _DIRECT_BITS, slots
    return alpha, 0


def _find_slot(cells, v: int) -> int:
    """The slot of ``v`` in the hashed set ``cells`` (uint32 items), or the
    empty slot where its probe stops: linear probing from its home slot, as
    the kernel's ``find_slot``. ``v`` is in the set iff ``cells[h] == v``."""
    last = len(cells) - 1
    h = (v * _HASH_MUL & 0xFFFFFFFF) >> (33 - len(cells).bit_length())
    while cells[h] != v and cells[h] != _EMPTY:
        h = (h + 1) & last
    return h


class FactorFilter(Matcher):
    """The factor filter of one pattern: exact membership of the hash of
    every nonempty factor.

    The constructor puts ``hash_factor(z)`` in the filter for every nonempty
    factor ``z`` of ``pattern``, and the backend that builds the filter
    scans with it. The filter is an immutable :class:`Matcher`, so it always
    belongs to ``pattern``.

    Its two parts are ``bytes``, the one layout both backends build byte for
    byte and read in place, sized by :func:`_layout`:

    - ``bits``, a bitset of the values below ``2**D``: bit ``v`` is
      ``bits[v >> 3] & (1 << (v & 7))``. ``D = min(alpha, 16)``, 8 KiB at
      most, unless the whole filter is one bitset of ``2**(alpha-3)`` bytes.
    - ``hashed``, the values at or above ``2**D`` in an open-addressed set
      of native-endian uint32 slots (empty when there is no set); an empty
      slot holds ``0xFFFFFFFF``. It takes 4 bytes per slot, and there are
      ``2*m*L`` to ``4*m*L`` slots, ``L = ceil(alpha/shift_s)``.

    So the filter costs about ``8 KiB + 16*m*L`` bytes at most, and never
    more than a ``2**alpha``-bit bitset: 16 KiB for ``m = 64`` and 136 KiB
    for ``m = 1024`` at alpha=24 and shift_s=2, where that bitset is 2 MiB.
    Membership is exact, so every probe has the outcome a ``2**alpha``-bit
    bitset would give. Only factors up to ``L`` bytes long are hashed, in
    O(m*L) time: a hash depends only on the first ``L`` bytes of a factor,
    and that prefix is itself a factor.
    """

    __slots__ = ("params", "bits", "hashed")

    def __init__(self, pattern: bytes, params: FilterParams = DEFAULT_PARAMS) -> None:
        s = params.shift_s
        if _native is not None:
            Matcher.__init__(self, pattern, _scan_native, "native")
            x = self.pattern
            direct, slots = _layout(params, len(x))
            # Fresh objects no one else holds yet: the kernel fills them in
            # place, which saves copying them.
            bits = bytes(1 << (direct - 3))
            hashed = b"\xff" * (4 * slots)
            if slots:
                _native.wfr_build_hashed(x, len(x), bits, hashed, slots, s, params.alpha)
            else:
                _native.wfr_build(x, len(x), bits, s, params.alpha)
        else:
            Matcher.__init__(self, pattern, _scan_python, "python")
            pattern = self.pattern
            mask = params.hash_mask
            direct, slots = _layout(params, len(pattern))
            longest = -(-params.alpha // s)
            table = bytearray(1 << (direct - 3))
            hashed = bytearray(b"\xff" * (4 * slots))
            cells = memoryview(hashed).cast("I")
            below = 1 << direct
            for i in range(len(pattern) - 1, -1, -1):
                v = 0
                for j in range(i, max(i - longest, -1), -1):
                    v = ((v << s) + pattern[j]) & mask
                    if v < below:
                        table[v >> 3] |= 1 << (v & 7)
                    else:
                        cells[_find_slot(cells, v)] = v
            bits, hashed = bytes(table), bytes(hashed)
        _set_slot(self, "params", params)
        _set_slot(self, "bits", bits)
        _set_slot(self, "hashed", hashed)

    def test_bit(self, v: int) -> bool:
        """True iff ``v`` is in the filter; ``ValueError`` outside ``[0, 2**alpha)``."""
        if not 0 <= v < self.params.table_bits:
            raise ValueError(f"bit index {v} outside [0, 2**{self.params.alpha})")
        if v < len(self.bits) << 3:
            return bool(self.bits[v >> 3] & (1 << (v & 7)))
        cells = memoryview(self.hashed).cast("I")
        return cells[_find_slot(cells, v)] == v

    def popcount(self) -> int:
        """Number of values in the filter: the set bits plus the used slots."""
        cells = memoryview(self.hashed).cast("I").tolist()
        return int.from_bytes(self.bits, "little").bit_count() + len(cells) - cells.count(_EMPTY)

    def stream(self, source, k: int = 1) -> PositionStream:
        """:meth:`Matcher.stream`, after checking that both parts have the
        sizes :func:`_layout` gives for the params and the pattern: the scans
        index them without bounds checks, and a probe of the set stops only
        at ``v`` or an empty slot."""
        direct, slots = _layout(self.params, len(self.pattern))
        if len(self.bits) != 1 << (direct - 3) or len(self.hashed) != 4 * slots:
            raise ConfigurationError("filter table size does not match its params")
        return super().stream(source, k)


def preprocess(pattern: bytes, params: FilterParams = DEFAULT_PARAMS) -> FactorFilter:
    """Build the factor filter of ``pattern``; see :class:`FactorFilter`.

    ``preprocess(pattern, params).search(text, k)`` is the search; the
    filter can be reused across any number of texts.
    """
    return FactorFilter(pattern, params)


def _match_len(x: bytes, y: bytes, i: int) -> int:
    """Length of the longest common prefix of ``x`` and ``y[i:]``, capped at len(x)."""
    t = 0
    m = len(x)
    while t < m and x[t] == y[i + t]:
        t += 1
    return t


def check(pattern: bytes, text: bytes, i: int) -> bool:
    """True iff ``pattern`` occurs in ``text`` at start index ``i``, in at
    most ``len(pattern)`` byte comparisons; both are taken as
    :class:`Matcher` takes them, so a ``bytes`` text is read in place."""
    pattern, text = _as_pattern(pattern), _as_bytes(text, "text")
    m = len(pattern)
    if i < 0 or i + m > len(text):
        raise ValueError(f"alignment {i} out of range for n={len(text)}, m={m}")
    return _match_len(pattern, text, i) == m


def search(
    pattern: bytes,
    text: bytes,
    params: FilterParams | None = None,
    k: int = 1,
    factors: FactorFilter | None = None,
) -> SearchOutcome:
    """``preprocess(pattern, params).search(text, k)``; see
    :meth:`FactorFilter.search`. :class:`InvalidPatternError` for an empty
    pattern.

    ``factors`` may carry a prebuilt filter of this same pattern, whose
    params then govern the run; a filter built from another pattern, or a
    ``params`` that differs from its own, raises :class:`ConfigurationError`.
    """
    if factors is None:
        factors = FactorFilter(pattern, params or DEFAULT_PARAMS)
    elif factors.pattern != _as_bytes(pattern, "pattern") or params not in (None, factors.params):
        raise ConfigurationError("prebuilt filter was not built from this pattern with these params")
    return factors.search(text, k)


def _scan_native(flt: FactorFilter, y: bytes, k: int, state, base: int, pos) -> int:
    """The filter's scan as one call of the C kernel. A ``bytearray`` text,
    or a file's window, a view of one, goes in as a pointer to its first
    byte."""
    x, hashed, params = flt.pattern, flt.hashed, flt.params
    text = y if type(y) is bytes else ctypes.byref(ctypes.c_char.from_buffer(y))
    return _native.wfr_scan(
        x, len(x), text, len(y), flt.bits, hashed, len(hashed) >> 2,
        params.shift_s, params.hash_mask, k, pos, len(pos), state, base,
    )


def _scan_python(flt: FactorFilter, y: bytes, k: int, state, base: int, pos) -> int:
    """The reference scan: the kernel's loop, state and contract in Python.
    One loop serves every ``k``; ``k=1`` probes after every character."""
    # Hot loop: everything bound to locals, bit test inlined.
    x, bits, params = flt.pattern, flt.bits, flt.params
    direct = len(bits) << 3  # values below it are in bits, the rest in cells
    cells = memoryview(flt.hashed).cast("I")
    s = params.shift_s
    hmask = params.hash_mask
    m = len(x)
    j, verifications, attempts, shifts, comparisons = state
    found, end = 0, len(y)  # end drops to 0 when pos fills, after that attempt

    while j < end:
        attempts += 1
        i = j - m + 1
        # Fold up to k characters, probe once; repeat while the probe passes
        # and the window is not used up; verify when the probe at i passes.
        cursor = j + 1
        v = 0
        while True:
            stop = cursor - k
            if stop < i:
                stop = i
            while cursor > stop:
                cursor -= 1
                v = ((v << s) + y[cursor]) & hmask
            hit = bits[v >> 3] & (1 << (v & 7)) if v < direct else cells[_find_slot(cells, v)] == v
            if cursor == i or not hit:
                break
        if cursor == i and hit:
            verifications += 1
            t = _match_len(x, y, i)
            comparisons += t if t == m else t + 1
            if t == m:
                pos[found] = i + base
                found += 1
                if found == len(pos):
                    end = 0
        j = cursor + m
        shifts += cursor + 1 - i

    state[:] = (j, verifications, attempts, shifts, comparisons)
    return found
