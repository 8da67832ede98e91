"""Fixed-capacity bit vector for factor-hash membership.

A filter holds exactly ``2**alpha`` bits, packed into ``2**alpha / 64``
storage words of 64 bits. Bits can be set and tested but never cleared: once a
hash value has been admitted it stays admitted. Construction and population are
single-writer; a fully populated filter is immutable in practice and safe for
any number of concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

ALPHA_MIN = 8
ALPHA_MAX = 30


@dataclass(frozen=True)
class FilterParams:
    """Tunable constants for factor hashing and filter size.

    alpha: bit width of hash values; the filter holds ``2**alpha`` bits.
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
        """Total number of bits in a filter built with these params."""
        return 1 << self.alpha

    @property
    def hash_mask(self) -> int:
        """Mask reducing an integer modulo ``2**alpha``."""
        return (1 << self.alpha) - 1


class FactorFilter:
    """Membership table over factor hashes.

    Freshly created, every bit is zero. Bit ``v`` lives in 64-bit word
    ``words[v >> 6]`` at offset ``v & 63``. ``pattern`` is the pattern whose
    factors were admitted, recorded by :func:`wfr.engine.preprocess`; it is
    ``None`` for a filter populated by hand.
    """

    __slots__ = ("params", "words", "pattern")

    def __init__(self, params: FilterParams | None = None) -> None:
        self.params = params if params is not None else FilterParams()
        self.words: list[int] = [0] * (self.params.table_bits >> 6)
        self.pattern: bytes | None = None

    def _index(self, v: int) -> int:
        if not 0 <= v < self.params.table_bits:
            raise ValueError(f"bit index {v} outside [0, 2**{self.params.alpha})")
        return v

    def set_bit(self, v: int) -> None:
        """Set bit ``v``. Idempotent; no other bit changes."""
        v = self._index(v)
        self.words[v >> 6] |= 1 << (v & 63)

    def test_bit(self, v: int) -> bool:
        """True iff bit ``v`` has been set."""
        v = self._index(v)
        return bool(self.words[v >> 6] & (1 << (v & 63)))

    def popcount(self) -> int:
        """Number of set bits."""
        return sum(w.bit_count() for w in self.words)
