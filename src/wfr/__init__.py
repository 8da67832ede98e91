"""Factor-hash exact string search with baselines and a benchmark harness."""

from .baselines import horspool_search, naive_search
from .engine import (
    FactorFilter,
    FilterParams,
    PositionStream,
    SearchOutcome,
    check,
    extend_hash,
    hash_factor,
    preprocess,
    search,
)
from .errors import ConfigurationError, CorrectnessViolation, InvalidPatternError

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CorrectnessViolation",
    "FactorFilter",
    "FilterParams",
    "InvalidPatternError",
    "PositionStream",
    "SearchOutcome",
    "check",
    "extend_hash",
    "hash_factor",
    "horspool_search",
    "naive_search",
    "preprocess",
    "search",
]
