"""Bounded counter CRDT with storage middleware, a geo-replication simulator, and a model checker."""

from .crdt import (
    BoundedCounter,
    CounterError,
    IncompatibleCounters,
    InvalidBound,
    InvalidReplica,
    MalformedEncoding,
    NonPositiveDelta,
    NotEnoughRights,
    Overflow,
    Polarity,
    SelfTransfer,
)

__all__ = [
    "BoundedCounter",
    "CounterError",
    "IncompatibleCounters",
    "InvalidBound",
    "InvalidReplica",
    "MalformedEncoding",
    "NonPositiveDelta",
    "NotEnoughRights",
    "Overflow",
    "Polarity",
    "SelfTransfer",
]

__version__ = "0.1.0"
