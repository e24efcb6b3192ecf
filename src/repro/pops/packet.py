"""Packets moved by the POPS simulator.

A packet records where it started, where it must end up, and an optional
payload.  Packets are identified by their source processor (the paper's
``p_i`` is stored at processor ``i``), which is sufficient because every
routing problem considered moves exactly one packet per source.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["LazyPackets", "Packet"]


@dataclass(frozen=True)
class Packet:
    """A routed packet.

    Attributes
    ----------
    source:
        Processor the packet originates at (also its identity).
    destination:
        Processor the packet must be delivered to.
    payload:
        Arbitrary application data carried along (ignored by the router).
    """

    source: int
    destination: int
    payload: Any = field(default=None, compare=False)

    def with_payload(self, payload: Any) -> "Packet":
        """Return a copy of the packet carrying ``payload``."""
        return Packet(self.source, self.destination, payload)

    def __repr__(self) -> str:
        return f"Packet({self.source}->{self.destination})"


class LazyPackets(Sequence):
    """A payload-free packet universe, materialized on first touch.

    Building ``n`` frozen :class:`Packet` objects is pure Python object
    construction, yet the compiled hot paths — a routed batch element, a
    plan loaded from the persistent store — never look at them; only error
    reporting, trace materialization and buffer reconstruction do.  This
    sequence holds the source/destination arrays and builds the list the
    first time anyone indexes, iterates or compares it.
    """

    __slots__ = ("source", "_destination", "_items")

    def __init__(self, source: np.ndarray, destination: np.ndarray):
        #: Source of every packet (its identity), as an integer array.
        self.source = source
        self._destination = destination
        self._items: list[Packet] | None = None

    def _materialized(self) -> list[Packet]:
        if self._items is None:
            self._items = list(
                map(Packet, self.source.tolist(), self._destination.tolist())
            )
        return self._items

    def __len__(self) -> int:
        return int(self._destination.shape[0])

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self):
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyPackets):
            other = other._materialized()
        if isinstance(other, list):
            return self._materialized() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self._items is not None else "lazy"
        return f"LazyPackets(n={len(self)}, {state})"
