"""Circular FIFO modelling the Hermes input buffers.

The paper uses 2-flit circular FIFOs on every router input port to reduce
the number of routers affected by a blocked wormhole ("The inserted
buffers work as circular FIFOs", Section 2.1).  Depth is a constructor
parameter so the buffer-depth ablation (experiment E3) can sweep it.
"""

from __future__ import annotations

from typing import List, Optional


class CircularFifo:
    """Fixed-capacity ring buffer of flits."""

    __slots__ = ("capacity", "_slots", "_head", "_count", "_watermark")

    def __init__(self, capacity: int = 2):
        if capacity < 1:
            raise ValueError("FIFO capacity must be at least 1 flit")
        self.capacity = capacity
        self._slots: List[Optional[int]] = [None] * capacity
        self._head = 0
        self._count = 0
        self._watermark = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    @property
    def head(self) -> int:
        """The oldest flit, without removing it."""
        if self._count == 0:
            raise IndexError("head of empty FIFO")
        return self._slots[self._head]  # type: ignore[return-value]

    def push(self, flit: int) -> None:
        """Append a flit; raises if the buffer is full (caller must check)."""
        if self._count == self.capacity:
            raise OverflowError("push into full FIFO")
        tail = (self._head + self._count) % self.capacity
        self._slots[tail] = flit
        self._count += 1
        if self._count > self._watermark:
            self._watermark = self._count

    def pop(self) -> int:
        """Remove and return the oldest flit."""
        if self._count == 0:
            raise IndexError("pop from empty FIFO")
        flit = self._slots[self._head]
        self._slots[self._head] = None
        self._head = (self._head + 1) % self.capacity
        self._count -= 1
        return flit  # type: ignore[return-value]

    @property
    def watermark(self) -> int:
        """Highest occupancy reached since construction or :meth:`clear`."""
        return self._watermark

    def clear(self) -> None:
        self._slots = [None] * self.capacity
        self._head = 0
        self._count = 0
        self._watermark = 0

    def snapshot(self) -> List[int]:
        """Contents oldest-first (diagnostics only)."""
        return [
            self._slots[(self._head + i) % self.capacity]  # type: ignore[misc]
            for i in range(self._count)
        ]

    def restore(self, contents: List[int], watermark: int = 0) -> None:
        """Rebuild from a :meth:`snapshot` list (checkpoint restore)."""
        if len(contents) > self.capacity:
            raise OverflowError(
                f"{len(contents)} flits do not fit a {self.capacity}-flit FIFO"
            )
        self.clear()
        for flit in contents:
            self.push(flit)
        self._watermark = max(watermark, self._count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircularFifo({self.snapshot()}/{self.capacity})"
