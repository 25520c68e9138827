"""The bounded admission queue in front of the extraction worker.

Load shedding happens *here*, at admission, not by timeout later: a
request arriving while ``REPRO_SERVE_QUEUE`` requests are already
waiting is refused immediately (:meth:`AdmissionQueue.try_put` returns
``False`` and the server answers 429), so queue depth — and therefore
queueing latency — is bounded by construction.  An admitted request is a
promise: the drain path (:mod:`repro.serve.server`) answers every queued
request before the process exits.
"""

from __future__ import annotations

import asyncio
from typing import Any


class AdmissionQueue:
    """A bounded asyncio queue that refuses instead of blocking.

    ``try_put`` is synchronous and never waits — the admission decision
    must cost nothing when the answer is "no", because shedding is
    exactly the moment the server has no capacity to spare.
    """

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise ValueError(f"queue bound must be >= 1, got {bound}")
        self.bound = bound
        self._queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=bound)
        self.admitted = 0
        self.shed = 0

    def __len__(self) -> int:
        return self._queue.qsize()

    def try_put(self, item: Any) -> bool:
        """Admit ``item`` or refuse without waiting (the 429 path)."""
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.shed += 1
            return False
        self.admitted += 1
        return True

    async def get(self) -> Any:
        """Wait for the next admitted item, oldest first."""
        return await self._queue.get()

    def empty(self) -> bool:
        return self._queue.empty()
