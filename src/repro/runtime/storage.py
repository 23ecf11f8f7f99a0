"""Asyncio storage facade mirroring :class:`repro.system.StorageSystem`.

Runs any :class:`~repro.protocols.StorageProtocol` with real task-level
concurrency::

    async with AsyncStorage(SafeStorageProtocol(),
                            SystemConfig.optimal(t=1, b=1)) as storage:
        await storage.write("v1")
        assert await storage.read() == "v1"

Reads and writes from different clients may be issued concurrently with
``asyncio.gather``; the per-client one-operation-at-a-time rule of the
model is enforced with per-client locks.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from ..automata.base import ObjectAutomaton
from ..config import SystemConfig
from ..errors import TransportError
from ..protocols import StorageProtocol
from ..types import DEFAULT_REGISTER, ProcessId, WRITER, obj, reader
from .hosts import MuxClientHost, ObjectHost
from .memnet import AsyncNetwork


class AsyncStorage:
    """A protocol instance on the asyncio runtime."""

    def __init__(self, protocol: StorageProtocol, config: SystemConfig,
                 jitter: float = 0.0, seed: int = 0,
                 default_timeout: Optional[float] = 30.0):
        protocol.validate_config(config)
        self.protocol = protocol
        self.config = config
        self.network = AsyncNetwork(jitter=jitter, seed=seed)
        self.default_timeout = default_timeout
        self._object_hosts: List[ObjectHost] = [
            ObjectHost(automaton, self.network)
            for automaton in protocol.make_objects(config)
        ]
        self._states = protocol.client_states(config)
        self.writer_state = self._states.writer()
        self.reader_states = [
            self._states.reader(reader_index=j)
            for j in range(config.num_readers)
        ]
        self._writer_host = MuxClientHost(WRITER, self.network)
        self._reader_hosts = [MuxClientHost(reader(j), self.network)
                              for j in range(config.num_readers)]
        self._client_locks: Dict[ProcessId, asyncio.Lock] = {}
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "AsyncStorage":
        if not self._started:
            for host in self._object_hosts:
                host.start()
            self._started = True
        return self

    async def stop(self) -> None:
        for host in (*self._object_hosts, self._writer_host,
                     *self._reader_hosts):
            host.stop()
        self._started = False

    async def __aenter__(self) -> "AsyncStorage":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- faults ------------------------------------------------------------
    def crash_object(self, index: int) -> None:
        self.network.crash(obj(index))
        self._object_hosts[index].stop()

    def make_byzantine(self, index: int,
                       automaton: ObjectAutomaton) -> None:
        self._object_hosts[index].stop()
        host = ObjectHost(automaton, self.network)
        self._object_hosts[index] = host
        if self._started:
            host.start()

    # -- operations ------------------------------------------------------------
    def _lock(self, pid: ProcessId) -> asyncio.Lock:
        return self._client_locks.setdefault(pid, asyncio.Lock())

    async def write(self, value: Any,
                    timeout: Optional[float] = None,
                    register_id: str = DEFAULT_REGISTER) -> Any:
        if not self._started:
            raise TransportError("storage not started; use 'async with'")
        operation = self.protocol.make_write_to(
            self._states.writer(register_id), value, register_id)
        async with self._lock(WRITER):
            return await self._writer_host.run(
                operation, timeout or self.default_timeout)

    async def read(self, reader_index: int = 0,
                   timeout: Optional[float] = None,
                   register_id: str = DEFAULT_REGISTER) -> Any:
        if not self._started:
            raise TransportError("storage not started; use 'async with'")
        operation = self.protocol.make_read_from(
            self._states.reader(register_id, reader_index), register_id)
        async with self._lock(reader(reader_index)):
            return await self._reader_hosts[reader_index].run(
                operation, timeout or self.default_timeout)
