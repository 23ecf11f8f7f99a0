"""Asyncio runtime: the same protocol automata under real concurrency.

Two tiers:

* :class:`ObjectHost` / :class:`MuxClientHost` on the in-memory
  :class:`AsyncNetwork` (fast, optional seeded jitter) -- the hosts
  :class:`~repro.service.MultiRegisterStore` is built from;
* :class:`TcpObjectServer` / :class:`TcpStorageClient` over localhost TCP
  with the binary wire codec (integration tier).

:mod:`repro.runtime.wal` adds per-replica durability (write-ahead log +
snapshots of raw binary wire frames) for the multiproc deployment.
"""

from .hosts import MuxClientHost, ObjectHost, coalesce_outgoing
from .memnet import AsyncEnvelope, AsyncNetwork
from .tcp import TcpObjectServer, TcpStorageClient
from .wal import (FrameCompactor, ReplicaDurability, SnapshotStore,
                  WriteAheadLog)

__all__ = [
    "FrameCompactor",
    "ReplicaDurability",
    "SnapshotStore",
    "WriteAheadLog",
    "AsyncNetwork",
    "AsyncEnvelope",
    "ObjectHost",
    "MuxClientHost",
    "coalesce_outgoing",
    "TcpObjectServer",
    "TcpStorageClient",
]
