"""The paper's regular storage (Section 5, Figures 2, 5, 6).

Optimal resilience (``S = 2t + b + 1``), regular semantics, and the same
2-round worst case for READ and WRITE as the safe protocol -- at the cost
of history-keeping objects.  Two flavours:

* :class:`RegularStorageProtocol` -- objects ship full histories
  (presentation version of Section 5);
* :class:`CachedRegularStorageProtocol` -- the Section 5.1 optimization:
  readers cache the last returned timestamp and objects ship only history
  suffixes.

The WRITE side is literally the safe protocol's writer (Figure 2 is shared
by both storages in the paper).
"""

from typing import Any, List

from ...config import SystemConfig
from ...protocols import REGULAR, StorageProtocol
from ..safe.writer import SafeWriterState, SafeWriteOperation
from .evidence import RegularEvidence
from .object import RegularObject
from .reader import (InstallReadOperation, RegularReaderState,
                     RegularReadOperation)


class RegularStorageProtocol(StorageProtocol):
    """Figures 2, 5, 6 with full-history READ acks."""

    name = "gv-regular"
    semantics = REGULAR
    write_rounds_worst_case = 2
    read_rounds_worst_case = 2
    requires_authentication = False
    readers_write = True
    #: reader states understand tag leases (service-tier opt-in); a
    #: fallback fast read costs the probe round on top of the classic
    #: bound, so the advertised worst case only holds classic-only.
    supports_fast_reads = True

    #: Section 5.1 switch; the subclass flips it.
    cached_reads = False

    def min_objects(self, t: int, b: int) -> int:
        return 2 * t + b + 1

    def make_objects(self, config: SystemConfig) -> List[RegularObject]:
        self.validate_config(config)
        return [RegularObject(i, config) for i in range(config.num_objects)]

    def make_writer_state(self, config: SystemConfig) -> SafeWriterState:
        return SafeWriterState(config)

    def make_reader_state(self, config: SystemConfig,
                          reader_index: int) -> RegularReaderState:
        return RegularReaderState(config, reader_index)

    def make_write(self, writer_state: SafeWriterState,
                   value: Any) -> SafeWriteOperation:
        return SafeWriteOperation(writer_state, value)

    def make_read(self, reader_state: RegularReaderState
                  ) -> RegularReadOperation:
        return RegularReadOperation(reader_state, cached=self.cached_reads)

    def make_install_read(self, reader_state: RegularReaderState
                          ) -> InstallReadOperation:
        # No atomic write-back either: the install goes to one replica.
        return InstallReadOperation(reader_state)


class CachedRegularStorageProtocol(RegularStorageProtocol):
    """Section 5.1: suffix-shipping histories with reader-side caches."""

    name = "gv-regular-cached"
    cached_reads = True


__all__ = [
    "RegularStorageProtocol",
    "CachedRegularStorageProtocol",
    "RegularObject",
    "RegularReaderState",
    "RegularReadOperation",
    "RegularEvidence",
    "SafeWriterState",
    "SafeWriteOperation",
]
