"""Uniform protocol plug-in interface.

Every storage emulation in the library -- the paper's safe and regular
protocols, and each baseline -- implements :class:`StorageProtocol`.  The
interface factors a protocol into its three automata families (objects,
writer operations, reader operations) plus static metadata (resilience
requirement, advertised worst-case round complexity, register semantics),
so the simulator, the asyncio runtime, the comparison experiment (E7) and
the property-based tests can treat all protocols identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Tuple

from .automata.base import ClientOperation, ObjectAutomaton
from .automata.rounds import LeaseTable
from .config import SystemConfig
from .types import DEFAULT_REGISTER

#: Register semantics labels (Lamport [12] hierarchy).
SAFE = "safe"
REGULAR = "regular"
ATOMIC = "atomic"


class StorageProtocol(ABC):
    """A pluggable SWMR storage emulation."""

    #: Short identifier used in tables and traces.
    name: str = "abstract"
    #: Claimed register semantics: "safe", "regular" or "atomic".
    semantics: str = SAFE
    #: Advertised worst-case client-object round-trips per operation.
    write_rounds_worst_case: int = 0
    read_rounds_worst_case: int = 0
    #: Whether payloads must be authenticated (simulated signatures).
    requires_authentication: bool = False
    #: Whether readers modify base-object state.
    readers_write: bool = True
    #: Whether this protocol's reader states understand tag leases (the
    #: contention-adaptive fast-read path).  Opt-in per deployment: even
    #: capable protocols run classic-only unless the service tier enables
    #: fast reads on its :class:`RegisterClientStates` pool.
    supports_fast_reads: bool = False

    def write_rounds_bound(self, config: SystemConfig) -> int:
        """Worst-case write rounds under ``config``.

        The advertised ``write_rounds_worst_case`` is the paper's
        single-writer figure.  A multi-writer WRITE can take one round
        more: the core writer when its guessed tag is beaten (another
        writer wrote the register since, or a Byzantine object inflated
        its report), the baselines on every write (tag discovery).  An
        uncontended core MWMR write takes the single-writer figure.
        """
        extra = 1 if config.is_multi_writer else 0
        return self.write_rounds_worst_case + extra

    # -- resilience -----------------------------------------------------------
    @abstractmethod
    def min_objects(self, t: int, b: int) -> int:
        """Minimum ``S`` this protocol needs for the given thresholds."""

    def validate_config(self, config: SystemConfig) -> None:
        needed = self.min_objects(config.t, config.b)
        if config.num_objects < needed:
            from .errors import ResilienceError
            raise ResilienceError(
                f"{self.name} requires S >= {needed} for t={config.t}, "
                f"b={config.b}; got S={config.num_objects}")

    # -- automata factories -----------------------------------------------------
    @abstractmethod
    def make_objects(self, config: SystemConfig) -> List[ObjectAutomaton]:
        """Fresh base-object automata, indices ``0 .. S-1``."""

    @abstractmethod
    def make_writer_state(self, config: SystemConfig) -> Any:
        """Persistent writer-side state shared across WRITEs (writer 0)."""

    def make_writer_state_for(self, config: SystemConfig,
                              writer_index: int = 0) -> Any:
        """Persistent state of writer ``writer_index`` (MWMR).

        The default stamps ``writer_index`` on the writer-0 state, which
        every MWMR-capable state exposes as an attribute; protocols whose
        states lack it are single-writer only and refuse other indices.
        """
        state = self.make_writer_state(config)
        if writer_index == 0:
            return state
        if not hasattr(state, "writer_index"):
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"{self.name} supports a single writer only")
        state.writer_index = writer_index
        return state

    @abstractmethod
    def make_reader_state(self, config: SystemConfig, reader_index: int) -> Any:
        """Persistent reader-side state shared across that reader's READs."""

    @abstractmethod
    def make_write(self, writer_state: Any, value: Any) -> ClientOperation:
        """A WRITE(v) operation automaton."""

    @abstractmethod
    def make_read(self, reader_state: Any) -> ClientOperation:
        """A READ() operation automaton."""

    # -- register-addressed factories ------------------------------------------
    # One replica set multiplexes many SWMR registers: client states are
    # per-register (the caller keys them by register id) and the operation
    # stamps its register id on every message it sends.  The single-register
    # methods above are the ``register_id == DEFAULT_REGISTER`` special case.

    def make_write_to(self, writer_state: Any, value: Any,
                      register_id: str = DEFAULT_REGISTER) -> ClientOperation:
        """A WRITE(v) operation addressing ``register_id``.

        ``writer_state`` must be the state of *that register's* writer
        (one :meth:`make_writer_state` product per register).
        """
        operation = self.make_write(writer_state, value)
        operation.register_id = register_id
        return operation

    def make_read_from(self, reader_state: Any,
                       register_id: str = DEFAULT_REGISTER) -> ClientOperation:
        """A READ() operation addressing ``register_id``."""
        operation = self.make_read(reader_state)
        operation.register_id = register_id
        return operation

    def make_install_read(self, reader_state: Any) -> ClientOperation:
        """Replica repair's READ: one naming the tuple it returned
        (``install_frame``) and leaving no lease behind."""
        return self.make_read(reader_state)

    # -- description --------------------------------------------------------------
    def client_states(self, config: SystemConfig) -> "RegisterClientStates":
        """A lazy per-register pool of this protocol's client states."""
        return RegisterClientStates(self, config)

    def describe(self) -> str:
        auth = "authenticated" if self.requires_authentication else \
            "unauthenticated"
        rw = "readers write" if self.readers_write else "passive readers"
        return (f"{self.name}: {self.semantics} semantics, "
                f"W<={self.write_rounds_worst_case}r / "
                f"R<={self.read_rounds_worst_case}r, {auth}, {rw}")


class RegisterClientStates:
    """Lazily created per-register writer/reader states of one system.

    Every facade that multiplexes registers (simulator, asyncio storage,
    service store) needs the same bookkeeping: one writer state per
    register and one reader state per (register, reader), created on
    first use.  This owns it once.

    It also owns the tag leases of the fast-read path: one
    :class:`~repro.automata.rounds.LeaseTable` entry per register, which
    every reader state of the pool reads through once fast reads are on
    (service-tier opt-in on a capable protocol).
    """

    def __init__(self, protocol: StorageProtocol, config: SystemConfig):
        self.protocol = protocol
        self.config = config
        self._writers: Dict[Tuple[str, int], Any] = {}
        self._readers: Dict[Tuple[str, int], Any] = {}
        self.leases = LeaseTable()

    def enable_fast_reads(self) -> None:
        """Turn the lease-probe fast path on for this pool's readers."""
        if not self.protocol.supports_fast_reads:
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"{self.protocol.name} does not support fast reads")
        self.leases.enabled = True
        for state in self._readers.values():
            state.leases = self.leases

    def writer(self, register_id: str = DEFAULT_REGISTER,
               writer_index: int = 0) -> Any:
        key = (register_id, writer_index)
        state = self._writers.get(key)
        if state is None:
            state = self._writers[key] = \
                self.protocol.make_writer_state_for(self.config, writer_index)
        return state

    def reader(self, register_id: str = DEFAULT_REGISTER,
               reader_index: int = 0) -> Any:
        key = (register_id, reader_index)
        state = self._readers.get(key)
        if state is None:
            state = self._readers[key] = \
                self.protocol.make_reader_state(self.config, reader_index)
            if self.leases.enabled:
                state.leases = self.leases
        return state

    def registers(self) -> List[str]:
        """Register ids any client state has been created for."""
        return sorted({rid for rid, _ in self._writers}
                      | {rid for rid, _ in self._readers})
