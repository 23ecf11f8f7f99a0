"""reprolint: rule fixtures, framework behaviour, and the fixes it drove.

Three layers:

* fixture-based self-tests -- for every rule, a known-bad snippet must
  flag and a known-good snippet must pass;
* a meta-test asserting the shipped tree is reprolint-clean, plus a
  kind-byte stability snapshot of the binary codec registry;
* regression tests for the true-positive findings this lint surfaced
  (slots sweep, PushUpdate codec, claim-first lifecycle flags,
  serialized TCP reconnects, executor'd blocking calls).
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.analysis import core as lint_core
from repro.analysis import cli as lint_cli
from repro.analysis.rules_chaos import strategy_registry_findings
from repro.analysis.rules_registry import (_is_canonical, _live_subclasses,
                                           batch_parity_findings,
                                           vocab_findings)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run(coro):
    return asyncio.run(coro)


def lint_file(tmp_path, relpath: str, text: str, select=None):
    """Write ``text`` under ``tmp_path/relpath`` and lint just that tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return lint_core.run_analysis([tmp_path], select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# framework: suppressions, reporters, CLI
# ---------------------------------------------------------------------------


class TestFramework:
    def test_suppression_with_reason_silences(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # reprolint: ok[blocking-async] -- test fixture\n"
        ))
        assert findings == []

    def test_bare_suppression_is_a_finding(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # reprolint: ok[blocking-async]\n"
        ))
        assert "bare-suppression" in rule_ids(findings)

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # reprolint: ok[some-other-rule] -- nope\n"
        ))
        assert "blocking-async" in rule_ids(findings)

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", "def broken(:\n")
        assert rule_ids(findings) == ["syntax-error"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "mod.py").write_text(
            "import time\nasync def f():\n    time.sleep(1)\n")
        good = tmp_path / "good"
        good.mkdir()
        (good / "mod.py").write_text("x = 1\n")
        assert lint_cli.main([str(bad)]) == 1
        assert lint_cli.main([str(good)]) == 0
        assert lint_cli.main(["--select", "no-such-rule", str(good)]) == 2
        assert lint_cli.main(["--list-rules"]) == 0
        capsys.readouterr()

    def test_cli_json_report(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import time\nasync def f():\n    time.sleep(1)\n")
        assert lint_cli.main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "blocking-async"

    def test_select_restricts_rules(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)\n"
        ), select=["await-race"])
        assert findings == []


# ---------------------------------------------------------------------------
# blocking-call-in-async lint
# ---------------------------------------------------------------------------


class TestBlockingAsync:
    @pytest.mark.parametrize("call", [
        "os.fsync(fd)",
        "time.sleep(0.1)",
        "subprocess.run(['ls'])",
        "shutil.rmtree(path)",
        "self._fh.flush()",
        "self.process.join(timeout=1.0)",
    ])
    def test_flags_blocking_calls(self, tmp_path, call):
        findings = lint_file(tmp_path, "mod.py", (
            "import os, time, subprocess, shutil\n"
            "class C:\n"
            "    async def f(self, fd, path):\n"
            f"        {call}\n"
        ), select=["blocking-async"])
        assert rule_ids(findings) == ["blocking-async"]

    def test_sync_def_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import time\n"
            "def f():\n"
            "    time.sleep(1)\n"
        ), select=["blocking-async"])
        assert findings == []

    def test_run_in_executor_thunk_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import asyncio, os\n"
            "async def f(fd):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, os.fsync, fd)\n"
        ), select=["blocking-async"])
        assert findings == []

    def test_nested_sync_def_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import os\n"
            "async def f(fd):\n"
            "    def thunk():\n"
            "        os.fsync(fd)\n"
            "    return thunk\n"
        ), select=["blocking-async"])
        assert findings == []

    def test_awaited_start_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "async def f(proc):\n"
            "    await proc.start()\n"
        ), select=["blocking-async"])
        assert findings == []

    def test_gather_arg_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "import asyncio\n"
            "async def f(procs):\n"
            "    await asyncio.gather(*(proc.start() for proc in procs))\n"
        ), select=["blocking-async"])
        assert findings == []


# ---------------------------------------------------------------------------
# await-interleaving race detector
# ---------------------------------------------------------------------------


class TestAwaitRace:
    BAD = (
        "class Store:\n"
        "    async def start(self):\n"
        "        if self._started:\n"
        "            return\n"
        "        await self._open()\n"
        "        self._started = True\n"
    )

    def test_flags_read_check_act_across_await(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", self.BAD,
                             select=["await-race"])
        assert rule_ids(findings) == ["await-race"]

    def test_claim_before_await_passes(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "class Store:\n"
            "    async def start(self):\n"
            "        if self._started:\n"
            "            return\n"
            "        self._started = True\n"
            "        await self._open()\n"
        ), select=["await-race"])
        assert findings == []

    def test_lock_held_across_sequence_passes(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "class Store:\n"
            "    async def start(self):\n"
            "        async with self._lock:\n"
            "            if self._started:\n"
            "                return\n"
            "            await self._open()\n"
            "            self._started = True\n"
        ), select=["await-race"])
        assert findings == []

    def test_rollback_in_except_passes(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "class Store:\n"
            "    async def start(self):\n"
            "        if self._started:\n"
            "            return\n"
            "        self._started = True\n"
            "        try:\n"
            "            await self._open()\n"
            "        except BaseException:\n"
            "            self._started = False\n"
            "            raise\n"
        ), select=["await-race"])
        assert findings == []

    def test_plain_function_not_scanned(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "class Store:\n"
            "    def start(self):\n"
            "        if self._started:\n"
            "            return\n"
            "        self._started = True\n"
        ), select=["await-race"])
        assert findings == []


# ---------------------------------------------------------------------------
# determinism lint
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_random_in_scope(self, tmp_path):
        findings = lint_file(tmp_path, "repro/sim/mod.py", (
            "import random\n"
            "x = random.random()\n"
            "rng = random.Random()\n"
        ), select=["det-unseeded-random"])
        assert rule_ids(findings) == ["det-unseeded-random"] * 2

    def test_seeded_random_passes(self, tmp_path):
        findings = lint_file(tmp_path, "repro/sim/mod.py", (
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.random()\n"
        ), select=["det-unseeded-random"])
        assert findings == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "somewhere/else.py", (
            "import random, time\n"
            "x = random.random()\n"
            "t = time.time()\n"
        ), select=["det-unseeded-random", "det-wall-clock"])
        assert findings == []

    def test_wall_clock_in_scope(self, tmp_path):
        findings = lint_file(tmp_path, "repro/harness/mod.py", (
            "import time\n"
            "t = time.time()\n"
        ), select=["det-wall-clock"])
        assert rule_ids(findings) == ["det-wall-clock"]

    def test_perf_counter_passes(self, tmp_path):
        findings = lint_file(tmp_path, "repro/harness/mod.py", (
            "import time\n"
            "t = time.perf_counter()\n"
            "m = time.monotonic()\n"
        ), select=["det-wall-clock"])
        assert findings == []

    def test_set_iteration_in_scope(self, tmp_path):
        findings = lint_file(tmp_path, "repro/core/mod.py", (
            "def f(items):\n"
            "    pending = set(items)\n"
            "    out = []\n"
            "    for x in pending:\n"
            "        out.append(x)\n"
            "    return out\n"
        ), select=["det-set-iter"])
        assert rule_ids(findings) == ["det-set-iter"]

    def test_sorted_set_iteration_passes(self, tmp_path):
        findings = lint_file(tmp_path, "repro/core/mod.py", (
            "def f(items):\n"
            "    pending = set(items)\n"
            "    return [x for x in sorted(pending)]\n"
        ), select=["det-set-iter"])
        assert findings == []

    def test_chaos_package_is_in_scope(self, tmp_path):
        # The chaos harness promises seed -> bit-identical runs, so it
        # lives under the same determinism rules as the kernel.
        findings = lint_file(tmp_path, "repro/chaos/mod.py", (
            "import random, time\n"
            "x = random.random()\n"
            "t = time.time()\n"
        ), select=["det-unseeded-random", "det-wall-clock"])
        assert sorted(rule_ids(findings)) == [
            "det-unseeded-random", "det-wall-clock"]


# ---------------------------------------------------------------------------
# registry rules
# ---------------------------------------------------------------------------


class TestRegistrySlots:
    def test_unslotted_dataclass_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "from dataclasses import dataclass\n"
            "from repro.messages import Message\n"
            "@dataclass(frozen=True)\n"
            "class Ping(Message):\n"
            "    nonce: int\n"
        ), select=["registry-slots"])
        assert rule_ids(findings) == ["registry-slots"]

    def test_slotted_dataclass_passes(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "from dataclasses import dataclass\n"
            "from repro.messages import Message\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Ping(Message):\n"
            "    nonce: int\n"
        ), select=["registry-slots"])
        assert findings == []

    def test_explicit_slots_passes(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "from repro.messages import Message\n"
            "class Ping(Message):\n"
            "    __slots__ = ('nonce',)\n"
        ), select=["registry-slots"])
        assert findings == []


class TestBatchDispatch:
    def test_direct_call_flagged(self, tmp_path):
        findings = lint_file(tmp_path, "mod.py", (
            "def f(automaton, sender, parts, sink):\n"
            "    return automaton.handle_batch(sender, parts, sink)\n"
        ), select=["batch-dispatch"])
        assert rule_ids(findings) == ["batch-dispatch"]

    def test_base_module_exempt(self, tmp_path):
        findings = lint_file(tmp_path, "automata/base.py", (
            "def f(automaton, sender, parts, sink):\n"
            "    return automaton.handle_batch(sender, parts, sink)\n"
        ), select=["batch-dispatch"])
        assert findings == []


class TestVocabFindings:
    """The dynamic vocabulary check against synthetic universes."""

    def _anchor(self, cls):
        return ("fake.py", 1)

    def test_unregistered_class_flagged(self):
        class Lost:
            pass

        found = vocab_findings("registry-vocab", {Lost}, {}, self._anchor)
        assert len(found) == 1 and "Lost" in found[0].message

    def test_wire_inline_exempt(self):
        class Inline:
            wire_inline = True

        found = vocab_findings("registry-vocab", {Inline}, {}, self._anchor)
        assert found == []

    def test_fully_registered_passes(self):
        class Ok:
            pass

        found = vocab_findings("registry-vocab", {Ok}, {Ok: 99}, self._anchor)
        assert found == []

    def test_duplicate_kind_byte_flagged(self):
        class A:
            pass

        class B:
            pass

        found = vocab_findings("registry-vocab", {A, B}, {A: 7, B: 7},
                               self._anchor)
        assert len(found) == 2
        assert all("kind byte 7" in f.message for f in found)

    def test_registered_non_message_flagged(self):
        class Stranger:
            pass

        found = vocab_findings("registry-vocab", set(), {Stranger: 5},
                               self._anchor)
        assert any("not a Message subclass" in f.message for f in found)


class TestChaosStrategyFindings:
    """The chaos-strategy-registry check against synthetic wrapper sets."""

    def _anchor(self, cls):
        return ("repro/adversary/rogue.py", 3)

    def test_unregistered_wrapper_flagged(self):
        class RogueWrapper:
            pass

        found = strategy_registry_findings(
            "chaos-strategy-registry", {RogueWrapper}, {"MuteByzantine"},
            self._anchor)
        assert len(found) == 1
        assert "RogueWrapper" in found[0].message
        assert "register_strategy" in found[0].message
        assert found[0].path == "repro/adversary/rogue.py"

    def test_registered_wrapper_passes(self):
        class KnownWrapper:
            pass

        found = strategy_registry_findings(
            "chaos-strategy-registry", {KnownWrapper}, {"KnownWrapper"},
            self._anchor)
        assert found == []

    def test_wrapper_outside_analyzed_set_skipped(self):
        # Test fixtures and scratch files anchor to None: the rule only
        # polices wrappers that live in the analyzed tree.
        class FixtureWrapper:
            pass

        found = strategy_registry_findings(
            "chaos-strategy-registry", {FixtureWrapper}, set(),
            lambda cls: None)
        assert found == []

    def test_live_registry_covers_shipped_wrappers(self):
        # The shipped tree must be clean under the live rule inputs.
        from repro.adversary.byzantine import ByzantineWrapper
        from repro.chaos.strategies import registered_wrapper_names
        shipped = {cls for cls in _live_subclasses(ByzantineWrapper)
                   if cls.__module__.startswith("repro.")}
        missing = {cls.__name__ for cls in shipped} - set(
            registered_wrapper_names())
        assert missing == set()


class TestBatchParityFindings:
    def _anchor(self, cls):
        return ("fake.py", 1)

    def _hierarchy(self, opt_in: bool):
        class Base:
            def on_message(self):
                pass

            def handle_batch(self):
                pass

        class Fast(Base):
            def handle_batch(self):
                pass

        class Override(Fast):
            _on_message_batch_compatible = opt_in

            def on_message(self):
                pass

        return Base, Override

    def test_override_below_fast_path_flagged(self):
        base, override = self._hierarchy(opt_in=False)
        found = batch_parity_findings("batch-parity", {override}, base,
                                      self._anchor)
        assert len(found) == 1 and "Override" in found[0].message

    def test_opt_in_passes(self):
        base, override = self._hierarchy(opt_in=True)
        found = batch_parity_findings("batch-parity", {override}, base,
                                      self._anchor)
        assert found == []

    def test_generic_loop_passes(self):
        class Base:
            def on_message(self):
                pass

            def handle_batch(self):
                pass

        class Plain(Base):
            def on_message(self):
                pass

        found = batch_parity_findings("batch-parity", {Plain}, Base,
                                      self._anchor)
        assert found == []


# ---------------------------------------------------------------------------
# the shipped tree
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_tree_is_reprolint_clean(self):
        findings = lint_core.run_analysis([SRC, REPO / "benchmarks"])
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

    def test_kind_byte_registry_snapshot(self):
        """A reused or silently renumbered kind byte is a wire break."""
        import repro.runtime.codec as codec
        import repro.baselines.abd.protocol  # noqa: F401  (registration)
        import repro.sim.server_centric  # noqa: F401

        expected = {
            # core vocabulary (kinds < 64 are reserved for it)
            "Pw": 1, "W": 2, "PwAck": 3, "WriteAck": 4,
            "TagQuery": 5, "TagQueryAck": 6,
            "EpochFence": 7, "EpochFenceAck": 8, "WriteFenced": 9,
            "ReadRequest": 10, "ReadAck": 11, "HistoryReadAck": 12,
            "Batch": 13, "LeaseProbe": 14, "LeaseProbeAck": 15,
            # extension vocabularies (>= 64)
            "AbdStore": 64, "AbdStoreAck": 65,
            "AbdQuery": 66, "AbdQueryAck": 67,
            "AuthStore": 68, "AuthStoreAck": 69,
            "AuthQuery": 70, "AuthQueryAck": 71,
            "WriteBack": 72, "WriteBackAck": 73,
            "PushUpdate": 74,
        }
        actual = {cls.__name__: kind
                  for cls, kind in codec._BIN_KINDS.items()}
        assert actual == expected

    def test_every_message_subclass_is_slotted(self):
        import repro.messages as messages

        # walk_packages via the vocab rule has already imported the
        # protocol modules in the clean-tree test; import the stragglers
        # explicitly so this test stands alone too.
        import repro.baselines.abd.protocol  # noqa: F401
        import repro.baselines.authenticated.protocol  # noqa: F401
        import repro.core.atomic.protocol  # noqa: F401
        import repro.sim.server_centric  # noqa: F401

        unslotted = sorted(
            cls.__name__
            for cls in _live_subclasses(messages.Message)
            if "__slots__" not in cls.__dict__
            and cls.__module__.startswith("repro.")
        )
        assert unslotted == []

    def test_canonical_filter_drops_pre_slots_ghosts(self):
        import repro.messages as messages

        # Test modules define throwaway Message subclasses too; only the
        # package's own ghosts are guaranteed a canonical twin.
        ghosts = [cls for cls in messages.Message.__subclasses__()
                  if not _is_canonical(cls)
                  and cls.__module__.startswith("repro.")]
        for ghost in ghosts:  # every pre-slots ghost has a canonical twin
            assert any(c.__name__ == ghost.__name__ and c is not ghost
                       for c in messages.Message.__subclasses__())


# ---------------------------------------------------------------------------
# regression tests for fixed findings
# ---------------------------------------------------------------------------


class TestPushUpdateCodec:
    """PushUpdate was a registered-nowhere wire message (registry-vocab)."""

    def test_binary_roundtrip(self):
        from repro.runtime.codec import (decode_message_binary,
                                         encode_message_binary)
        from repro.sim.server_centric import PushUpdate
        from repro.types import BOTTOM, TimestampValue

        for tsval in (TimestampValue(7, "v7", wid=2),
                      TimestampValue(0, BOTTOM)):
            m = PushUpdate(object_index=5, tsval=tsval)
            assert decode_message_binary(encode_message_binary(m)) == m


class TestHarnessClock:
    """The harness CLI read the wall clock (det-wall-clock)."""

    def test_uses_measurement_clock(self):
        source = (SRC / "repro" / "harness" / "__main__.py").read_text()
        assert "time.time(" not in source
        assert "time.perf_counter(" in source


class TestLifecycleClaimFirst:
    """start() read-check-act races (await-race): claim-first fixes."""

    def test_concurrent_sharded_start_starts_each_shard_once(self):
        from repro.config import SystemConfig
        from repro.core.regular import CachedRegularStorageProtocol
        from repro.service import MultiRegisterStore, ShardedKVStore

        config = SystemConfig.optimal(t=1, b=1, num_readers=2)
        calls = []
        original = MultiRegisterStore.start

        async def counting_start(self):
            calls.append(self)
            await asyncio.sleep(0)  # widen the interleaving window
            return await original(self)

        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            MultiRegisterStore.start = counting_start
            try:
                await asyncio.gather(kv.start(), kv.start(), kv.start())
            finally:
                MultiRegisterStore.start = original
            await kv.stop()

        run(scenario())
        assert len(calls) == 2  # one per shard, despite 3 racing starts

    def test_concurrent_tcp_server_stop_closes_once(self):
        from repro.runtime.tcp import TcpObjectServer

        class FakeServer:
            def __init__(self):
                self.closes = 0

            def close(self):
                self.closes += 1

            async def wait_closed(self):
                await asyncio.sleep(0.005)

        async def scenario():
            server = TcpObjectServer.__new__(TcpObjectServer)
            fake = FakeServer()
            server._server = fake
            server._connections = {}
            await asyncio.gather(server.stop(), server.stop())
            return fake

        fake = run(scenario())
        assert fake.closes == 1

    def test_concurrent_replica_stop_closes_pipe_once(self):
        from repro.service.procs import ReplicaProcess

        class FakeProc:
            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

        class FakeConn:
            def __init__(self):
                self.sends = 0
                self.closes = 0

            def send(self, what):
                self.sends += 1

            def close(self):
                self.closes += 1

        async def scenario():
            rp = ReplicaProcess.__new__(ReplicaProcess)
            rp.process = FakeProc()
            conn = FakeConn()
            rp.conn = conn
            await asyncio.gather(rp.stop(), rp.stop())
            return conn

        conn = run(scenario())
        assert conn.sends == 1 and conn.closes == 1


class TestReconnectSerialization:
    """Concurrent TcpStorageClient reconnects opened duplicate sockets."""

    def test_racing_reconnects_share_one_socket(self, monkeypatch):
        from repro.runtime.tcp import TcpStorageClient
        from repro.types import reader

        class FakeReader:
            async def readexactly(self, n):
                raise ConnectionResetError

            async def read(self, n=-1):
                raise ConnectionResetError

        class FakeWriter:
            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        opened = []

        async def fake_open_connection(host, port):
            await asyncio.sleep(0.005)  # both racers reach the lock
            pair = (FakeReader(), FakeWriter())
            opened.append(pair)
            return pair

        async def scenario():
            client = TcpStorageClient(reader(0), [("127.0.0.1", 1)])
            broken = FakeWriter()
            client._connections = [(FakeReader(), broken)]
            monkeypatch.setattr(asyncio, "open_connection",
                                fake_open_connection)
            winners = await asyncio.gather(
                client._reconnect(0, broken),
                client._reconnect(0, broken))
            for task in client._pumps:
                task.cancel()
            await asyncio.gather(*client._pumps, return_exceptions=True)
            return winners, broken

        winners, broken = run(scenario())
        assert len(opened) == 1  # exactly one replacement socket
        assert winners[0] is winners[1]  # the loser adopted the winner's
        assert broken.closed


class TestMypyConfig:
    def test_pyproject_declares_strict_leaf_modules(self):
        import tomllib

        config = tomllib.loads((REPO / "pyproject.toml").read_text())
        mypy = config["tool"]["mypy"]
        overrides = mypy["overrides"]
        strict = set(overrides[0]["module"])
        assert {"repro.types", "repro.messages", "repro.quorums",
                "repro.config", "repro.errors"} <= strict
        assert overrides[0]["disallow_untyped_defs"] is True
        scripts = config["project"]["scripts"]
        assert scripts["reprolint"] == "repro.analysis.cli:main"

    def test_mypy_clean_if_available(self):
        mypy_api = pytest.importorskip(
            "mypy.api", reason="mypy not installed in this environment")
        stdout, stderr, status = mypy_api.run(
            ["--config-file", str(REPO / "pyproject.toml")])
        assert status == 0, stdout + stderr
