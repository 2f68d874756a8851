"""By-sender payload tables against materialised per-message columns.

A broadcast emitter may ship its payload lanes as per-node tables
indexed by sender (``MessageBatch(..., by_sender=True)``): message ``i``
carries ``table[senders[i]]``, and the delivery tail gathers the table
once through the receiver-sorted senders.  Every population here runs
twice under one seed: as emitted, and through a wrapper that
materialises ``table[senders]`` into the per-message columns the tail
handled before tables existed.  Both arms must deliver identical
:class:`~repro.net.soa.SoAInbox` columns every round, identical metrics,
identical round counts and an identical delivery-RNG state — serially
and on the sharded sort, with faults, binding caps, self-addressed rows
and the delay synchroniser in the loop.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.core.soa_rooting import SoARootingClass, csr_neighbors
from repro.graphs.portgraph import PortGraph
from repro.hybrid.soa_pipeline import CSRAdjacency, SoASpannerClass
from repro.net.batch import KINDS, MessageBatch
from repro.net.network import CapacityPolicy, SoAProtocolClass, SyncNetwork
from repro.net.shard import fork_available
from repro.scenarios.soa_sync import run_soa_synchroniser

SEEDS = range(10)
WORKERS = [1, 2]
UNBOUNDED = CapacityPolicy.unbounded()
BINDING = CapacityPolicy(max_send=3, max_receive=3)
BROADCAST_ROUNDS = 6


def materialise(batch):
    """``batch`` with every by-sender table gathered as ``table[senders]``."""
    if batch is None or not batch.by_sender:
        return batch
    s = batch.senders
    pay2 = batch.payloads2
    return MessageBatch._raw(
        s,
        batch.receivers,
        batch.kinds,
        None if batch.payloads is None else batch.payloads[s],
        None if pay2 is None else pay2[s],
    )


def columns(inbox):
    kinds = inbox.kinds
    return (
        inbox.senders.tolist(),
        inbox.receivers.tolist(),
        kinds.tolist() if isinstance(kinds, np.ndarray) else kinds,
        None if inbox.payloads is None else inbox.payloads.tolist(),
        None if inbox.payloads2 is None else inbox.payloads2.tolist(),
    )


class Tap(SoAProtocolClass):
    """Records every delivered inbox of ``inner``; with ``per_message``
    re-emits its by-sender batches as materialised columns (the sender
    and receiver column objects pass through, so both arms hit the
    layout cache alike)."""

    def __init__(self, inner, per_message):
        super().__init__(inner.n)
        self.inner = inner
        self.per_message = per_message
        self.inboxes = []
        self.table_rounds = 0

    def on_round_soa(self, round_no, inbox):
        self.inboxes.append(columns(inbox))
        batch = self.inner.on_round_soa(round_no, inbox)
        if batch is not None and batch.by_sender:
            self.table_rounds += 1
        return materialise(batch) if self.per_message else batch

    def is_idle(self):
        return self.inner.is_idle()


class Broadcast(SoAProtocolClass):
    """Each node sends its own ``(val, aux)`` to a fixed random fan of
    receivers, itself included unless ``local`` is off, then folds what
    it heard into both tables — so later rounds depend on exactly which
    messages survived faults and caps."""

    KIND = KINDS.code("sender-table-broadcast")

    def __init__(self, n, seed, local):
        super().__init__(n)
        rng = np.random.default_rng(seed)
        ids = np.arange(n, dtype=np.int64)
        self.senders = np.repeat(ids, rng.integers(1, 6, size=n))
        rcv = rng.integers(0, n, size=self.senders.shape[0])
        if not local:
            rcv = np.where(rcv == self.senders, (rcv + 1) % n, rcv)
        self.receivers = rcv
        self.val = rng.integers(0, 1000, size=n)
        self.aux = rng.integers(0, 1000, size=n)
        self.emitted = 0

    def on_round_soa(self, round_no, inbox):
        if len(inbox):
            np.add.at(self.val, inbox.receivers, inbox.payloads)
            np.add.at(self.aux, inbox.receivers, inbox.payloads2 ^ inbox.senders)
            self.val %= 1 << 30
        if self.emitted >= BROADCAST_ROUNDS:
            return None
        self.emitted += 1
        return MessageBatch._raw(
            self.senders, self.receivers, self.KIND, self.val, self.aux, by_sender=True
        )

    def is_idle(self):
        return self.emitted >= BROADCAST_ROUNDS


def overlay(seed, n=160):
    return PortGraph.ring_with_chords(n, delta=12, chords=2, seed=seed)


def rooting(seed):
    return SoARootingClass(*csr_neighbors(overlay(seed)), flood_rounds=10)


def spanner(seed):
    shifts = np.random.default_rng(seed).exponential(scale=2.0, size=160)
    shifts[shifts > 2.0 * np.log(160)] = -np.inf
    return SoASpannerClass(CSRAdjacency.from_graph(overlay(seed)), shifts, rounds=11)


def drop_hook(round_no, senders, receivers):
    return (senders * 7 + receivers * 3 + round_no) % 5 != 0


def run_arm(make, per_message, seed, workers, capacity=UNBOUNDED, hook=None):
    tap = Tap(make(seed), per_message)
    rng = np.random.default_rng(seed)
    net = SyncNetwork(tap, capacity, rng, fault_hook=hook, workers=workers)
    metrics = net.run(max_rounds=60)
    return tap, metrics, rng, net


def assert_arms_identical(make, seed, workers, **kw):
    if workers > 1 and not fork_available():
        pytest.skip("fork unavailable: the pool would run serially")
    tables, m_t, rng_t, net = run_arm(make, False, seed, workers, **kw)
    columns_, m_c, rng_c, _ = run_arm(make, True, seed, workers, **kw)
    assert tables.table_rounds > 0
    assert tables.inboxes == columns_.inboxes
    assert m_t.as_dict() == m_c.as_dict()
    assert m_t.rounds == m_c.rounds
    assert rng_t.bit_generator.state == rng_c.bit_generator.state
    return tables, net


class TestTablesMatchMaterialisedColumns:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_rooting_flood_and_bfs_offers(self, seed, workers):
        tap, net = assert_arms_identical(rooting, seed, workers)
        assert tap.inner.announced.all()
        if workers > 1:
            assert net._shards is not None and net._shards.op_seq > 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_spanner_broadcast(self, seed, workers):
        assert_arms_identical(spanner, seed, workers)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("local", [True, False])
    def test_faults_binding_caps_and_local_rows(self, seed, workers, local):
        _, net = assert_arms_identical(
            lambda s: Broadcast(50, s, local), seed, workers, capacity=BINDING, hook=drop_hook
        )
        m = net.metrics
        assert m.fault_drops and m.send_drops and m.receive_drops

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_layout_cache_hits_without_local_rows(self, seed, workers):
        """Unbounded, fault-free, no self-addressed rows: every round
        after the first reuses the cached layout (and, sharded, skips
        the pool's payload gather)."""
        tap, net = assert_arms_identical(lambda s: Broadcast(50, s, local=False), seed, workers)
        assert net._layout.rcv is tap.inner.receivers

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_under_the_delay_synchroniser(self, seed, workers):
        if workers > 1 and not fork_available():
            pytest.skip("fork unavailable: the pool would run serially")
        runs = []
        for per_message in (False, True):
            tap = Tap(rooting(seed), per_message)
            report, net = run_soa_synchroniser(
                tap,
                UNBOUNDED,
                np.random.default_rng(seed),
                np.random.default_rng(seed + 100),
                max_delay=4,
                max_rounds=60,
                workers=workers,
            )
            runs.append((tap.inboxes, report, net.metrics.as_dict()))
        assert runs[0] == runs[1]


class TestTableLifetime:
    @pytest.mark.parametrize("rounds", [1, 2, 5])
    def test_mutating_a_table_after_the_round_leaves_the_inbox(self, rounds):
        """The tail reads a table only inside the round that received it:
        writes to the live state column afterwards change nothing staged
        (round 1 is a cold sort, later flood rounds hit the layout)."""
        staged = []
        for per_message in (False, True):
            cls = Tap(rooting(3), per_message)
            net = SyncNetwork(cls, UNBOUNDED, np.random.default_rng(3))
            for _ in range(rounds):
                net.run_round()
            cls.inner.best[:] = -7
            staged.append(columns(net.take_staged_soa_inbox()))
        assert staged[0] == staged[1]
        assert -7 not in staged[0][3]


class OneShot(SoAProtocolClass):
    def __init__(self, n, batch):
        super().__init__(n)
        self.batch = batch

    def on_round_soa(self, round_no, inbox):
        return self.batch if round_no == 0 else None


class TestTableValidation:
    def _deliver(self, batch, n=4):
        net = SyncNetwork(OneShot(n, batch), UNBOUNDED, np.random.default_rng(0))
        net.run_round()
        return net

    @pytest.mark.parametrize("lane", ["payloads", "payloads2"])
    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_length_table_rejected(self, lane, length):
        good = np.arange(4, dtype=np.int64)
        bad = np.arange(length, dtype=np.int64)
        tables = {"payloads": good, "payloads2": good, lane: bad}
        batch = MessageBatch._raw(
            np.array([0, 1, 2]), np.array([1, 2, 3]), 0,
            tables["payloads"], tables["payloads2"], by_sender=True,
        )
        with pytest.raises(ValueError, match=f"by-sender {lane} table has shape"):
            self._deliver(batch)

    def test_public_constructor_checks_the_table(self):
        with pytest.raises(ValueError, match="needs a payload table"):
            MessageBatch([0], [1], 0, by_sender=True)
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(n,\)"):
            MessageBatch([0], [1], 0, np.zeros((2, 2)), by_sender=True)
        batch = MessageBatch([0, 0, 3], [1, 2, 0], 0, [10, 11, 12, 13], by_sender=True)
        net = self._deliver(batch)
        inbox = net.take_staged_soa_inbox()
        assert inbox.receivers.tolist() == [0, 1, 2]
        assert inbox.payloads.tolist() == [13, 10, 10]

    def test_sanitize_checks_table_dtype(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ENABLED", True)
        batch = MessageBatch._raw(
            np.array([0, 1]), np.array([1, 0]), 0,
            np.arange(4, dtype=np.int32), by_sender=True,
        )
        with pytest.raises(sanitize.SanitizeError, match="pay"):
            self._deliver(batch)
