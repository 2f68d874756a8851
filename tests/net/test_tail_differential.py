"""The vectorized delivery tail against the legacy oracle, every stage at once.

The tail narrows a row selection through the local split, the fault
hook and both caps, then delivers the survivors with one packed-key sort
in which dropped rows simply never appear.  Each stage has its own
suite; this one drives all of them *in the same round*:

- self-addressed rows (which bypass the network and lead each inbox),
- a fault hook dropping remote rows (as a mask or as keep-indices),
- binding send and receive caps (one truncation draw each),
- non-contiguous node ids in a shuffled insertion order,
- object and batch nodes side by side, with integer and pair payloads,

and asserts identical inboxes, metrics and delivery-RNG state between
the legacy and vectorized engines.  An SoA population (contiguous ids)
runs the same kind of rounds against the object-node oracle, serially
and on the sharded sort.
"""

import numpy as np
import pytest

from repro.net.batch import KINDS, MessageBatch
from repro.net.message import Message
from repro.net.network import (
    BatchProtocolNode,
    CapacityPolicy,
    ProtocolNode,
    SoAProtocolClass,
    SyncNetwork,
)
from repro.net.shard import fork_available
from repro.obs import Tracer

N = 20
ROUNDS = 6
SEEDS = range(8)
CAPACITY = CapacityPolicy(max_send=5, max_receive=4)


def make_plan(seed: int, ids: list[int], pairs: bool, local: bool = True):
    """Per-node sends for every round: self-addressed rows (unless
    ``local`` is off), a chatty sender over the send cap, and a hot
    receiver over the receive cap.  Without local rows every message is
    a ``ping``, so an SoA round is eligible for the sharded sort."""
    rng = np.random.default_rng(seed * 7919 + 3)
    hot = ids[int(rng.integers(len(ids)))]
    chatty = ids[int(rng.integers(len(ids)))]
    payload = 0
    plan = {v: [] for v in ids}
    for _ in range(ROUNDS):
        for v in ids:
            k = int(rng.integers(1, 5)) + (9 if v == chatty else 0)
            sends = []
            for _ in range(k):
                u = rng.random()
                receiver = v if u < 0.2 else hot if u < 0.5 else ids[int(rng.integers(len(ids)))]
                if receiver == v and not local:
                    receiver = ids[(ids.index(v) + 1) % len(ids)]
                kind = "ping" if rng.random() < 0.6 or not local else "pong"
                body = (payload, -payload) if pairs and rng.random() < 0.3 else payload
                sends.append((receiver, kind, body))
                payload += 1
            plan[v].append(sends)
    return plan


def drop_hook(round_no, senders, receivers):
    """Oblivious drops: a fixed hash of (sender, receiver, round), as a
    mask on even rounds and as ascending keep-indices on odd ones."""
    keep = (senders * 7 + receivers * 3 + round_no) % 5 != 0
    return keep if round_no % 2 == 0 else np.flatnonzero(keep)


class ObjectNode(ProtocolNode):
    def __init__(self, node_id, sends):
        super().__init__(node_id)
        self.sends = sends
        self.log = []

    def on_round(self, round_no, inbox):
        self.log.append([(m.sender, m.kind, m.payload) for m in inbox])
        if round_no >= len(self.sends):
            return []
        return [Message(self.node_id, r, k, p) for r, k, p in self.sends[round_no]]


class BatchNode(BatchProtocolNode):
    def __init__(self, node_id, sends):
        super().__init__(node_id)
        self.sends = sends
        self.log = []

    def on_round_batch(self, round_no, inbox):
        self.log.append([(m.sender, m.kind, m.payload) for m in inbox.to_messages()])
        if round_no >= len(self.sends) or not self.sends[round_no]:
            return None
        msgs = [Message(self.node_id, r, k, p) for r, k, p in self.sends[round_no]]
        return MessageBatch.from_messages(msgs)


class SoAScripted(SoAProtocolClass):
    """The plan as one SoA population (ids ``0..n-1``)."""

    def __init__(self, n, plan):
        super().__init__(n)
        self.plan = plan
        self.log = {v: [] for v in range(n)}

    def on_round_soa(self, round_no, inbox):
        for v, msgs in enumerate(inbox.to_node_lists(self.n)):
            self.log[v].append(msgs)
        if round_no >= ROUNDS:
            return None
        rows = [(v, *send) for v in range(self.n) for send in self.plan[v][round_no]]
        kinds = {KINDS.code(r[2]) for r in rows}
        return MessageBatch(
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64),
            kinds.pop() if len(kinds) == 1 else [KINDS.code(r[2]) for r in rows],
            np.array([r[3] for r in rows], dtype=np.int64),
        )


def run_nodes(plan, ids, engine, seed, batch_every=2, traced=False):
    """Object and batch nodes alternating in insertion order; returns
    the inbox logs, metrics, delivery-RNG state (and, when ``traced``,
    the per-round metrics view)."""
    nodes = {
        v: (BatchNode if i % batch_every == 0 else ObjectNode)(v, plan[v])
        for i, v in enumerate(ids)
    }
    rng = np.random.default_rng(seed)
    net = SyncNetwork(
        nodes,
        CAPACITY,
        rng,
        engine=engine,
        fault_hook=drop_hook,
        tracer=Tracer() if traced else None,
    )
    for _ in range(ROUNDS + 1):
        net.run_round()
    logs = {v: nodes[v].log for v in ids}
    out = (logs, net.metrics.as_dict(), rng.bit_generator.state)
    return out + (net.metrics.per_round,) if traced else out


def gappy_ids(seed: int) -> list[int]:
    """Non-contiguous ids in a shuffled insertion order."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * N, size=N, replace=False)) + 5
    return [int(v) for v in rng.permutation(ids)]


class TestMixedRoundDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_legacy_and_vectorized_identical(self, seed):
        ids = gappy_ids(seed)
        plan = make_plan(seed, ids, pairs=True)
        logs_l, metrics_l, rng_l = run_nodes(plan, ids, "legacy", seed)
        logs_v, metrics_v, rng_v = run_nodes(plan, ids, "vectorized", seed)
        assert logs_v == logs_l
        assert metrics_v == metrics_l
        assert rng_v == rng_l

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stage_bites_in_one_round(self, seed):
        """The plan really mixes the cases the differential is about."""
        ids = gappy_ids(seed)
        logs, _, _, per_round = run_nodes(
            make_plan(seed, ids, pairs=True), ids, "vectorized", seed, traced=True
        )
        local = [
            sum(s == v for v in ids for s, _, _ in logs[v][r + 1]) for r in range(ROUNDS)
        ]
        assert any(
            local[r] and per_round.fault_drops()[r] and per_round.send_drops()[r]
            and per_round.receive_drops()[r]
            for r in range(ROUNDS)
        )
        assert ids != sorted(ids)
        assert set(ids) != set(range(len(ids)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_local_rows_lead_each_inbox(self, seed):
        ids = gappy_ids(seed)
        logs, _, _ = run_nodes(make_plan(seed, ids, pairs=True), ids, "vectorized", seed)
        for v in ids:
            for inbox in logs[v]:
                local = [s == v for s, _, _ in inbox]
                assert local == sorted(local, reverse=True)


class TestSoAMixedRoundDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("local", [True, False])
    def test_soa_matches_object_oracle(self, seed, workers, local):
        """Without self-addressed rows, ``workers=2`` takes the sharded
        sort on rounds that faults and caps have already narrowed."""
        if workers > 1 and not fork_available():
            pytest.skip("fork unavailable: the pool would run serially")
        ids = list(range(N))
        plan = make_plan(seed, ids, pairs=False, local=local)
        logs_o, metrics_o, rng_o = run_nodes(plan, ids, "legacy", seed, batch_every=N + 1)
        cls = SoAScripted(N, plan)
        rng = np.random.default_rng(seed)
        net = SyncNetwork(cls, CAPACITY, rng, fault_hook=drop_hook, workers=workers)
        for _ in range(ROUNDS + 1):
            net.run_round()
        assert cls.log == logs_o
        assert net.metrics.as_dict() == metrics_o
        assert rng.bit_generator.state == rng_o
