"""Second payload lane: pair payloads on both tiers.

``MessageBatch.payloads2`` lets an SoA packet carry an ``(int64, int64)``
pair (e.g. the rooting phase's ``(depth, offerer)`` BFS offers); object
nodes send tuple payloads.  These tests pin the engine contract for
object pair traffic — legacy and vectorized delivery agree exactly,
including mixed rounds where only some messages carry pairs — and the
SoA inbox's kind filter over both lanes.
"""

import numpy as np
import pytest

from repro.net.batch import KINDS
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode, SyncNetwork
from repro.net.soa import SoAInbox

PAIR = KINDS.code("pair")
PLAIN = KINDS.code("plain")


class TestSoAInboxKindFilter:
    def test_of_kind_filters_all_columns(self):
        inbox = SoAInbox(
            np.array([0, 1, 0]),
            np.array([5, 6, 7]),
            np.array([PAIR, PLAIN, PAIR]),
            np.array([1, 2, 3]),
            np.array([10, 20, 30]),
        )
        sub = inbox.of_kind(PAIR)
        assert sub.receivers.tolist() == [5, 7]
        assert sub.payloads.tolist() == [1, 3]
        assert sub.payloads2.tolist() == [10, 30]
        assert sub.senders.tolist() == [0, 0]

    def test_of_kind_scalar_fast_paths(self):
        inbox = SoAInbox(
            np.array([0, 0]), np.array([1, 2]), PAIR, np.array([3, 4]), np.array([5, 6])
        )
        assert inbox.of_kind(PAIR) is inbox
        assert len(inbox.of_kind(PLAIN)) == 0


class ObjectPairSprayer(ProtocolNode):
    """Object node sending the same traffic as tuple payloads, plus one
    plain-int message per round (a mixed lane-presence round)."""

    def __init__(self, node_id, n, rounds):
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.log = []

    def on_round(self, round_no, inbox):
        entries = []
        for m in inbox:
            if isinstance(m.payload, tuple):
                entries.append((m.sender, m.payload[0], m.payload[1]))
            else:
                entries.append((m.sender, m.payload, 0))
        self.log.append(sorted(entries))
        if round_no >= self.rounds:
            return []
        out = [
            Message(self.node_id, u, "pair", (round_no, self.node_id))
            for u in range(self.n)
            if u != self.node_id
        ]
        out.append(Message(self.node_id, (self.node_id + 1) % self.n, "plain", round_no))
        return out

    def is_idle(self):
        return False


def _run(node_cls, n, engine, capacity, seed, rounds=4):
    nodes = {v: node_cls(v, n, rounds) for v in range(n)}
    net = SyncNetwork(nodes, capacity, np.random.default_rng(seed), engine=engine)
    for _ in range(rounds + 1):
        net.run_round()
    return {v: nodes[v].log for v in nodes}, net.metrics.as_dict()


class TestEnginesAgreeOnPairTraffic:
    @pytest.mark.parametrize(
        "capacity", [CapacityPolicy.unbounded(), CapacityPolicy(max_send=4, max_receive=3)]
    )
    def test_legacy_and_vectorized_identical(self, capacity):
        logs_l, metrics_l = _run(ObjectPairSprayer, 6, "legacy", capacity, seed=2)
        logs_v, metrics_v = _run(ObjectPairSprayer, 6, "vectorized", capacity, seed=2)
        assert metrics_l == metrics_v
        assert logs_l == logs_v
