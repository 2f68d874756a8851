"""The delivery tail's lane record: ``_Lanes.take`` / ``_Lanes.concat``.

The record follows :class:`~repro.net.soa.SoAInbox`'s conventions: a
scalar kind stays scalar, an absent optional lane stays ``None`` and is
never materialised, and a lane one part lacks is filled only when another
part carries it.  These are the rules the packed round, the local split
and the local prepend all rely on.
"""

import numpy as np
import pytest

from repro.net.batch import KINDS, MessageBatch
from repro.net.message import Message
from repro.net.network import (
    BatchProtocolNode,
    CapacityPolicy,
    ProtocolNode,
    SyncNetwork,
    _Lanes,
)


def col(*values, dtype=np.int64):
    return np.array(values, dtype=dtype)


def plain(rcv, snd, kinds=3, pay=None, **lanes):
    rcv = col(*rcv)
    pay = rcv * 10 if pay is None else col(*pay)
    return _Lanes(rcv, col(*snd), kinds, pay, **lanes)


class TestTake:
    def test_scalar_kind_and_absent_lanes_survive(self):
        lanes = plain([4, 5, 6], [0, 1, 2])
        got = lanes.take(np.array([2, 0]))
        assert got.kinds == 3 and type(got.kinds) is int
        assert got.rcv.tolist() == [6, 4]
        assert got.snd.tolist() == [2, 0]
        assert got.pay.tolist() == [60, 40]
        assert got.ok is None and got.pay2 is None
        assert got.has2 is None and got.objs is None

    def test_every_present_lane_is_gathered(self):
        m = Message(1, 4, "x", 7)
        lanes = plain(
            [4, 5, 6],
            [1, 1, 2],
            kinds=col(1, 2, 3),
            ok=col(True, False, True, dtype=bool),
            pay2=col(7, 8, 9),
            has2=col(True, True, False, dtype=bool),
            objs=[m, None, None],
        )
        got = lanes.take(np.array([1, 0]))
        assert got.kinds.tolist() == [2, 1]
        assert got.ok.tolist() == [False, True]
        assert got.pay2.tolist() == [8, 7]
        assert got.has2.tolist() == [True, True]
        assert got.objs == [None, m]

    def test_results_are_fresh_arrays(self):
        # The layout cache reads identity as "unchanged since verified";
        # any row selection must therefore break identity.
        lanes = plain([4, 5], [0, 1])
        got = lanes.take(np.arange(2))
        assert got.rcv is not lanes.rcv and got.snd is not lanes.snd

    def test_take_rows_uses_given_key_columns(self):
        lanes = plain([4, 5, 6], [0, 1, 2])
        rcv_s, snd_s = col(9, 9), col(8, 8)
        got = lanes.take_rows(np.array([2, 1]), rcv_s, snd_s)
        assert got.rcv is rcv_s and got.snd is snd_s
        assert got.pay.tolist() == [60, 50]


class TestConcat:
    def test_single_nonempty_part_keeps_identity(self):
        lanes = plain([4, 5], [0, 1])
        empty = lanes.take(np.empty(0, dtype=np.int64))
        assert _Lanes.concat([empty, lanes, empty]) is lanes

    def test_equal_scalar_kinds_stay_scalar(self):
        got = _Lanes.concat([plain([1], [0]), plain([2, 3], [1, 1])])
        assert got.kinds == 3 and type(got.kinds) is int
        assert got.rcv.tolist() == [1, 2, 3]
        assert got.pay.tolist() == [10, 20, 30]

    def test_mixed_kinds_materialise_a_column(self):
        got = _Lanes.concat(
            [plain([1], [0], kinds=2), plain([2, 3], [1, 1], kinds=col(5, 6))]
        )
        assert got.kinds.dtype == np.int64
        assert got.kinds.tolist() == [2, 5, 6]
        got = _Lanes.concat([plain([1], [0], kinds=2), plain([2], [1], kinds=4)])
        assert got.kinds.tolist() == [2, 4]

    def test_absent_lanes_stay_none(self):
        got = _Lanes.concat([plain([1], [0]), plain([2], [1])])
        assert got.ok is None and got.pay2 is None
        assert got.has2 is None and got.objs is None

    def test_pay2_zero_fills_and_has2_marks_carriers(self):
        got = _Lanes.concat(
            [plain([1, 2], [0, 0], pay2=col(7, 8)), plain([3], [1])]
        )
        assert got.pay2.tolist() == [7, 8, 0]
        assert got.has2.tolist() == [True, True, False]

    def test_has2_absent_when_every_row_carries_pay2(self):
        got = _Lanes.concat(
            [plain([1], [0], pay2=col(7)), plain([2], [1], pay2=col(8))]
        )
        assert got.pay2.tolist() == [7, 8]
        assert got.has2 is None

    def test_partial_has2_is_kept(self):
        got = _Lanes.concat(
            [
                plain([1, 2], [0, 0], pay2=col(7, 0), has2=col(True, False, dtype=bool)),
                plain([3], [1], pay2=col(9)),
            ]
        )
        assert got.has2.tolist() == [True, False, True]

    def test_ok_ones_fills_only_when_some_part_carries_it(self):
        got = _Lanes.concat(
            [plain([1], [0]), plain([2, 3], [1, 1], ok=col(False, True, dtype=bool))]
        )
        assert got.ok.dtype == np.bool_
        assert got.ok.tolist() == [True, False, True]

    def test_objs_filled_with_none_on_mixed_object_batch_rounds(self):
        a, b = Message(0, 1, "x", 1), Message(0, 2, "x", 2)
        objects = _Lanes.from_messages([a, b], 0, codes=True)
        batch = plain([3], [1])
        got = _Lanes.concat([objects, batch])
        assert got.objs == [a, b, None]
        got = _Lanes.concat([batch, objects])
        assert got.objs == [None, a, b]


class TestFromMessages:
    def test_without_codes_objects_travel_alone(self):
        msgs = [Message(2, 5, "x", "not-an-int")]
        lanes = _Lanes.from_messages(msgs, 2, codes=False)
        assert lanes.rcv.tolist() == [5] and lanes.snd.tolist() == [2]
        assert lanes.pay is None and lanes.objs is msgs

    def test_payload_lanes(self):
        msgs = [
            Message(0, 1, "x", 4),
            Message(0, 2, "x", (5, 6)),
            Message(0, 3, "x", "bad"),
        ]
        lanes = _Lanes.from_messages(msgs, 0, codes=True)
        assert lanes.pay.tolist() == [4, 5, 0]
        assert lanes.pay2.tolist() == [0, 6, 0]
        assert lanes.has2.tolist() == [False, True, False]
        assert lanes.ok.tolist() == [True, True, False]

    def test_int_payloads_leave_optional_lanes_absent(self):
        lanes = _Lanes.from_messages([Message(0, 1, "x", 4)], 0, codes=True)
        assert lanes.ok is None and lanes.pay2 is None and lanes.has2 is None


class _Emit(BatchProtocolNode):
    """Round 0: one message to each target, with or without a pair lane."""

    def __init__(self, node_id, targets, pair):
        super().__init__(node_id)
        self.targets = targets
        self.pair = pair

    def on_round_batch(self, round_no, inbox):
        if round_no:
            return None
        k = len(self.targets)
        return MessageBatch._raw(
            self.node_id,
            np.array(self.targets, dtype=np.int64),
            KINDS.code("pair" if self.pair else "plain"),
            np.full(k, 40 + self.node_id, dtype=np.int64),
            np.full(k, 50 + self.node_id, dtype=np.int64) if self.pair else None,
        )


class _BatchSink(BatchProtocolNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.inboxes = []

    def on_round_batch(self, round_no, inbox):
        if len(inbox):
            p2 = inbox.payloads2
            self.inboxes.append(
                (
                    inbox.senders_array().tolist(),
                    inbox.payloads.tolist(),
                    None if p2 is None else p2.tolist(),
                )
            )
        return None


class _ObjectSink(ProtocolNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def on_round(self, round_no, inbox):
        self.seen.extend((m.sender, m.kind, m.payload) for m in inbox)
        return []


@pytest.mark.parametrize("engine", ["legacy", "vectorized"])
def test_pair_lane_presence_is_per_row_on_mixed_batch_rounds(engine):
    # Node 0 sends pairs, node 1 plain ints, in the same round: the packed
    # round carries pay2 with a has2 mask.  Object receivers see tuples
    # only for pair rows; a batch inbox gets the lane iff some row has it.
    nodes = {
        0: _Emit(0, [2, 3], pair=True),
        1: _Emit(1, [2, 3, 4], pair=False),
        2: _ObjectSink(2),
        3: _BatchSink(3),
        4: _BatchSink(4),
    }
    net = SyncNetwork(
        nodes, CapacityPolicy.unbounded(), np.random.default_rng(0), engine=engine
    )
    net.run_round()
    net.run_round()
    assert nodes[2].seen == [(0, "pair", (40, 50)), (1, "plain", 41)]
    assert nodes[3].inboxes == [([0, 1], [40, 41], [50, 0])]
    assert nodes[4].inboxes == [([1], [41], None)]
