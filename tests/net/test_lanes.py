"""The delivery tail's lane record: ``_Lanes.take`` / ``_Lanes.from_messages``.

The record follows :class:`~repro.net.soa.SoAInbox`'s conventions: a
scalar kind stays scalar and an absent optional lane stays ``None`` and
is never materialised.  An object round carries its emitted messages in
``objs`` and no payload lanes.
"""

import numpy as np

from repro.net.message import Message
from repro.net.network import _Lanes


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
        assert got.pay2 is None and got.objs is None

    def test_every_present_lane_is_gathered(self):
        lanes = plain([4, 5, 6], [1, 1, 2], kinds=col(1, 2, 3), pay2=col(7, 8, 9))
        got = lanes.take(np.array([1, 0]))
        assert got.kinds.tolist() == [2, 1]
        assert got.pay2.tolist() == [8, 7]

    def test_object_rows_are_gathered(self):
        a, b = Message(1, 4, "x", 7), Message(1, 5, "x", "any")
        lanes = _Lanes(col(4, 5), col(1, 1), objs=[a, b])
        got = lanes.take(np.array([1, 0]))
        assert got.objs == [b, a]
        assert got.pay is None and got.pay2 is None

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


class TestFromMessages:
    def test_outputs_pack_in_canonical_order(self):
        a, b = Message(7, 5, "x", "not-an-int"), Message(7, 3, "x", (1, 2))
        c = Message(9, 7, "y", 4)
        index = {7: 0, 9: 1}
        lanes = _Lanes.from_messages([(7, [a, b]), (9, [c])], index)
        assert lanes.rcv.tolist() == [5, 3, 7]
        assert lanes.snd.tolist() == [0, 0, 1]
        assert lanes.objs == [a, b, c]
        assert lanes.pay is None and lanes.pay2 is None and lanes.kinds == 0
        assert not lanes.shardable()
