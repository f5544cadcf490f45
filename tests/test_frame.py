import random

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab.frame import (Frame, FrameId, FrameKind, IdOutOfRangeError,
                           Ordering, PayloadTooLongError, arbitration_key,
                           data_frame, make_frame, priority_order, remote_frame)

from oracles import arbitration_bits, arbitration_winner


class TestFrameId:
    def test_standard_range(self):
        assert FrameId.standard(0).value == 0
        assert FrameId.standard(0x7FF).value == 0x7FF

    def test_standard_out_of_range(self):
        with pytest.raises(IdOutOfRangeError):
            FrameId.standard(0x800)

    def test_extended_range(self):
        assert FrameId.extended_id(0x1FFFFFFF).extended
        with pytest.raises(IdOutOfRangeError):
            FrameId.extended_id(1 << 29)

    def test_negative_rejected(self):
        with pytest.raises(IdOutOfRangeError):
            FrameId.standard(-1)


class TestMakeFrame:
    def test_data_frame(self):
        f = make_frame(FrameId.standard(0x123), FrameKind.DATA, [0xAB, 0xCD])
        assert f.dlc == 2 and f.payload == b"\xab\xcd"

    def test_remote_boundary_id(self):
        f = make_frame(FrameId.standard(0x7FF), FrameKind.REMOTE, 0)
        assert f.kind is FrameKind.REMOTE and f.payload == b""

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRangeError):
            make_frame(FrameId.standard(0x800), FrameKind.DATA, b"")

    def test_payload_too_long(self):
        with pytest.raises(PayloadTooLongError):
            make_frame(FrameId.standard(1), FrameKind.DATA, bytes(9))
        with pytest.raises(PayloadTooLongError):
            make_frame(FrameId.standard(1), FrameKind.REMOTE, 9)

    def test_direct_construction_validates(self):
        with pytest.raises(PayloadTooLongError):
            Frame(FrameId.standard(1), FrameKind.DATA, 2, b"\x00")
        with pytest.raises(PayloadTooLongError):
            Frame(FrameId.standard(1), FrameKind.REMOTE, 1, b"\x00")


class TestPriorityOrder:
    def test_lower_id_wins(self):
        a = data_frame(0x0A0, b"")
        b = data_frame(0x100, b"")
        assert priority_order(a, b) is Ordering.A_WINS

    def test_data_beats_remote_at_equal_id(self):
        a = data_frame(0x123, b"")
        b = remote_frame(0x123, 0)
        assert priority_order(a, b) is Ordering.A_WINS

    def test_identical_tie(self):
        a = data_frame(0x123, b"\x01")
        assert priority_order(a, a) is Ordering.TIE

    def test_standard_beats_extended_on_shared_prefix(self):
        # Same top 11 bits: the standard frame's dominant IDE decides.
        std = data_frame(0x123, b"")
        ext = data_frame(0x123 << 18, b"", extended=True)
        assert priority_order(std, ext) is Ordering.A_WINS

    def test_sampled_pairs_match_bitwise_oracle(self):
        rng = random.Random(2024)
        from oracles import random_frame
        for _ in range(500):
            a, b = random_frame(rng), random_frame(rng)
            got = priority_order(a, b)
            if got is Ordering.TIE:
                assert (a.id, a.kind) == (b.id, b.kind)
                continue
            winner = arbitration_winner([a, b])
            assert (winner == 0) == (got is Ordering.A_WINS)

    def test_numeric_order_for_standard_data_frames(self):
        rng = random.Random(7)
        for _ in range(500):
            x, y = rng.randrange(0x800), rng.randrange(0x800)
            a, b = data_frame(x, b""), data_frame(y, b"")
            got = priority_order(a, b)
            if x == y:
                assert got is Ordering.TIE
            else:
                assert (got is Ordering.A_WINS) == (x < y)


@given(st.integers(0, 0x1FFFFFFF), st.booleans(), st.integers(0, 0x1FFFFFFF),
       st.booleans(), st.booleans(), st.booleans())
def test_priority_antisymmetry(va, ea, vb, eb, ra, rb):
    a = Frame(FrameId(va & (0x1FFFFFFF if ea else 0x7FF), ea),
              FrameKind.REMOTE if ra else FrameKind.DATA,
              0, b"")
    b = Frame(FrameId(vb & (0x1FFFFFFF if eb else 0x7FF), eb),
              FrameKind.REMOTE if rb else FrameKind.DATA,
              0, b"")
    fwd, rev = priority_order(a, b), priority_order(b, a)
    flipped = {Ordering.A_WINS: Ordering.B_WINS,
               Ordering.B_WINS: Ordering.A_WINS,
               Ordering.TIE: Ordering.TIE}
    assert rev is flipped[fwd]


@st.composite
def key_pairs(draw):
    """Two frames that mostly share their top 11 identifier bits, and often
    their low 18, with standard and extended ids and RTR either way."""
    top = draw(st.integers(0, 0x7FF))
    low = draw(st.integers(0, 0x3FFFF))

    def one():
        value = draw(st.just(top) | st.integers(0, 0x7FF))
        extended = draw(st.booleans())
        if extended:
            value = value << 18 | draw(st.just(low) | st.integers(0, 0x3FFFF))
        kind = draw(st.sampled_from(FrameKind))
        return Frame(FrameId(value, extended), kind, 0, b"")

    return one(), one()


@settings(max_examples=500)
@given(key_pairs())
def test_arbitration_key_orders_like_the_bit_tuple(pair):
    a, b = pair
    ka, kb = arbitration_key(a), arbitration_key(b)
    ta, tb = arbitration_bits(a), arbitration_bits(b)
    assert 0 <= ka < 1 << 32 and 0 <= kb < 1 << 32
    assert (ka < kb) == (ta < tb)
    assert (ka == kb) == (ta == tb)


def test_arbitration_key_layout():
    assert arbitration_key(data_frame(0x7FF, b"")) == 0x7FF << 21
    assert arbitration_key(remote_frame(0x001, 0)) == 1 << 21 | 1 << 20
    ext = remote_frame(0x123 << 18 | 0x2ABCD, 0, extended=True)
    assert arbitration_key(ext) == 0x123 << 21 | 3 << 19 | 0x2ABCD << 1 | 1


@given(st.integers(-10, 1 << 30), st.booleans(),
       st.binary(min_size=0, max_size=12), st.booleans())
def test_constructor_never_yields_invalid(id_value, extended, payload, remote):
    try:
        if remote:
            f = make_frame(FrameId(id_value, extended), FrameKind.REMOTE,
                           len(payload))
        else:
            f = make_frame(FrameId(id_value, extended), FrameKind.DATA, payload)
    except (IdOutOfRangeError, PayloadTooLongError):
        return
    assert 0 <= f.dlc <= 8
    assert f.id.value <= (0x1FFFFFFF if f.id.extended else 0x7FF)
    if f.kind is FrameKind.DATA:
        assert len(f.payload) == f.dlc
    else:
        assert f.payload == b""
