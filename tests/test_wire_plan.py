"""wire_plan against the bit-serial list codec, and the bus's plan table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab import codec
from vcanlab.bus import Bus, BusConfig, ScheduleEntry
from vcanlab.codec import (EXT_ARBITRATION_END, RECESSIVE, STD_ARBITRATION_END,
                           TAIL_BITS, frame_body_bits, stuff,
                           stuff_with_positions, wire_plan)
from vcanlab.frame import Frame, FrameId, FrameKind, data_frame, remote_frame

from oracles import crc15_oracle, random_frame


def reference_region(frame):
    """SOF through the last CRC bit, unstuffed, with the CRC from the
    long-division oracle."""
    body = frame_body_bits(frame)
    crc = crc15_oracle(body)
    return body + [(crc >> i) & 1 for i in range(14, -1, -1)], crc


def check_against_reference(frame):
    region, crc = reference_region(frame)
    stuffed = stuff(region)
    stream = stuffed + [RECESSIVE] * TAIL_BITS  # CRC delim, ACK, ACK delim, EOF
    _, positions = stuff_with_positions(region)
    arb = EXT_ARBITRATION_END if frame.id.extended else STD_ARBITRATION_END

    plan = wire_plan(frame)
    assert list(plan.stream) == stream
    assert plan.crc == crc
    assert plan.stuff_count == len(stuffed) - len(region)
    assert plan.region_len == len(stuffed)
    assert plan.total_len == len(stream)
    assert plan.ack_idx == len(stuffed) + 1
    assert plan.arb_end == positions[arb]


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_matches_bit_serial_reference(seed):
    check_against_reference(random_frame(random.Random(seed)))


def runs_started_by_stuff_bits(frame):
    """Stuff bits that are the first of five equal levels, by the reference."""
    out, positions = stuff_with_positions(reference_region(frame)[0])
    stuffed_at = sorted(set(range(len(out))) - set(positions))
    return [s for s in stuffed_at if s + 5 <= len(out) and len(set(out[s:s + 5])) == 1]


# 11111 then 0000: the stuff bit after the ones and four zeros make a run.
RUN_STARTING_PAYLOAD = b"\xf8\x7c" * 4
PAYLOADS = [b"", bytes(8), b"\xff" * 8, b"\x1f" * 8, RUN_STARTING_PAYLOAD]


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("id_value", [0x000, 0x7FF, 0x7C1])
@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: p.hex() or "empty")
def test_all_equal_and_run_starting_fields(extended, id_value, payload):
    check_against_reference(data_frame(id_value, payload, extended))
    check_against_reference(remote_frame(id_value, len(payload), extended))


def test_fixed_cases_hold_stuff_bits_that_start_a_run():
    assert runs_started_by_stuff_bits(data_frame(0x000, RUN_STARTING_PAYLOAD))
    # Standard id 0x7C1 is 11111000001 after the dominant SOF.
    arb_case = remote_frame(0x7C1, 0)
    assert any(s <= wire_plan(arb_case).arb_end
               for s in runs_started_by_stuff_bits(arb_case))


# Frames whose stuffed region ends in a stuff bit after the last CRC bit,
# which falls in the last byte with the pad bits the table stuffs as well.
TRAILING_STUFF_CASES = [data_frame(0x009, b""), remote_frame(0x003, 0),
                        data_frame(0x007, b"", extended=True),
                        remote_frame(0x00D, 0, extended=True)]


@pytest.mark.parametrize("frame", TRAILING_STUFF_CASES, ids=codec.frame_to_text)
def test_region_ending_in_a_stuff_bit(frame):
    region, _ = reference_region(frame)
    out, positions = stuff_with_positions(region)
    assert positions[-1] == len(out) - 2  # the last output bit is a stuff bit
    check_against_reference(frame)


def test_extended_all_equal_ids():
    for id_value in (0, (1 << 29) - 1):
        check_against_reference(data_frame(id_value, bytes(8), extended=True))
        check_against_reference(remote_frame(id_value, 8, extended=True))


def test_encode_frame_and_length_use_the_plan():
    f = data_frame(0x000, b"\x1f" * 8)
    plan = wire_plan(f)
    enc = codec.encode_frame(f)
    assert enc.stuffed_bits == list(plan.stream)
    assert (enc.crc, enc.stuff_count) == (plan.crc, plan.stuff_count)
    assert codec.frame_bit_length(f, stuffed=True) == plan.total_len


def test_equal_frames_share_one_plan_per_bus():
    first = Frame(FrameId(0x123), FrameKind.DATA, 2, b"\xab\xcd")
    second = Frame(FrameId(0x123), FrameKind.DATA, 2, b"\xab\xcd")
    assert first == second and first is not second
    bus = Bus(BusConfig())
    a = bus.attach_node("a")
    b = bus.attach_node("b")
    a.submit(first)
    b.submit(second)
    bus.run([], 10)  # both start in the same bit and are still sending
    assert a.queue[0].enc is b.queue[0].enc
    assert list(bus._plans) == [first]
    assert Bus(BusConfig())._plans == {}


def test_plans_last_one_run_call():
    # A bus run in short slices, as a gateway drives it, sends a new frame in
    # each: the plans of earlier calls are dropped, so it holds one at most.
    bus = Bus(BusConfig())
    bus.attach_node("a")
    bus.attach_node("b")
    for i in range(50):
        frame = Frame(FrameId(i), FrameKind.DATA, 1, bytes([i]))
        bus.run([ScheduleEntry(bus.now, "a", frame)], bus.now + 200)
        assert bus.nodes["b"].received[-1] == frame
    assert len(bus._plans) <= 1
