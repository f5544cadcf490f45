import random

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab import codec
from vcanlab.codec import (CrcError, DecodeError, FormError, StuffError,
                           TruncatedError, bits_from_string, bits_to_string,
                           crc15, decode_frame, destuff, encode_frame,
                           frame_bit_length, frame_from_text, frame_to_text,
                           stuff, stuff_with_positions)
from vcanlab.frame import data_frame, remote_frame

from oracles import (crc15_oracle, decode_frame_serial, destuff_serial,
                     longest_run, random_frame)

bit_streams = st.lists(st.integers(0, 1), max_size=300)
# Runs of 1-7 equal levels, so that 5-runs, stuff bits and 6-runs are common.
run_streams = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 7)),
                       max_size=40).map(
    lambda runs: [level for level, count in runs for _ in range(count)])


class TestCrc15:
    def test_empty_stream_is_zero(self):
        assert crc15([]) == 0

    def test_all_dominant_is_zero(self):
        assert crc15([0] * 15) == 0

    def test_known_frame_body(self):
        # Frozen from the long-division oracle over SOF..data of 123#ABCD.
        body = codec.frame_body_bits(data_frame(0x123, b"\xab\xcd"))
        assert crc15_oracle(body) == 0x7F3C
        assert crc15(body) == 0x7F3C

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(99)
        for _ in range(1000):
            bits = [rng.randint(0, 1) for _ in range(rng.randrange(0, 130))]
            assert crc15(bits) == crc15_oracle(bits)

    @given(bit_streams)
    def test_matches_oracle_property(self, bits):
        assert crc15(bits) == crc15_oracle(bits)


class TestStuffing:
    def test_alternating_unchanged(self):
        assert stuff([1, 0, 1, 0, 1, 0]) == [1, 0, 1, 0, 1, 0]

    def test_five_zeros_get_complement(self):
        assert stuff([0, 0, 0, 0, 0, 0]) == [0, 0, 0, 0, 0, 1, 0]

    def test_destuff_removes_inserted_bit(self):
        assert destuff([0, 0, 0, 0, 0, 1, 0]) == [0, 0, 0, 0, 0, 0]

    def test_six_run_raises_with_offset(self):
        with pytest.raises(StuffError) as exc:
            destuff([1, 1, 1, 1, 1, 1])
        assert exc.value.offset == 5

    def test_random_streams_have_no_six_run(self):
        rng = random.Random(5)
        for _ in range(200):
            bits = [rng.randint(0, 1) for _ in range(200)]
            out = stuff(bits)
            assert longest_run(out) <= 5
            assert destuff(out) == bits

    @given(bit_streams)
    def test_roundtrip_and_no_six_run(self, bits):
        out = stuff(bits)
        assert longest_run(out) <= 5
        assert destuff(out) == bits

    # ``stuff`` walks the byte table that ``wire_plan`` stuffs with;
    # ``stuff_with_positions`` is the rule the table is built from.
    @settings(max_examples=300)
    @given(st.one_of(st.lists(st.integers(0, 1), max_size=127),
                     run_streams.map(lambda bits: bits[:127])))
    def test_stuff_matches_the_rule_the_table_is_built_from(self, bits):
        assert stuff(bits) == stuff_with_positions(bits)[0]

    @pytest.mark.parametrize("bits,at", [([2] * 5, 0), ([0, 1, 2], 2)])
    def test_stuff_rejects_an_invalid_level(self, bits, at):
        with pytest.raises(FormError) as exc:
            stuff(bits)
        assert exc.value.offset == at

    @given(st.one_of(bit_streams, run_streams))
    def test_destuff_matches_the_serial_reference(self, bits):
        assert decode_outcome(destuff, bits) == decode_outcome(destuff_serial, bits)


@pytest.mark.parametrize("level", [-1, 2, 7, 255, 256])
@pytest.mark.parametrize("func", [crc15, stuff, destuff, bits_to_string])
def test_list_functions_reject_an_invalid_level_at_its_bit(func, level):
    bits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0]
    for at in (0, 4, len(bits) - 1):
        bad = bits + [9]  # a later invalid level is not the one reported
        bad[at] = level
        with pytest.raises(FormError) as exc:
            func(bad)
        assert exc.value.offset == at
    # reported ahead of the stuff error at bit 5
    with pytest.raises(FormError) as exc:
        func([0] * 7 + [level])
    assert exc.value.offset == 7


class TestFrameLength:
    def test_standard_dlc0(self):
        assert frame_bit_length(data_frame(0x1, b""), stuffed=False) == 44

    def test_standard_dlc8(self):
        assert frame_bit_length(data_frame(0x1, bytes(8)), stuffed=False) == 108

    def test_extended_dlc0(self):
        assert frame_bit_length(data_frame(0x1, b"", True), stuffed=False) == 64

    def test_stuffed_never_shorter(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_frame(rng)
            assert frame_bit_length(f, True) >= frame_bit_length(f, False)

    def test_stuffed_matches_encode(self):
        f = data_frame(0x000, bytes(8))
        assert frame_bit_length(f, True) == len(encode_frame(f).stuffed_bits)


class TestEncodeDecode:
    def test_roundtrip_random_frames(self):
        rng = random.Random(17)
        for _ in range(500):
            f = random_frame(rng)
            assert decode_frame(encode_frame(f).stuffed_bits) == f

    def test_stuff_count_consistency(self):
        f = data_frame(0x000, bytes(8))
        enc = encode_frame(f)
        region = len(enc.stuffed_bits) - codec.TAIL_BITS
        assert enc.stuff_count == region - (108 - codec.TAIL_BITS)

    def test_no_six_run_in_stuffed_region(self):
        rng = random.Random(23)
        for _ in range(100):
            enc = encode_frame(random_frame(rng))
            region = len(enc.stuffed_bits) - codec.TAIL_BITS
            assert longest_run(enc.stuffed_bits[:region]) <= 5

    def test_data_bit_flips_always_detected(self):
        # Every data-region flip changes the CRC; it surfaces as CrcError
        # unless the flip first breaks the stuffing pattern.
        f = data_frame(0x123, b"\xab\xcd")
        enc = encode_frame(f)
        region = len(enc.stuffed_bits) - codec.TAIL_BITS
        seen_crc = False
        for i in range(19, region - 15):
            bits = list(enc.stuffed_bits)
            bits[i] ^= 1
            try:
                decode_frame(bits)
            except CrcError:
                seen_crc = True
            except DecodeError:
                pass
            else:
                pytest.fail(f"flip at {i} went undetected")
        assert seen_crc

    def test_dominant_eof_gives_form_error(self):
        enc = encode_frame(data_frame(0x123, b"\xab\xcd"))
        bits = list(enc.stuffed_bits)
        bits[-7] = 0  # first EOF bit
        with pytest.raises(FormError):
            decode_frame(bits)

    def test_truncated_input(self):
        enc = encode_frame(data_frame(0x123, b"\xab\xcd"))
        with pytest.raises(TruncatedError):
            decode_frame(enc.stuffed_bits[:20])

    def test_trailing_garbage_rejected(self):
        enc = encode_frame(data_frame(0x123, b"\xab\xcd"))
        with pytest.raises(FormError):
            decode_frame(list(enc.stuffed_bits) + [1])

    def test_every_flip_in_stuffed_region_detected(self):
        rng = random.Random(31)
        for _ in range(6):
            f = random_frame(rng)
            enc = encode_frame(f)
            region = len(enc.stuffed_bits) - codec.TAIL_BITS
            for i in range(region):
                bits = list(enc.stuffed_bits)
                bits[i] ^= 1
                with pytest.raises(DecodeError):
                    decode_frame(bits)

    @settings(max_examples=200)
    @given(st.integers(0, 0x7FF), st.binary(max_size=8))
    def test_roundtrip_property_standard(self, id_value, payload):
        f = data_frame(id_value, payload)
        assert decode_frame(encode_frame(f).stuffed_bits) == f


def decode_outcome(decode, bits):
    try:
        return decode(bits)
    except DecodeError as exc:
        return type(exc), exc.offset, str(exc)


RUN_BYTES = [0x00, 0xFF, 0xF8, 0x7C, 0x1F]


@st.composite
def damaged_streams(draw):
    """Encoded frames with flipped, dropped, inserted or cut bits, frames
    full of equal runs, and plain random bits."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        frame = random_frame(rng)
    else:
        payload = bytes(draw(st.lists(st.sampled_from(RUN_BYTES), max_size=8)))
        frame = data_frame(draw(st.sampled_from([0x000, 0x7FF, 0x7C1, 0x3E0])),
                           payload, draw(st.booleans()))
    bits = encode_frame(frame).stuffed_bits
    edit = draw(st.sampled_from(["none", "flip", "cut", "extend", "drop", "insert",
                                 "random", "ack"]))
    if edit == "flip":
        for i in draw(st.lists(st.integers(0, len(bits) - 1), min_size=1, max_size=3)):
            bits[i] ^= 1
    elif edit == "cut":
        bits = bits[:draw(st.integers(0, len(bits)))]
    elif edit == "extend":
        bits += draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    elif edit == "drop":
        del bits[draw(st.integers(0, len(bits) - 1))]
    elif edit == "insert":
        bits.insert(draw(st.integers(0, len(bits))), draw(st.integers(0, 1)))
    elif edit == "random":
        bits = draw(st.lists(st.integers(0, 1), max_size=140))
    elif edit == "ack":
        bits[len(bits) - 9] = draw(st.integers(0, 1))
    return bits


class TestDecodeMatchesSerialReference:
    @settings(max_examples=500)
    @given(damaged_streams())
    def test_same_frame_or_same_error(self, bits):
        assert decode_outcome(decode_frame, bits) == \
            decode_outcome(decode_frame_serial, bits)

    def test_seeded_damage(self):
        rng = random.Random(53)
        for _ in range(3000):
            bits = encode_frame(random_frame(rng)).stuffed_bits
            for _ in range(rng.randrange(3)):
                bits[rng.randrange(len(bits))] ^= 1
            if rng.random() < 0.3:
                bits = bits[:rng.randrange(len(bits) + 1)]
            assert decode_outcome(decode_frame, bits) == \
                decode_outcome(decode_frame_serial, bits)

    def test_dlc_above_8_offset(self):
        body = [0] + [0] * 11 + [0, 0, 0] + [1, 0, 0, 1]  # standard id 0, DLC 9
        crc = crc15(body)
        bits = stuff(body + [(crc >> i) & 1 for i in range(14, -1, -1)]) + [1] * 10
        with pytest.raises(FormError) as exc:
            decode_frame(bits)
        assert decode_outcome(decode_frame, bits) == \
            decode_outcome(decode_frame_serial, bits)
        assert "DLC 9" in str(exc.value)

    @pytest.mark.parametrize("level", [-1, 2, 7, 255, 256])
    def test_invalid_level_is_a_form_error_at_its_bit(self, level):
        bits = encode_frame(data_frame(0x123, b"\xab\xcd")).stuffed_bits
        for at in (0, 5, 20, len(bits) - 9):  # len(bits) - 9 is the ACK slot
            bad = list(bits)
            bad[at] = level
            bad[-1] = 9  # a later invalid level is not the one reported
            with pytest.raises(FormError) as exc:
                decode_frame(bad)
            assert exc.value.offset == at
        # reported ahead of the stuff error at bit 5
        bad = [0] * 7 + [level]
        with pytest.raises(FormError) as exc:
            decode_frame(bad)
        assert exc.value.offset == 7


class TestTextForms:
    def test_bits_string_roundtrip(self):
        assert bits_from_string("0101") == [0, 1, 0, 1]
        assert bits_to_string([0, 1, 0, 1]) == "0101"
        with pytest.raises(ValueError):
            bits_from_string("012")

    def test_frame_text_roundtrip(self):
        rng = random.Random(41)
        for _ in range(200):
            f = random_frame(rng)
            assert frame_from_text(frame_to_text(f)) == f

    def test_candump_style(self):
        assert frame_to_text(data_frame(0x0A0, b"\xde\xad\xbe\xef")) == "0A0#DEADBEEF"
        assert frame_to_text(remote_frame(0x123, 4)) == "123#R4"
        assert frame_from_text("001ABCDE#01").id.extended

    def test_either_case_and_an_empty_remote_dlc(self):
        assert frame_from_text("1aB#deAD") == data_frame(0x1AB, b"\xde\xad")
        assert frame_from_text("123#R") == remote_frame(0x123, 0)

    @pytest.mark.parametrize("text", [
        "1234#00", "12G#00", "123#ABC",
        # Forms that int(..., 16) and bytes.fromhex take.
        "+12#00", "1_2#00", "12 #00", "0x1#00", "\u0661\u0662\u0663#00",
        "123#+0", "123#0_", "123#00  11",
        "123#R+4", "123#R 4", "123#R\u0664", "123#R9", "123#R10", "123#R0x4",
    ])
    def test_malformed_frame_text_rejected(self, text):
        with pytest.raises(ValueError):
            frame_from_text(text)


# Few identifiers, so that drawn frames and texts repeat and the memo hits.
@st.composite
def text_frames(draw):
    extended = draw(st.booleans())
    top = (1 << (29 if extended else 11)) - 1
    ident = draw(st.sampled_from([0, 0x123, top]) | st.integers(0, top))
    if draw(st.booleans()):
        return remote_frame(ident, draw(st.integers(0, 8)), extended)
    return data_frame(ident, draw(st.sampled_from([b"", b"\xab"]) | st.binary(max_size=8)),
                      extended)


# Valid texts in either case, and near misses built from the grammar's own
# characters, from its whitespace and from digits that int() also takes.
frame_texts = (text_frames().map(frame_to_text)
               | text_frames().map(lambda f: frame_to_text(f).lower())
               | st.text("0123456789abcdefABCDEFRx#+_ \u0663", max_size=20)
               | st.text(max_size=12))


def text_outcome(fn, arg):
    """The value ``fn`` returns with its type, or the type and message of
    what it raises."""
    try:
        value = fn(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


class TestTextMemo:
    @given(st.lists(text_frames(), max_size=20))
    def test_frame_to_text_matches_the_uncached_function(self, frames):
        for frame in frames * 2:
            assert (text_outcome(frame_to_text, frame)
                    == text_outcome(frame_to_text.__wrapped__, frame))

    @given(st.lists(frame_texts, max_size=20))
    def test_frame_from_text_matches_the_uncached_function(self, texts):
        for text in texts * 2:
            assert (text_outcome(frame_from_text, text)
                    == text_outcome(frame_from_text.__wrapped__, text))

    def test_bad_text_raises_on_every_call(self):
        before = frame_from_text.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="^invalid identifier hex '12G'$"):
                frame_from_text("12G#00")
        after = frame_from_text.cache_info()
        assert after.misses == before.misses + 3 and after.hits == before.hits

    @pytest.mark.parametrize("func", [frame_to_text, frame_from_text])
    def test_cache_size_is_the_module_constant(self, func):
        assert func.cache_info().maxsize == codec.TEXT_CACHE_SIZE == 256
