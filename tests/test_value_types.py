"""The hot value types are validating named tuples: read-only, equal to and
hashed like the plain tuple of their fields, and checked on every path that
builds one, ``_make``, ``_replace`` and unpickling included."""

import copy
import pickle
import re

import pytest

from vcanlab.bus import EventKind, ScheduleEntry
from vcanlab.frame import (Frame, FrameId, FrameKind, IdOutOfRangeError,
                           PayloadTooLongError, data_frame, remote_frame)
from vcanlab.sensornet import MonitorVerdict, SensorReading

STD = FrameId(0x123)
EXT = FrameId(0x1ABCDEF, True)
DATA = Frame(STD, FrameKind.DATA, 2, b"\xab\xcd")
REMOTE = Frame(EXT, FrameKind.REMOTE, 3)

# instance, its repr, a field to assign, an invalid field for _replace
# (None where the type checks nothing) and the error that field raises.
CASES = {
    "FrameId": (STD, "FrameId(value=291, extended=False)",
                "value", {"value": 0x800}, IdOutOfRangeError),
    "FrameId-extended": (EXT, "FrameId(value=28036591, extended=True)",
                         "extended", {"value": 2.5}, TypeError),
    "Frame": (DATA,
              "Frame(id=FrameId(value=291, extended=False), "
              "kind=<FrameKind.DATA: 'data'>, dlc=2, payload=b'\\xab\\xcd')",
              "payload", {"dlc": 9}, PayloadTooLongError),
    "Frame-remote": (REMOTE,
                     "Frame(id=FrameId(value=28036591, extended=True), "
                     "kind=<FrameKind.REMOTE: 'remote'>, dlc=3, payload=b'')",
                     "dlc", {"payload": b"\x00"}, PayloadTooLongError),
    "ScheduleEntry": (ScheduleEntry(5, "a", DATA),
                      "ScheduleEntry(time_us=5, node='a', frame=Frame(id=FrameId("
                      "value=291, extended=False), kind=<FrameKind.DATA: 'data'>, "
                      "dlc=2, payload=b'\\xab\\xcd'))",
                      "time_us", {"time_us": -1}, ValueError),
    "SensorReading": (SensorReading(512, 2001),
                      "SensorReading(adc_code=512, temperature_centideg=2001)",
                      "adc_code", {"adc_code": 1024}, ValueError),
    "MonitorVerdict": (MonitorVerdict(True, -0.25),
                       "MonitorVerdict(in_range=True, delta_c=-0.25)",
                       "in_range", None, None),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    value, text, field, invalid, error = CASES[name]
    fields = tuple(getattr(value, f) for f in value._fields)
    assert value == fields and hash(value) == hash(fields)
    assert {fields: value}[value] is value
    assert tuple(value) == fields
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    if invalid is not None:
        with pytest.raises(error) as direct:
            type(value)(**{**value._asdict(), **invalid})
        with pytest.raises(error, match=f"^{re.escape(str(direct.value))}$"):
            value._replace(**invalid)
        with pytest.raises(error, match=f"^{re.escape(str(direct.value))}$"):
            type(value)._make({**value._asdict(), **invalid}.values())


def test_frame_payload_becomes_bytes_on_every_path():
    frame = Frame(STD, FrameKind.DATA, 2, bytearray(b"\x01\x02"))
    assert type(frame.payload) is bytes
    assert type(frame._replace(payload=bytearray(b"\x03\x04")).payload) is bytes
    assert type(Frame._make((STD, FrameKind.DATA, 1, [7])).payload) is bytes


def test_unpickling_validates():
    # Every protocol rebuilds an instance through its constructor. Protocol 0
    # writes the id as the text "I291", so an edited pickle can name an
    # invalid id, which must fail as the constructor does.
    assert DATA.__reduce__() == (Frame, tuple(DATA))
    text = pickle.dumps(FrameId(291), 0)
    assert b"I291\n" in text
    with pytest.raises(IdOutOfRangeError, match="^id 0x800 outside"):
        pickle.loads(text.replace(b"I291\n", b"I2048\n"))


# Enum members compare by identity, so they hash by it too: Enum's own
# __hash__ is a Python function, which every hash of a Frame would run.
@pytest.mark.parametrize("member", [*FrameKind, *EventKind], ids=str)
def test_enum_member_is_an_identity_key(member):
    assert type(member).__hash__ is object.__hash__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(member, protocol)) is member
    assert copy.copy(member) is member and copy.deepcopy(member) is member
    table = {m: m.value for m in type(member)}
    assert len(table) == len(type(member))
    assert table[member] == table[copy.deepcopy(member)] == member.value


# Fields of another type that compare equal to a valid one, or that a check
# by value alone would take: each would give a frame that equals another
# but renders different text, so every path refuses them.
MISTYPED = {
    "dlc-float": (REMOTE, {"dlc": 3.0}),
    "dlc-bool": (Frame(STD, FrameKind.REMOTE, 1), {"dlc": True}),
    "dlc-str": (REMOTE, {"dlc": "3"}),
    "id-tuple": (DATA, {"id": (0x123, False)}),
    "kind-str": (DATA, {"kind": "data"}),
    "payload-int": (DATA, {"payload": 2}),  # bytes(2) is two zero bytes
    "extended-int": (EXT, {"extended": 1}),
    "extended-str": (STD, {"extended": "yes"}),
    "extended-none": (STD, {"extended": None}),
}


class _Forged:
    """Pickles as a call of ``cls(*args)``, as an edited pickle could."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return self.cls, self.args


@pytest.mark.parametrize("name", MISTYPED)
def test_mistyped_field_refused_on_every_path(name):
    value, changes = MISTYPED[name]
    cls = type(value)
    fields = {**value._asdict(), **changes}
    with pytest.raises(TypeError) as direct:
        cls(**fields)
    message = f"^{re.escape(str(direct.value))}$"
    with pytest.raises(TypeError, match=message):
        value._replace(**changes)
    with pytest.raises(TypeError, match=message):
        cls._make(fields.values())
    forged = pickle.dumps(_Forged(cls, tuple(fields.values())))
    with pytest.raises(TypeError, match=message):
        pickle.loads(forged)


def test_a_float_dlc_no_longer_equals_a_frame():
    # It used to: Frame(STD, REMOTE, 4.0) == remote_frame(0x123, 4), while
    # one rendered 123#R4.0 and the other 123#R4.
    with pytest.raises(TypeError, match="^dlc must be an integer, got 4.0$"):
        Frame(STD, FrameKind.REMOTE, 4.0)
    with pytest.raises(TypeError, match="^extended must be a bool, got 'yes'$"):
        FrameId(0x123, "yes")


@pytest.mark.parametrize("make, args", [
    (remote_frame, (0x123, 4.7)),
    (remote_frame, (0x123, "5")),
    (remote_frame, (0x123, True)),
    (data_frame, (0x123, 3)),      # bytes(3) would be three zero bytes
    (data_frame, (0x123, True)),
    (data_frame, (0x123, b"", 1)),
], ids=["remote-float", "remote-str", "remote-bool", "data-int", "data-bool",
        "extended-int"])
def test_frame_helpers_convert_nothing(make, args):
    with pytest.raises(TypeError):
        make(*args)


def test_frame_helpers_take_byte_values():
    assert data_frame(0x123, bytearray(b"\x01\x02")) == data_frame(0x123, b"\x01\x02")
    assert data_frame(0x123, [1, 2]).payload == b"\x01\x02"
    assert remote_frame(0x123, 4) == Frame(STD, FrameKind.REMOTE, 4)
