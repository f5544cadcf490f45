import pytest
from hypothesis import given, strategies as st

from vcanlab.bus import Bus, BusConfig, ScheduleEntry
from vcanlab.frame import FrameId, data_frame
from vcanlab.node import (AcceptanceFilter, BusOffError, CounterEvent,
                          InvalidStateError, Node, NodeMode, NodeState,
                          accepts, observe_recovery, update_counters)


class TestAcceptanceFilter:
    def test_zero_mask_accepts_everything(self):
        filt = AcceptanceFilter(code=0x123, mask=0)
        for v in (0, 0x123, 0x7FF):
            assert accepts(filt, FrameId.standard(v))

    def test_full_mask_exact_match(self):
        filt = AcceptanceFilter(code=0x123, mask=0x7FF)
        assert accepts(filt, FrameId.standard(0x123))
        assert not accepts(filt, FrameId.standard(0x124))

    def test_range_filter_brute_force(self):
        filt = AcceptanceFilter(code=0x100, mask=0x700)
        matched = [v for v in range(0x800)
                   if accepts(filt, FrameId.standard(v))]
        assert matched == list(range(0x100, 0x200))

    def test_class_mismatch_rejected(self):
        filt = AcceptanceFilter(code=0x100, mask=0x700)
        assert not accepts(filt, FrameId.extended_id(0x100))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            AcceptanceFilter(code=0x800, mask=0)


class TestUpdateCounters:
    def test_tx_error_crosses_passive_threshold(self):
        s = update_counters(NodeState(tec=120), CounterEvent.TX_ERROR)
        assert s.tec == 128 and s.mode is NodeMode.ERROR_PASSIVE

    def test_tx_error_crosses_bus_off_threshold(self):
        s = update_counters(NodeState(tec=248, mode=NodeMode.ERROR_PASSIVE),
                            CounterEvent.TX_ERROR)
        assert s.tec == 256 and s.mode is NodeMode.BUS_OFF

    def test_success_floors_at_zero(self):
        s = NodeState(tec=1)
        for _ in range(3):
            s = update_counters(s, CounterEvent.TX_SUCCESS)
        assert s.tec == 0 and s.rec == 0

    def test_rx_error_increments_by_one(self):
        s = update_counters(NodeState(), CounterEvent.RX_ERROR)
        assert s.rec == 1 and s.mode is NodeMode.ERROR_ACTIVE

    def test_monotone_escalation(self):
        s = NodeState()
        modes = [s.mode]
        for _ in range(40):
            s = update_counters(s, CounterEvent.TX_ERROR)
            if s.mode is not modes[-1]:
                modes.append(s.mode)
        assert modes == [NodeMode.ERROR_ACTIVE, NodeMode.ERROR_PASSIVE,
                         NodeMode.BUS_OFF]

    @given(st.integers(0, 255))
    def test_rx_success_at_zero_rec_is_a_no_op(self, tec):
        # The bus skips RX_SUCCESS for receivers at rec == 0 on this rule.
        mode = NodeMode.ERROR_PASSIVE if tec > 127 else NodeMode.ERROR_ACTIVE
        s = NodeState(tec=tec, rec=0, mode=mode)
        assert update_counters(s, CounterEvent.RX_SUCCESS) is s

    @given(st.lists(st.sampled_from(list(CounterEvent)), max_size=120))
    def test_counters_never_negative_and_mode_consistent(self, events):
        s = NodeState()
        for ev in events:
            s = update_counters(s, ev)
            assert s.tec >= 0 and s.rec >= 0
            if s.mode is NodeMode.ERROR_ACTIVE:
                assert s.tec <= 127 and s.rec <= 127
            elif s.mode is NodeMode.ERROR_PASSIVE:
                assert s.tec > 127 or s.rec > 127
                assert s.tec <= 255


class TestRecovery:
    def _bus_off(self):
        return NodeState(tec=256, mode=NodeMode.BUS_OFF)

    def test_full_recovery_at_1408_bits(self):
        s = observe_recovery(self._bus_off(), 128 * 11)
        assert s == NodeState()

    def test_1407_bits_not_enough(self):
        s = observe_recovery(self._bus_off(), 1407)
        assert s.mode is NodeMode.BUS_OFF
        assert s.recessive_run_groups == 127

    def test_groups_accumulate(self):
        s = observe_recovery(self._bus_off(), 11 * 10)
        s = observe_recovery(s, 11 * 118)
        assert s == NodeState()

    def test_invalid_when_not_bus_off(self):
        with pytest.raises(InvalidStateError):
            observe_recovery(NodeState(), 11)


class TestNode:
    def test_fresh_status(self):
        st_ = Node("n").status()
        assert (st_.mode, st_.tec, st_.rec, st_.queue_depth,
                st_.delivered_count) == (NodeMode.ERROR_ACTIVE, 0, 0, 0, 0)

    def test_submit_queues_by_priority(self):
        n = Node("n")
        n.submit(data_frame(0x300, b""))
        n.submit(data_frame(0x200, b""))
        assert n.queue[0].frame.id.value == 0x200

    def test_submit_rejected_when_bus_off(self):
        n = Node("n")
        n.state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
        with pytest.raises(BusOffError):
            n.submit(data_frame(0x100, b""))

    def test_priority_respected_on_the_wire(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        sched = [ScheduleEntry(0, "a", data_frame(0x300, b"")),
                 ScheduleEntry(0, "a", data_frame(0x200, b""))]
        trace = bus.run(sched, 2_000)
        delivered = [e.frame.id.value for e in trace
                     if e.kind.value == "FrameDelivered"]
        assert delivered == [0x200, 0x300]

    def test_status_after_16_and_32_tx_errors(self):
        s = NodeState()
        for i in range(16):
            s = update_counters(s, CounterEvent.TX_ERROR)
        assert s.tec == 128 and s.mode is NodeMode.ERROR_PASSIVE
        for i in range(16):
            s = update_counters(s, CounterEvent.TX_ERROR)
        assert s.tec == 256 and s.mode is NodeMode.BUS_OFF

    def test_status_render_format(self):
        line = Node("relay").status().render()
        assert line == "relay mode=error-active tec=0 rec=0 queued=0 delivered=0"
