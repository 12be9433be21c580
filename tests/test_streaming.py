"""Tests for the streaming flow-scan subsystem.

The regression these pin down is the subsystem's reason to exist: a rule
string split across consecutive packets of one flow is invisible to the
per-packet scan path but must be found by the stateful flow scan.
"""

import dataclasses

import pytest

from repro.core import DTPAutomaton, ScanState, compile_ruleset
from repro.fpga import STRATIX_III
from repro.hardware import StringMatchingBlock
from repro.ids import HeaderPattern, IDSRule, IntrusionDetectionSystem
from repro.rulesets import RuleSet
from repro.streaming import (
    FlowEntry,
    FlowKey,
    FlowTable,
    ScanService,
    StreamScanner,
)
from repro.traffic import FiveTuple, Packet, TrafficGenerator
from tests.conftest import scan_one, stream_events

#: The worked example of Figures 1 and 2 (mirrors tests/conftest.py).
PAPER_EXAMPLE_PATTERNS = [b"he", b"she", b"his", b"hers"]


def make_key(n: int = 0) -> FlowKey:
    return FlowKey(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


def make_header(n: int = 0) -> FiveTuple:
    return FiveTuple(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


@pytest.fixture(scope="module")
def crafted_ruleset() -> RuleSet:
    """Patterns that cannot occur by accident in ASCII background traffic."""
    ruleset = RuleSet(name="crafted")
    ruleset.add_pattern(b"EVILPAYLOADSIGNATURE")
    ruleset.add_pattern(b"XMALICIOUSSHELLCODEX")
    ruleset.add_pattern(b"QQBACKDOORBEACONQQ")
    return ruleset


@pytest.fixture(scope="module")
def crafted_program(crafted_ruleset):
    return compile_ruleset(crafted_ruleset, STRATIX_III)


# ----------------------------------------------------------------------
# resumable scanning at the automaton level
# ----------------------------------------------------------------------
class TestScanFrom:
    def test_scan_state_round_trip(self):
        state = ScanState(state=5, prev1=104, prev2=None, offset=17)
        assert ScanState.from_tuple(state.as_tuple()) == state

    def test_chunked_scan_equals_whole_buffer(self, example_dtp, rng):
        data = b"xxhisxx" + b"ushers" + bytes(rng.randrange(97, 123) for _ in range(400))
        whole = example_dtp.match(data)

        for chunk_size in (1, 2, 3, 7, 64):
            state = example_dtp.initial_scan_state()
            chunked = []
            for start in range(0, len(data), chunk_size):
                matches, state = example_dtp.scan_from(state, data[start:start + chunk_size])
                chunked.extend(matches)
            assert chunked == whole, f"chunk_size={chunk_size}"
            assert state.offset == len(data)

    def test_scan_from_offsets_are_stream_absolute(self):
        dtp = DTPAutomaton.from_patterns([b"abcd"])
        first, state = dtp.scan_from(ScanState(), b"xxab")
        assert first == []
        second, state = dtp.scan_from(state, b"cdab")
        assert second == [(6, 0)]  # match ends at stream offset 6
        assert state.offset == 8

    def test_per_packet_match_resets_history(self):
        dtp = DTPAutomaton.from_patterns([b"abcd"])
        assert dtp.match(b"ab") == [] and dtp.match(b"cd") == []

    def test_program_scan_from_spans_blocks(self, small_program, small_ruleset, rng):
        patterns = [rule.pattern for rule in small_ruleset]
        stream = b"".join(
            bytes(rng.randrange(0, 256) for _ in range(50))
            + patterns[rng.randrange(len(patterns))]
            for _ in range(12)
        )
        whole = small_program.match(stream)
        states = small_program.initial_scan_states()
        chunked = []
        position = 0
        while position < len(stream):
            size = rng.randint(1, 100)
            matches, states = small_program.scan_from(states, stream[position:position + size])
            chunked.extend(matches)
            position += size
        assert sorted(chunked) == sorted(whole)

    def test_program_scan_from_validates_state_count(self, small_program):
        with pytest.raises(ValueError):
            small_program.scan_from((ScanState(),) * (len(small_program.blocks) + 1), b"x")


# ----------------------------------------------------------------------
# flow table
# ----------------------------------------------------------------------
class TestFlowTable:
    @staticmethod
    def entry(n: int) -> FlowEntry:
        return FlowEntry(key=make_key(n), states=(ScanState(),))

    def test_lru_eviction_order(self):
        table = FlowTable(capacity=2)
        assert table.insert(self.entry(1)) is None
        assert table.insert(self.entry(2)) is None
        # touch flow 1 so flow 2 becomes the LRU victim
        table.touch(make_key(1))
        evicted = table.insert(self.entry(3))
        assert len(table) == 2
        assert evicted.key == make_key(2)
        assert make_key(1) in table and make_key(3) in table
        assert table.stats.evicted == 1

    def test_evicted_flow_restarts_fresh(self, crafted_program, crafted_ruleset):
        scanner = StreamScanner(crafted_program, FlowTable(capacity=1))
        pattern = crafted_ruleset[0].pattern
        scan_one(scanner, make_key(1), pattern[:8])
        # flow 2 pushes flow 1 out of the single-entry table
        scan_one(scanner, make_key(2), b"unrelated")
        matches = scan_one(scanner, make_key(1), pattern[8:])
        assert matches == []  # the head fragment was forgotten with the state
        assert scanner.flows.stats.evicted == 2

    def test_peek_miss_and_remove(self):
        table = FlowTable(capacity=4)
        assert table.peek(make_key(9)) is None
        table.insert(self.entry(1))
        assert table.remove(make_key(1)).key == make_key(1)
        assert table.remove(make_key(1)) is None
        assert table.stats.evicted == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)

    def test_peek_does_not_touch_recency_or_stats(self):
        table = FlowTable(capacity=2)
        table.insert(self.entry(1))
        table.insert(self.entry(2))
        stats_before = dataclasses.asdict(table.stats)
        assert table.peek(make_key(1)) is not None
        assert dataclasses.asdict(table.stats) == stats_before
        table.insert(self.entry(3))  # flow 1 is still the LRU victim
        assert make_key(1) not in table

    def test_restore_respects_capacity_override(self):
        table = FlowTable(capacity=8)
        for n in range(4):
            table.insert(self.entry(n))
        restored = FlowTable.restore(table.checkpoint(), capacity=2)
        assert restored.capacity == 2 and len(restored) == 2
        # the most recently used flows survive
        assert make_key(2) in restored and make_key(3) in restored

    def test_checkpoint_restore_round_trip(self):
        table = FlowTable(capacity=8)
        entry = self.entry(1)
        entry.states = (ScanState(state=3, prev1=104, prev2=101, offset=42),)
        entry.packets = 3
        table.insert(entry)
        restored = FlowTable.restore(table.checkpoint())
        assert restored.capacity == 8
        back = restored.peek(make_key(1))
        assert back.states == entry.states
        assert back.packets == 3


# ----------------------------------------------------------------------
# cross-packet matching (the tentpole regression)
# ----------------------------------------------------------------------
class TestCrossPacketMatching:
    @pytest.mark.parametrize("cut", [1, 5, 10, 19])
    def test_two_segment_split(self, crafted_program, crafted_ruleset, cut):
        pattern = crafted_ruleset[0].pattern
        segments = [b"padding " + pattern[:cut], pattern[cut:] + b" trailer"]
        header = make_header(1)
        packets = [
            Packet(payload=payload, header=header, packet_id=i)
            for i, payload in enumerate(segments)
        ]
        # per-packet scanning misses the split pattern...
        for packet in packets:
            assert crafted_program.match(packet.payload) == []
        # ...stateful scanning finds it, at the reassembled-stream offset
        scanner = StreamScanner(crafted_program)
        matches = stream_events(scanner, packets)
        assert [m.string_number for m in matches] == [0]
        assert matches[0].end_offset == len(b"padding ") + len(pattern)
        assert scanner.stats.cross_segment_matches == 1

    def test_three_segment_split(self, crafted_program, crafted_ruleset):
        pattern = crafted_ruleset[1].pattern
        segments = [b"aa " + pattern[:4], pattern[4:11], pattern[11:] + b" zz"]
        header = make_header(2)
        packets = [
            Packet(payload=payload, header=header, packet_id=i)
            for i, payload in enumerate(segments)
        ]
        for packet in packets:
            assert crafted_program.match(packet.payload) == []
        matches = stream_events(StreamScanner(crafted_program), packets)
        assert [m.string_number for m in matches] == [1]

    def test_byte_at_a_time_flow(self, crafted_program, crafted_ruleset):
        """The pathological segmentation: every packet carries one byte."""
        pattern = crafted_ruleset[2].pattern
        header = make_header(3)
        packets = [
            Packet(payload=bytes([byte]), header=header, packet_id=i)
            for i, byte in enumerate(pattern)
        ]
        matches = stream_events(StreamScanner(crafted_program), packets)
        assert [(m.string_number, m.end_offset) for m in matches] == [(2, len(pattern))]

    def test_nocase_view_reports_lowercase_occurrence_once(self):
        """An already-lowercase occurrence matches in both views; one event."""
        ruleset = RuleSet(name="lower")
        ruleset.add_pattern(b"lowercasesignature")
        program = compile_ruleset(ruleset, STRATIX_III)
        scanner = StreamScanner(program, track_nocase=True)
        matches = scan_one(scanner, make_key(1), b"xx lowercasesignature yy")
        assert len(matches) == 1 and not matches[0].lowered
        # a genuinely mixed-case occurrence is still caught, via the lowered view
        mixed = scan_one(scanner, make_key(2), b"LowerCaseSignature")
        assert len(mixed) == 1 and mixed[0].lowered

    def test_lowered_view_rebuilt_at_stream_offset(self):
        """A checkpoint without nocase state, restored under a nocase scanner,
        regains case-insensitive matching with flow-absolute offsets."""
        ruleset = RuleSet(name="lower2")
        ruleset.add_pattern(b"lowercasesignature")
        program = compile_ruleset(ruleset, STRATIX_III)
        plain = StreamScanner(program, track_nocase=False)
        scan_one(plain, make_key(1), b"0123456789")  # 10 bytes of prologue
        snapshot = plain.flows.checkpoint()

        nocase = StreamScanner(program, track_nocase=True)
        nocase.flows = FlowTable.restore(snapshot)
        matches = scan_one(nocase, make_key(1), b"xx LowerCaseSignature")
        assert [m.lowered for m in matches] == [True]
        assert matches[0].end_offset == 10 + len(b"xx LowerCaseSignature")
        # an already-lowercase hit is still reported once, not per view
        again = scan_one(nocase, make_key(1), b" lowercasesignature")
        assert len(again) == 1 and not again[0].lowered

    def test_independent_flows_do_not_share_state(self, crafted_program, crafted_ruleset):
        """Fragments from different flows must never combine into a match."""
        pattern = crafted_ruleset[0].pattern
        scanner = StreamScanner(crafted_program)
        scan_one(scanner, make_key(1), pattern[:10])
        assert scan_one(scanner, make_key(2), pattern[10:]) == []
        # while the real continuation still completes
        assert scan_one(scanner, make_key(1), pattern[10:]) != []


# ----------------------------------------------------------------------
# sharded scan service
# ----------------------------------------------------------------------
class TestScanService:
    def test_flow_sticks_to_one_shard(self, crafted_program):
        service = ScanService(crafted_program, num_shards=4)
        for n in range(50):
            shard = service.shard_for(make_key(n))
            assert shard == service.shard_for(make_key(n))
            assert 0 <= shard < 4

    def test_interleaved_flows_all_detected(self, small_program, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=31)
        flows = generator.flows(
            10, num_packets=4, split_patterns=1, segment_bytes=120
        )
        packets = TrafficGenerator.interleave(flows)
        service = ScanService(small_program, num_shards=3)
        result = service.scan(packets)
        sid_of = {index: rule.sid for index, rule in enumerate(small_ruleset)}
        for flow in flows:
            key = StreamScanner.flow_key(flow.packets[0])
            streamed = {sid_of[e.string_number] for e in result.events_for_flow(key)}
            assert set(flow.split_sids) <= streamed
        assert result.packets == len(packets)
        assert result.bytes_scanned == sum(len(p.payload) for p in packets)
        assert service.active_flows == 10
        assert sum(report.packets for report in result.shards) == len(packets)
        assert service.cross_segment_matches >= 10

    def test_submit_single_packet(self, crafted_program, crafted_ruleset):
        service = ScanService(crafted_program, num_shards=2)
        pattern = crafted_ruleset[0].pattern
        header = make_header(4)
        first = service.scan([Packet(payload=pattern[:6], header=header, packet_id=0)])
        second = service.scan([Packet(payload=pattern[6:], header=header, packet_id=1)])
        first, second = first.events, second.events
        assert first == [] and [m.string_number for m in second] == [0]

    def test_shard_report_evictions_are_per_batch(self, crafted_program):
        service = ScanService(crafted_program, num_shards=1, flow_capacity_per_shard=1)
        first = service.scan(
            [Packet(payload=b"a", header=make_header(n), packet_id=n) for n in range(3)]
        )
        assert sum(r.evicted_flows for r in first.shards) == 2
        # a quiet second batch must not re-report the first batch's evictions
        second = service.scan([Packet(payload=b"b", header=make_header(2), packet_id=9)])
        assert sum(r.evicted_flows for r in second.shards) == 0
        assert service.evicted_flows == 2  # lifetime counter unchanged

    def test_checkpoint_restore_resumes_mid_flow(self, crafted_program, crafted_ruleset):
        pattern = crafted_ruleset[0].pattern
        header = make_header(5)
        service = ScanService(crafted_program, num_shards=2)
        assert service.scan([Packet(payload=pattern[:9], header=header, packet_id=0)]).events == []

        snapshot = service.checkpoint()
        resumed = ScanService(crafted_program, num_shards=2)
        resumed.restore(snapshot)
        matches = resumed.scan([Packet(payload=pattern[9:], header=header, packet_id=1)]).events
        assert [m.string_number for m in matches] == [0]

    def test_restore_keeps_configured_capacity(self, crafted_program):
        snapshot = ScanService(
            crafted_program, num_shards=2, flow_capacity_per_shard=4096
        ).checkpoint()
        small = ScanService(crafted_program, num_shards=2, flow_capacity_per_shard=8)
        small.restore(snapshot)
        assert all(engine.flows.capacity == 8 for engine in small.engines)

    def test_restore_rejects_shard_mismatch(self, crafted_program):
        snapshot = ScanService(crafted_program, num_shards=2).checkpoint()
        with pytest.raises(ValueError):
            ScanService(crafted_program, num_shards=3).restore(snapshot)

    def test_num_shards_validation(self, crafted_program):
        with pytest.raises(ValueError):
            ScanService(crafted_program, num_shards=0)


# ----------------------------------------------------------------------
# multi-packet flow generation
# ----------------------------------------------------------------------
class TestFlowGeneration:
    def test_split_pattern_spans_boundary(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=13)
        flow = generator.flow(num_packets=4, split_patterns=1)
        assert len(flow.packets) == 4
        assert len(flow.split_sids) == 1
        pattern = next(
            rule.pattern for rule in small_ruleset if rule.sid == flow.split_sids[0]
        )
        assert pattern in flow.payload
        assert all(packet.header == flow.header for packet in flow.packets)

    def test_three_segment_split_occupies_middle(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=17)
        flow = generator.flow(num_packets=3, split_patterns=1, split_segments=3)
        pattern = next(
            rule.pattern for rule in small_ruleset if rule.sid == flow.split_sids[0]
        )
        assert pattern in flow.payload
        # the middle segment is exactly the pattern's middle fragment
        assert flow.packets[1].payload in pattern

    def test_whole_patterns_recorded_in_ground_truth(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=19)
        flow = generator.flow(num_packets=2, split_patterns=0, whole_patterns=2)
        assert len(flow.injected_sids) == 2 and flow.split_sids == []
        for sid in flow.injected_sids:
            pattern = next(rule.pattern for rule in small_ruleset if rule.sid == sid)
            assert any(pattern in packet.payload for packet in flow.packets)

    def test_flow_determinism(self, small_ruleset):
        first = TrafficGenerator(small_ruleset, seed=23).flow(num_packets=5)
        second = TrafficGenerator(small_ruleset, seed=23).flow(num_packets=5)
        assert [p.payload for p in first.packets] == [p.payload for p in second.packets]

    def test_interleave_preserves_per_flow_order(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=29)
        flows = generator.flows(3, num_packets=3)
        merged = TrafficGenerator.interleave(flows)
        assert len(merged) == 9
        for flow in flows:
            ids = [p.packet_id for p in merged if p.header == flow.header]
            assert ids == [p.packet_id for p in flow.packets]

    def test_validation_errors(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=1)
        with pytest.raises(ValueError):
            generator.flow(num_packets=0)
        with pytest.raises(ValueError):
            generator.flow(num_packets=1, split_patterns=1, split_segments=2)
        with pytest.raises(ValueError):
            generator.flow(num_packets=4, split_segments=4)
        with pytest.raises(ValueError):
            TrafficGenerator(None, seed=1).flow(split_patterns=1)


# ----------------------------------------------------------------------
# IDS entry point
# ----------------------------------------------------------------------
class TestIDSScanFlow:
    @staticmethod
    def build_ids() -> IntrusionDetectionSystem:
        rules = [
            IDSRule(
                sid=1001,
                header=HeaderPattern(protocol="tcp", dst_port="80"),
                contents=(b"EVILPAYLOADSIGNATURE",),
                msg="split signature",
            ),
            IDSRule(
                sid=1002,
                header=HeaderPattern(protocol="tcp"),
                contents=(b"XMALICIOUSSHELLCODEX", b"QQBACKDOORBEACONQQ"),
                msg="two contents",
            ),
        ]
        return IntrusionDetectionSystem(rules)

    def test_split_content_alerts_only_with_scan_flow(self):
        ids = self.build_ids()
        pattern = b"EVILPAYLOADSIGNATURE"
        header = make_header(1)
        packets = [
            Packet(payload=b"GET " + pattern[:7], header=header, packet_id=0),
            Packet(payload=pattern[7:] + b"\r\n", header=header, packet_id=1),
        ]
        assert ids.process(packets) == []  # stateless path misses the split
        alerts = ids.scan_flow(packets)
        assert [a.sid for a in alerts] == [1001]
        assert alerts[0].packet_id == 1  # completed in the second segment

    def test_multi_content_rule_completes_across_segments(self):
        ids = self.build_ids()
        header = make_header(2)
        packets = [
            Packet(payload=b"XMALICIOUSSHELLCODEX", header=header, packet_id=0),
            Packet(payload=b"filler", header=header, packet_id=1),
            Packet(payload=b"QQBACKDOOR", header=header, packet_id=2),
            Packet(payload=b"BEACONQQ", header=header, packet_id=3),
        ]
        alerts = ids.scan_flow(packets)
        assert [(a.sid, a.packet_id) for a in alerts] == [(1002, 3)]

    def test_alert_raised_once_per_flow(self):
        ids = self.build_ids()
        header = make_header(3)
        packets = [
            Packet(payload=b"EVILPAYLOADSIGNATURE", header=header, packet_id=i)
            for i in range(3)
        ]
        alerts = ids.scan_flow(packets)
        assert [a.sid for a in alerts] == [1001]

    def test_header_mismatch_suppresses_alert(self):
        ids = self.build_ids()
        header = FiveTuple("10.0.0.1", "192.168.0.1", 40000, 443, "tcp")  # not port 80
        packets = [
            Packet(payload=b"EVILPAYLOAD", header=header, packet_id=0),
            Packet(payload=b"SIGNATURE", header=header, packet_id=1),
        ]
        assert [a.sid for a in ids.scan_flow(packets)] == []

    def test_nocase_content_across_segments(self):
        rules = [
            IDSRule(
                sid=2001,
                header=HeaderPattern(),
                contents=(b"evilpayloadsignature",),
                nocase=(True,),
            )
        ]
        ids = IntrusionDetectionSystem(rules)
        header = make_header(4)
        packets = [
            Packet(payload=b"EvIlPaYlOaD", header=header, packet_id=0),
            Packet(payload=b"SiGnAtUrE", header=header, packet_id=1),
        ]
        assert [a.sid for a in ids.scan_flow(packets)] == [2001]

    def test_reset_flows_drops_state(self):
        ids = self.build_ids()
        header = make_header(5)
        ids.scan_flow([Packet(payload=b"EVILPAYLOAD", header=header, packet_id=0)])
        ids.reset_flows()
        alerts = ids.scan_flow([Packet(payload=b"SIGNATURE", header=header, packet_id=1)])
        assert alerts == []


# ----------------------------------------------------------------------
# hardware engine checkpointing
# ----------------------------------------------------------------------
class TestEngineCheckpointing:
    def test_resumed_engine_matches_contiguous_scan(self):
        """Suspend a flow mid-stream, resume on another engine, same matches."""
        ruleset = RuleSet(name="paper-example")
        for pattern in PAPER_EXAMPLE_PATTERNS:
            ruleset.add_pattern(pattern)
        program = compile_ruleset(ruleset, STRATIX_III)
        block = StringMatchingBlock(program.blocks[0])
        stream = b"xxshershe his"

        engine_a, engine_b = block.engines[0], block.engines[1]
        matched_offsets = []
        engine_a.start_packet(packet_id=7)
        for cycle, byte in enumerate(stream[:6]):
            match = engine_a.process_byte(byte, cycle)
            if match is not None:
                matched_offsets.append(match.end_offset)
        checkpoint = engine_a.export_flow_state()
        assert checkpoint.offset == 6

        engine_b.resume_flow(checkpoint, packet_id=8)
        for cycle, byte in enumerate(stream[6:], start=100):
            match = engine_b.process_byte(byte, cycle)
            if match is not None:
                matched_offsets.append(match.end_offset)

        expected = [offset for offset, _ in program.blocks[0].dtp.match(stream)]
        assert sorted(matched_offsets) == sorted(set(expected))

    def test_export_requires_packet_in_flight(self, small_program):
        block = StringMatchingBlock(small_program.blocks[0])
        with pytest.raises(RuntimeError):
            block.engines[0].export_flow_state()
