"""Property tests pinning the batched streaming hot path.

:meth:`repro.streaming.StreamScanner.scan_batch` is the only way bytes enter
a flow.  It concatenates each flow's segments into one backend crossing and
cuts the batch into runs wherever a new flow would evict.  The reference in
every test is the same method fed one item at a time (``scan_batch([item])``),
which is per-segment scanning by definition.  The tests hold the batched
path to it from three directions:

* **boundary splits** — every pattern, split at every offset across 2 and 3
  segment boundaries, must match identically one-shot vs streamed vs batched
  (the ScanState tail-carry property under the batched path);
* **statistics parity** — the batched path must report byte-identical
  :class:`ScannerStatistics` and :class:`FlowTableStatistics` counters, and
  leave the identical LRU recency order, as segment-at-a-time scanning;
* **eviction pressure** — a batch that evicts must produce the same events,
  eviction records, counters and restart behaviour as segment-at-a-time
  scanning, and cross into the backend once per flow per run.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest

from repro.backend import get_backend
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from repro.streaming import FlowKey, FlowTable, ScanService, StreamScanner
from repro.traffic import Packet, TrafficGenerator
from tests.conftest import packet_items, random_text, scan_one

BACKENDS = ("dense", "dtp")


def make_key(n: int = 0) -> FlowKey:
    return FlowKey(f"10.1.0.{n}", "192.168.9.9", 41000 + n, 80, "tcp")


def make_header(n: int = 0):
    from repro.traffic import FiveTuple

    return FiveTuple(f"10.1.0.{n}", "192.168.9.9", 41000 + n, 80, "tcp")


def segment_events(scanner: StreamScanner, key: FlowKey, segments):
    events = []
    for packet_id, segment in enumerate(segments):
        events.extend(scan_one(scanner, key, segment, packet_id))
    return [(e.end_offset, e.string_number) for e in events]


def one_at_a_time(scanner: StreamScanner, items):
    """The per-segment reference: ``scan_batch`` fed one item per call.

    Returns ``(per_item, evictions)`` in the batch's shape, eviction records
    re-indexed to the item that caused them."""
    per_item, evictions = [], []
    for position, item in enumerate(items):
        events, item_evictions = scanner.scan_batch([item])
        per_item.extend(events)
        evictions.extend((position, key) for _, key in item_evictions)
    return per_item, evictions


def lru_model(capacity: int, batches):
    """Eviction records per batch and the final LRU order of a plain LRU
    cache fed the items one at a time — an oracle that shares no code with
    the scanner."""
    table: "OrderedDict" = OrderedDict()
    per_batch = []
    for batch in batches:
        evictions = []
        for index, (key, _, _) in enumerate(batch):
            if key in table:
                table.move_to_end(key)
            else:
                table[key] = None
                if len(table) > capacity:
                    evictions.append((index, table.popitem(last=False)[0]))
        per_batch.append(evictions)
    return per_batch, list(table)


def assert_same_scanner_state(ours: StreamScanner, theirs: StreamScanner) -> None:
    """Identical counters, LRU order and per-flow registers."""
    assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
    assert dataclasses.asdict(ours.flows.stats) == dataclasses.asdict(theirs.flows.stats)
    # identical recency order → identical future eviction decisions
    assert ours.flows.keys() == theirs.flows.keys()
    for key in theirs.flows.keys():
        mine, reference = ours.flows.peek(key), theirs.flows.peek(key)
        assert mine.packets == reference.packets
        assert mine.states == reference.states
        assert mine.lower_states == reference.lower_states


class CountingProgram:
    """Delegates to a compiled program and counts backend crossings."""

    def __init__(self, program):
        self.program = program
        self.crossings = 0

    def __getattr__(self, name):
        return getattr(self.program, name)

    def scan_chunk(self, states, data):
        self.crossings += 1
        return self.program.scan_chunk(states, data)


def batch_events(scanner: StreamScanner, key: FlowKey, segments):
    per_item, evictions = scanner.scan_batch(
        [(key, segment, packet_id) for packet_id, segment in enumerate(segments)]
    )
    assert evictions == []
    return [(e.end_offset, e.string_number) for item in per_item for e in item]


# ----------------------------------------------------------------------
# every pattern, every split offset, 2 and 3 segments
# ----------------------------------------------------------------------
class TestBoundarySplits:
    @pytest.fixture(scope="class", params=BACKENDS)
    def compiled(self, request):
        rng = __import__("random").Random(2026)
        patterns = [rule.pattern for rule in generate_snort_like_ruleset(10, seed=33)]
        patterns += [b"he", b"she", b"hers", b"aBcDeF"]
        payloads = []
        for pattern in patterns:
            body = bytearray(random_text(rng, 8) + pattern + random_text(rng, 8))
            payloads.append(bytes(body))
        return get_backend(request.param).compile(patterns), payloads

    def test_two_segment_split_at_every_offset(self, compiled):
        program, payloads = compiled
        for flow_n, payload in enumerate(payloads):
            expected = program.scan(payload)
            assert expected, "every payload embeds its pattern"
            for cut in range(1, len(payload)):
                segments = [payload[:cut], payload[cut:]]
                for events_of in (segment_events, batch_events):
                    scanner = StreamScanner(program)
                    got = events_of(scanner, make_key(flow_n), segments)
                    assert got == expected, (
                        f"pattern #{flow_n} split at {cut} via {events_of.__name__}"
                    )

    def test_three_segment_splits_across_the_pattern(self, compiled):
        """Both boundaries land inside the embedded pattern, the regime where
        the tail-carry state does all the work."""
        program, payloads = compiled
        for flow_n, payload in enumerate(payloads):
            expected = program.scan(payload)
            lo, hi = 8, len(payload) - 8  # the embedded pattern's span
            for first in range(lo + 1, hi):
                for second in range(first + 1, hi):
                    segments = [payload[:first], payload[first:second], payload[second:]]
                    for events_of in (segment_events, batch_events):
                        scanner = StreamScanner(program)
                        got = events_of(scanner, make_key(flow_n), segments)
                        assert got == expected, (
                            f"pattern #{flow_n} split at ({first}, {second}) "
                            f"via {events_of.__name__}"
                        )


# ----------------------------------------------------------------------
# statistics parity: batched == per-segment, to the counter
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def drift_ruleset() -> RuleSet:
    return generate_snort_like_ruleset(30, seed=91)


@pytest.fixture(scope="module")
def drift_workload(drift_ruleset):
    generator = TrafficGenerator(drift_ruleset, seed=92)
    flows = generator.flows(9, num_packets=5, split_patterns=1, segment_bytes=70)
    return TrafficGenerator.interleave(flows)


class TestStatisticsParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_scanner_counters_and_lru_order_identical(
        self, drift_ruleset, drift_workload, backend, track_nocase
    ):
        program = get_backend(backend).compile(drift_ruleset.patterns)
        reference = StreamScanner(program, track_nocase=track_nocase)
        batched = StreamScanner(program, track_nocase=track_nocase)

        items = packet_items(drift_workload)
        expected, _ = one_at_a_time(reference, items)
        got, evictions = batched.scan_batch(items)

        assert got == expected
        assert evictions == []
        assert_same_scanner_state(batched, reference)

    def test_service_stats_identical_to_per_packet_submit(
        self, drift_ruleset, drift_workload
    ):
        """ScanService.scan over the whole batch vs one scan() per packet:
        same events, same stats() dict, same per-engine counters."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        batched_service = ScanService(program, num_shards=3)
        submit_service = ScanService(program, num_shards=3)

        result = batched_service.scan(drift_workload)
        submitted = []
        for packet in drift_workload:
            submitted.extend(submit_service.scan([packet]).events)

        assert sorted(
            result.events, key=lambda e: (e.packet_id, e.end_offset, e.string_number)
        ) == sorted(
            submitted, key=lambda e: (e.packet_id, e.end_offset, e.string_number)
        )
        assert batched_service.stats() == submit_service.stats()
        for ours, theirs in zip(batched_service.engines, submit_service.engines):
            assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
            assert dataclasses.asdict(ours.flows.stats) == dataclasses.asdict(
                theirs.flows.stats
            )


# ----------------------------------------------------------------------
# eviction pressure: exact runs, exact records
# ----------------------------------------------------------------------
class TestEvictionPressure:
    @staticmethod
    def build_items(num_flows: int, segments: int):
        rng = __import__("random").Random(17)
        items = []
        for seg in range(segments):
            for flow in range(num_flows):
                items.append((make_key(flow), random_text(rng, 40), seg))
        return items

    @pytest.mark.parametrize("capacity", (1, 2, 3))
    def test_fallback_matches_per_segment_loop(self, drift_ruleset, capacity):
        """Under eviction pressure scan_batch must behave exactly like
        per-segment scanning — events, counters, eviction records with the
        per-item positions the IDS correlates on."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        items = self.build_items(num_flows=4, segments=3)

        reference = StreamScanner(program, FlowTable(capacity))
        expected, expected_evictions = one_at_a_time(reference, items)

        batched = StreamScanner(program, FlowTable(capacity))
        got, evictions = batched.scan_batch(items)

        assert got == expected
        assert evictions == expected_evictions
        assert evictions, "the workload must actually evict"
        assert_same_scanner_state(batched, reference)
        model_evictions, model_order = lru_model(capacity, [items])
        assert evictions == model_evictions[0]
        assert batched.flows.keys() == model_order

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("capacity", (1, 2, 3, 4))
    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_seeded_skewed_flows_match_one_item_calls(
        self, drift_ruleset, seed, capacity, track_nocase
    ):
        """Six flows with skewed popularity: the hot flows form long runs
        between evictions, and evicted cold flows come back later in the
        same batch and restart.  Split across two batches so the second
        starts from a full table."""
        rng = __import__("random").Random(seed)
        patterns = drift_ruleset.patterns
        program = get_backend("dense").compile(patterns)
        weights = (20, 10, 5, 3, 2, 1)
        items = []
        for packet_id in range(120):
            flow = rng.choices(range(len(weights)), weights)[0]
            payload = random_text(rng, rng.randrange(1, 30))
            if rng.random() < 0.3:  # split patterns across segments
                payload += rng.choice(patterns)[: rng.randrange(1, 6)].upper()
            elif rng.random() < 0.3:
                payload = rng.choice(patterns) + payload
            items.append((make_key(flow), payload, packet_id))

        counting = CountingProgram(program)
        reference = StreamScanner(program, FlowTable(capacity), track_nocase=track_nocase)
        batched = StreamScanner(counting, FlowTable(capacity), track_nocase=track_nocase)
        batches = (items[:70], items[70:])
        model_evictions, model_order = lru_model(capacity, batches)
        returning = 0
        for batch, model in zip(batches, model_evictions):
            expected, expected_evictions = one_at_a_time(reference, batch)
            got, evictions = batched.scan_batch(batch)
            assert got == expected
            assert evictions == expected_evictions == model
            assert_same_scanner_state(batched, reference)
            returning += sum(
                any(item[0] == key for item in batch[index + 1:])
                for index, key in evictions
            )
        assert batched.flows.keys() == model_order

        assert batched.flows.stats.evicted > 0, "the workload must evict"
        assert returning > 0, "an evicted flow must come back in its batch"
        views = 2 if track_nocase else 1
        assert counting.crossings < views * len(items), "runs must coalesce"
        assert batched.stats.matches > 0, "the workload must match"

    def test_exactly_full_table_stays_on_the_fast_path(self, drift_ruleset):
        """A batch that fills the table to exactly its capacity cannot evict
        and is one run (no eviction records, same results)."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        items = self.build_items(num_flows=4, segments=2)
        scanner = StreamScanner(program, FlowTable(capacity=4))
        per_item, evictions = scanner.scan_batch(items)
        assert evictions == []
        assert scanner.flows.stats.evicted == 0
        assert len(scanner.flows) == 4

        # ...and the next batch introducing a fifth flow evicts the LRU flow
        extra = [(make_key(9), b"overflow-segment", 0)]
        _, second_evictions = scanner.scan_batch(extra)
        assert second_evictions == [(0, make_key(0))]
        assert scanner.flows.stats.evicted == 1

    def test_one_new_flow_costs_one_extra_crossing(self, drift_ruleset):
        """A full 200-flow table, 4,000 segments of its live flows and one
        packet of a new flow: one crossing per live flow plus one for the
        new flow, not one per segment."""
        program = CountingProgram(get_backend("dense").compile(drift_ruleset.patterns))
        flows = 200
        scanner = StreamScanner(program, FlowTable(capacity=flows))
        scanner.scan_batch([(make_key(n), b"warm", 0) for n in range(flows)])
        items = [
            (make_key(n % flows), b"segment-%d" % n, n) for n in range(20 * flows)
        ]
        items.append((make_key(flows), b"new-flow", len(items)))

        program.crossings = 0
        _, evictions = scanner.scan_batch(items)
        assert program.crossings == flows + 1
        # the first warm flow's last segment is the oldest: it is the victim
        assert evictions == [(len(items) - 1, make_key(0))]

    def test_service_level_eviction_equivalence(self, drift_ruleset):
        """End to end: a capacity-1 sharded service reports identical events
        and eviction counters whether batched or per-packet."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        packets = []
        for seg in range(3):
            for flow in range(5):
                packets.append(
                    Packet(
                        payload=b"x" * 30 + bytes([65 + flow]) * 10,
                        header=make_header(flow),
                        packet_id=seg,
                    )
                )
        batched = ScanService(program, num_shards=2, flow_capacity_per_shard=1)
        per_packet = ScanService(program, num_shards=2, flow_capacity_per_shard=1)
        result = batched.scan(packets)
        for packet in packets:
            per_packet.scan([packet])
        assert batched.stats() == per_packet.stats()
        assert batched.evicted_flows > 0
        assert result.packets == len(packets)
