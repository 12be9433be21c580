"""Stateful flow scanning over one compiled matcher program.

A :class:`StreamScanner` is the software model of one string matching engine
that has been taught to multiplex flows: before scanning a segment it loads
the flow's checkpointed :class:`repro.backend.ScanState` registers from its
:class:`repro.streaming.flow.FlowTable`, and afterwards it stores them back.
Because the state carries everything the backend needs to resume (automaton
state, two-byte history, tail buffer), a pattern split across consecutive
segments of a flow is found exactly as if the segments had arrived as one
contiguous payload — the property the per-packet ``match`` path cannot
provide.

The scanner is written against the :class:`repro.backend.CompiledProgram`
protocol, so *any* backend — the device-partitioned
:class:`repro.core.AcceleratorProgram`, the compiled dense table, a plain
DFA, even Wu-Manber — multiplexes flows through the identical code path.
Higher layers stack the sharded services on top of it; the declarative
:class:`repro.api.Session` facade composes the whole column from one
:class:`repro.api.PipelineConfig`.

Hot path
--------
:meth:`StreamScanner.scan_batch` is the only way bytes enter a flow.  The
sharded services feed it whole shard batches; it concatenates each flow's
segments and crosses into the backend once per flow instead of once per
segment, then re-attributes the matches to their segments by offset.  A
batch that must evict is cut into runs at each new flow that does not fit
the table: every multi-item run is eviction-free, and the cutting item is
scanned alone and evicts exactly one flow, so events, statistics and LRU
order are byte-identical to scanning one segment at a time (the
differential tests in the suite hold it to that).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowKey, FlowTable

#: Flow key used when a packet carries no 5-tuple header (treated as one
#: anonymous flow so bare payload streams can still be scanned statefully).
ANONYMOUS_FLOW = FlowKey("0.0.0.0", "0.0.0.0", 0, 0, "raw")

#: One batch item: ``(FlowKey, payload, packet_id)`` — what
#: :meth:`StreamScanner.scan_batch` consumes, in process and in the workers.
BatchItem = Tuple[FlowKey, bytes, int]

#: Per-batch eviction record: ``(item_index, FlowKey)`` — the flow evicted
#: while the batch item at ``item_index`` was being scanned.
Eviction = Tuple[int, FlowKey]


class StreamMatch:
    """A match found while scanning a flow segment.

    ``end_offset`` is the position one past the match's final byte in the
    *flow's* byte stream (not the segment), so a cross-segment match reports
    an offset beyond the current segment's start.  ``lowered`` marks hits
    found in the lower-cased view of the stream (case-insensitive scanning).

    A ``__slots__`` record rather than a dataclass: the streaming hot loop
    creates one per match event, and slot instances allocate without a
    per-instance ``__dict__``.  Equality, hashing and repr keep the frozen
    dataclass semantics the rest of the suite was written against.
    """

    __slots__ = ("flow", "packet_id", "end_offset", "string_number", "lowered")

    def __init__(
        self,
        flow: FlowKey,
        packet_id: int,
        end_offset: int,
        string_number: int,
        lowered: bool = False,
    ):
        self.flow = flow
        self.packet_id = packet_id
        self.end_offset = end_offset
        self.string_number = string_number
        self.lowered = lowered

    def _key(self) -> Tuple[FlowKey, int, int, int, bool]:
        return (self.flow, self.packet_id, self.end_offset, self.string_number, self.lowered)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamMatch):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"StreamMatch(flow={self.flow!r}, packet_id={self.packet_id!r}, "
            f"end_offset={self.end_offset!r}, string_number={self.string_number!r}, "
            f"lowered={self.lowered!r})"
        )


@dataclass
class ScannerStatistics:
    segments: int = 0
    bytes_scanned: int = 0
    matches: int = 0
    cross_segment_matches: int = 0


class StreamScanner:
    """One flow-multiplexing scan engine around any compiled matcher program.

    ``program`` is anything honouring the :class:`repro.backend.CompiledProgram`
    protocol.  ``capacity`` sizes the internally created flow table and is
    ignored when an explicit ``flow_table`` is supplied (the table's own
    bound applies).
    """

    def __init__(
        self,
        program: CompiledProgram,
        flow_table: Optional[FlowTable] = None,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: bool = False,
    ):
        self.program = program
        self.flows = flow_table if flow_table is not None else FlowTable(capacity)
        self.track_nocase = track_nocase
        self.stats = ScannerStatistics()
        self._pattern_length = {
            index: len(pattern) for index, pattern in enumerate(program.patterns)
        }
        # The canonical tuple-in/tuple-out fast call; programs predating
        # scan_chunk (or wrappers like HardwareAccelerator) fall back to the
        # coercing scan_from, which is semantically identical.
        self._scan = getattr(program, "scan_chunk", program.scan_from)

    # ------------------------------------------------------------------
    def _new_entry(self, key: FlowKey) -> FlowEntry:
        return FlowEntry(
            key=key,
            states=self.program.initial_scan_states(),
            lower_states=(
                self.program.initial_scan_states() if self.track_nocase else None
            ),
        )

    @staticmethod
    def flow_key(packet: Packet) -> FlowKey:
        return (
            FlowKey.from_header(packet.header)
            if packet.header is not None
            else ANONYMOUS_FLOW
        )

    # ------------------------------------------------------------------
    def _scan_segments(
        self, entry: FlowEntry, segments: Sequence[BatchItem]
    ) -> List[List[StreamMatch]]:
        """The scan kernel: the next consecutive segments of ``entry``'s flow.

        The segments cross into the backend as one chunk (joined when there
        is more than one) in the raw view and, with nocase tracking, in the
        lowered view; each match is attributed to the segment holding its
        final byte.  Returns one event list per segment and updates the
        scanner statistics; flow-table bookkeeping and ``entry.packets`` are
        the caller's.
        """
        base = entry.bytes_scanned
        if len(segments) == 1:
            data = segments[0][1]
        else:
            data = b"".join([segment[1] for segment in segments])
        raw, entry.states = self._scan(entry.states, data)
        lowered: Sequence[Tuple[int, int]] = ()
        if self.track_nocase:
            if entry.lower_states is None:
                # e.g. a flow restored from a checkpoint written without
                # nocase tracking: restart the lowered view rather than
                # silently never matching case-insensitively again.  Seed it
                # at the raw stream offset so lowered matches keep reporting
                # flow-absolute positions (and dedup against raw hits works).
                entry.lower_states = self.program.initial_scan_states(offset=base)
            lowered, entry.lower_states = self._scan(
                entry.lower_states, data.lower()
            )
            if lowered:
                # an occurrence that is already lower-case matches in both
                # views; report it once (the raw event) so statistics are
                # not inflated
                raw_hits = set(raw)
                lowered = [hit for hit in lowered if hit not in raw_hits]

        stats = self.stats
        stats.segments += len(segments)
        stats.bytes_scanned += len(data)
        per_segment: List[List[StreamMatch]] = [[] for _ in segments]
        if not raw and not lowered:
            return per_segment
        # ends[j] = flow-absolute end offset of segment j; a match with end
        # offset o belongs to the segment with the smallest end >= o (its
        # final byte is at o - 1 < ends[j]).
        ends: List[int] = []
        acc = base
        for segment in segments:
            acc += len(segment[1])
            ends.append(acc)
        pattern_length = self._pattern_length
        for hits, is_lowered in ((raw, False), (lowered, True)):
            for offset, number in hits:
                j = bisect_left(ends, offset)
                key, payload, packet_id = segments[j]
                per_segment[j].append(
                    StreamMatch(key, packet_id, offset, number, is_lowered)
                )
                # the match ends in this segment but started before it
                if offset - pattern_length[number] < ends[j] - len(payload):
                    stats.cross_segment_matches += 1
        stats.matches += len(raw) + len(lowered)
        return per_segment

    # ------------------------------------------------------------------
    # batched scanning: the one way bytes enter a flow
    # ------------------------------------------------------------------
    def scan_batch(
        self, items: Sequence[BatchItem]
    ) -> Tuple[List[List[StreamMatch]], List[Eviction]]:
        """Scan a batch of ``(key, payload, packet_id)`` segments in order.

        Returns ``(per_item, evictions)``: ``per_item[i]`` is the event list
        of ``items[i]``, and ``evictions`` records ``(item_index, key)`` for
        every flow LRU-evicted while item ``item_index`` was being scanned.
        Results, statistics and final table state are exactly those of
        scanning the items one at a time (``scan_batch([item])`` each).

        The batch is cut into runs.  A run grows while every new flow in it
        still fits the table, so it cannot evict: each of its flows'
        segments cross into the backend as one chunk and LRU recency is
        replayed in per-segment order afterwards.  The first new flow that
        does not fit ends the run and is scanned alone, evicting exactly one
        least recently used flow; a fresh run starts after it.
        """
        flows = self.flows
        # every slot is filled below: each item lands in exactly one run
        per_item: list = [None] * len(items)
        evictions: List[Eviction] = []
        run: Dict[FlowKey, List[int]] = {}
        room = flows.capacity - len(flows)
        for index, item in enumerate(items):
            key = item[0]
            indexes = run.get(key)
            if indexes is not None:
                indexes.append(index)
            elif key in flows:
                run[key] = [index]
            elif room > 0:
                room -= 1
                run[key] = [index]
            else:
                self._scan_run(items, run, per_item, evictions)
                self._scan_run(items, {key: [index]}, per_item, evictions)
                run = {}
                room = flows.capacity - len(flows)
        self._scan_run(items, run, per_item, evictions)
        return per_item, evictions

    def _scan_run(
        self,
        items: Sequence[BatchItem],
        run: Dict[FlowKey, List[int]],
        per_item: List[List[StreamMatch]],
        evictions: List[Eviction],
    ) -> None:
        """Scan one run of :meth:`scan_batch`: ``run`` maps each flow to its
        item indexes, flows in first-arrival order.  Only a one-item run can
        evict (its flow is new and the table full)."""
        flows = self.flows
        for key, indexes in run.items():
            entry = flows.peek(key)
            if entry is None:
                entry = self._new_entry(key)
                victim = flows.insert(entry)
                if victim is not None:
                    evictions.append((indexes[0], victim.key))
            entry.packets += len(indexes)
            per_segment = self._scan_segments(
                entry, [items[index] for index in indexes]
            )
            for index, events in zip(indexes, per_segment):
                per_item[index] = events
        # Replay LRU recency in per-segment order: the grouped walk only
        # moved new flows to the front, in first-arrival order, but
        # per-segment scanning leaves flows ordered by their *last* segment.
        for key in sorted(run, key=lambda flow: run[flow][-1]):
            flows.touch(key)

    @property
    def active_flows(self) -> int:
        return len(self.flows)


__all__ = [
    "ANONYMOUS_FLOW",
    "BatchItem",
    "Eviction",
    "ScannerStatistics",
    "StreamMatch",
    "StreamScanner",
]
