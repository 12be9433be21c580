"""End-to-end mini intrusion detection pipeline.

Combines the two halves of a DPI rule the way the paper describes them being
used on a router line card, as a *two-stage* software IDS:

1. the *header* of every packet goes through 5-tuple classification
   (:mod:`repro.ids.classifier`);
2. the *payload* goes through the string matching accelerator
   (:mod:`repro.hardware` when simulating hardware, or the software
   :class:`repro.core.DTPAutomaton` matcher) — the line-rate **prefilter**,
   which reports where every rule content (negated ones included) occurs;
3. the **confirm** stage (:mod:`repro.ids.confirm`) evaluates each candidate
   rule's full :class:`~repro.rulesets.parser.RulePredicate` — positional
   windows, negation, pcre — against the prefilter's absolute hit positions,
   and an alert is raised only when header and predicate both hold.

Rules without negation alert at the first packet where the predicate holds;
rules with negated components are decided at flow end (:meth:`finish`) or
eviction, attributed to the flow's last seen packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..backend import CompiledProgram, get_backend
from ..core.accelerator_config import compile_ruleset
from ..fpga.devices import FPGADevice, STRATIX_III
from ..hardware.accelerator import HardwareAccelerator
from ..proto.http import HttpStream
from ..rulesets.parser import (
    ContentPattern,
    RulePredicate,
    SidAllocator,
    SnortRuleSpec,
)
from ..rulesets.ruleset import RuleSet
from ..streaming.executor import ParallelScanService
from ..streaming.flow import DEFAULT_FLOW_CAPACITY
from ..streaming.scanner import StreamScanner
from ..streaming.service import ScanService, ShardedScanServiceBase
from ..traffic.packet import Packet
from .classifier import HeaderClassifier, HeaderPattern
from .confirm import ConfirmStage, RuleEvaluator, merged_occurrences


@dataclass(frozen=True)
class IDSRule:
    """One complete IDS rule: header pattern plus a content predicate.

    ``contents`` holds the *positive raw-stream* content strings — what the
    prefilter can gate on — stored as effective patterns (lower-cased when
    the matching ``nocase`` flag is set).  ``predicate`` is the full match
    predicate (positional windows, negated contents, sticky-buffer
    contents, pcres); when omitted it is derived from ``contents``/
    ``nocase`` as the plain "every string occurs somewhere" predicate,
    which keeps the historical constructor behaviour intact.  ``contents``
    may be empty only when the predicate carries a positive sticky-buffer
    content — such a rule has nothing for the prefilter, and its candidacy
    is gated on the flow producing a normalized HTTP buffer instead.
    """

    sid: int
    header: HeaderPattern
    contents: Tuple[bytes, ...]
    msg: str = ""
    action: str = "alert"
    nocase: Tuple[bool, ...] = ()
    predicate: Optional[RulePredicate] = None

    def __post_init__(self) -> None:
        if not self.contents:
            if self.predicate is None or not any(
                not c.negated for c in self.predicate.sticky
            ):
                raise ValueError(f"rule {self.sid} has no content strings")
        if self.nocase and len(self.nocase) != len(self.contents):
            raise ValueError(f"rule {self.sid}: nocase flags do not match contents")
        if self.predicate is None:
            flags = self.nocase or (False,) * len(self.contents)
            object.__setattr__(
                self,
                "predicate",
                RulePredicate(
                    contents=tuple(
                        ContentPattern(pattern=content, nocase=flag)
                        for content, flag in zip(self.contents, flags)
                    )
                ),
            )
        else:
            positives = tuple(
                c.effective_pattern() for c in self.predicate.raw_positive
            )
            if positives != tuple(self.contents):
                raise ValueError(
                    f"rule {self.sid}: contents do not match the predicate's "
                    "positive raw-stream contents"
                )

    def content_flags(self) -> Tuple[Tuple[bytes, bool], ...]:
        flags = self.nocase or (False,) * len(self.contents)
        return tuple(zip(self.contents, flags))


@dataclass(frozen=True)
class Alert:
    """An alert raised for a packet."""

    packet_id: int
    sid: int
    msg: str
    action: str


@dataclass
class IDSStatistics:
    packets_processed: int = 0
    payload_bytes: int = 0
    header_candidates: int = 0
    content_matches: int = 0
    alerts_raised: int = 0


class IntrusionDetectionSystem:
    """A miniature Snort-style IDS driven by the paper's accelerator.

    ``backend`` selects the content matcher (any name registered in
    :mod:`repro.backend`).  The default ``"dtp"`` compiles the device-mapped
    accelerator program and is the only backend the cycle-level hardware
    model can execute; every other backend runs the same pipeline through
    its compiled program.

    :meth:`scan_flow` scans through a sharded flow-scan service: the
    in-process :class:`repro.streaming.ScanService` with one shard by
    default, or, with ``workers`` set, the process-parallel
    :class:`repro.streaming.ParallelScanService` with one shard per worker
    process.  Both feed the same confirm stage and checkpoint through the
    same service envelope.  Call :meth:`close` (or :meth:`reset_flows`) to
    shut a worker pool down when done.
    """

    def __init__(
        self,
        rules: Sequence[IDSRule],
        device: FPGADevice = STRATIX_III,
        use_hardware_model: bool = False,
        backend: str = "dtp",
        workers: Optional[int] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if not rules:
            raise ValueError("at least one rule is required")
        self.rules: Dict[int, IDSRule] = {}
        for rule in rules:
            if rule.sid in self.rules:
                raise ValueError(f"duplicate sid {rule.sid}")
            self.rules[rule.sid] = rule
        self.device = device
        self.use_hardware_model = use_hardware_model
        self.stats = IDSStatistics()

        self.classifier = HeaderClassifier()
        for rule in rules:
            self.classifier.add_rule(rule.sid, rule.header)

        # Build the prefilter ruleset (the patterns ``program`` compiles):
        # unique strings across all rules' predicates — negated contents
        # included, because the confirm stage decides negation windows from
        # their *occurrence* positions.
        # Contents flagged nocase are stored lower-cased and additionally
        # searched in a lower-cased view of each payload.
        self.prefilter_ruleset = RuleSet(name="ids-contents")
        self._string_to_rules: Dict[bytes, Set[int]] = {}
        self._nocase_patterns: Set[bytes] = set()
        for rule in rules:
            for content in rule.predicate.contents:
                if content.is_sticky:
                    continue  # tested against normalized buffers, not the stream
                pattern = content.effective_pattern()
                if content.nocase:
                    self._nocase_patterns.add(pattern)
                if not content.negated:
                    self._string_to_rules.setdefault(pattern, set()).add(rule.sid)
                if pattern not in self.prefilter_ruleset:
                    self.prefilter_ruleset.add_pattern(pattern)
        if len(self.prefilter_ruleset) == 0:
            # every rule is pure-sticky: the prefilter has nothing to search
            # on the raw stream, but the scan machinery needs a compiled
            # program — seed it with the sticky patterns.  Their raw
            # occurrences are never referenced by any evaluator step, so the
            # extra prefilter work cannot change a verdict.
            for rule in rules:
                for content in rule.predicate.contents:
                    pattern = content.effective_pattern()
                    if pattern not in self.prefilter_ruleset:
                        self.prefilter_ruleset.add_pattern(pattern)

        self.backend = backend
        if backend == "dtp":
            self.program: CompiledProgram = compile_ruleset(self.prefilter_ruleset, device)
        else:
            if use_hardware_model:
                raise ValueError(
                    "the cycle-level hardware model only executes the 'dtp' "
                    f"backend, not {backend!r}"
                )
            self.program = get_backend(backend).compile(self.prefilter_ruleset.patterns)
        self._number_to_pattern = {
            index: rule.pattern for index, rule in enumerate(self.prefilter_ruleset)
        }
        number_of = {
            rule.pattern: index for index, rule in enumerate(self.prefilter_ruleset)
        }
        self._nocase_numbers = {number_of[p] for p in self._nocase_patterns}
        #: per-rule compiled predicates bound to the prefilter numbering
        self._evaluators: Dict[int, RuleEvaluator] = {
            rule.sid: RuleEvaluator(rule.sid, rule.predicate, number_of)
            for rule in rules
        }
        #: the confirm stage: fed from the flow-scan service's StreamMatch
        #: events, serial or parallel alike
        self._confirm = ConfirmStage(self._evaluators.values())
        self.accelerator: Optional[HardwareAccelerator] = (
            HardwareAccelerator(self.program) if use_hardware_model else None
        )
        #: content matcher used by :meth:`process` (protocol-conformant)
        self._matcher: CompiledProgram = (
            self.accelerator if self.accelerator is not None else self.program
        )
        self._service: Optional[ShardedScanServiceBase] = None
        self._flow_capacity = DEFAULT_FLOW_CAPACITY
        self.workers = workers

    # ------------------------------------------------------------------
    @classmethod
    def from_ruleset(
        cls,
        ruleset,
        device: FPGADevice = STRATIX_III,
        use_hardware_model: bool = False,
        backend: str = "dtp",
        workers: Optional[int] = None,
    ) -> "IntrusionDetectionSystem":
        """Build an IDS with one wildcard-header rule per ruleset pattern.

        The wildcard header keeps every packet a candidate, so detection is
        decided purely by the content matcher — the construction the CLI and
        :class:`repro.api.Session` use for synthetic rulesets.
        """
        rules = [
            IDSRule(sid=rule.sid, header=HeaderPattern(), contents=(rule.pattern,))
            for rule in ruleset
        ]
        return cls(
            rules,
            device=device,
            use_hardware_model=use_hardware_model,
            backend=backend,
            workers=workers,
        )

    @classmethod
    def from_specs(
        cls,
        specs: Iterable[SnortRuleSpec],
        device: FPGADevice = STRATIX_III,
        use_hardware_model: bool = False,
        backend: str = "dtp",
        workers: Optional[int] = None,
        sid_remap: Optional[Dict[int, int]] = None,
    ) -> "IntrusionDetectionSystem":
        """Build an IDS from parsed Snort rules.

        Each spec's full predicate (positional modifiers, negated contents,
        sticky-buffer contents, pcres) is carried into the confirm stage.
        Rules without a single positive content are skipped — the prefilter
        has nothing to anchor on (parse with ``strict=True`` to reject such
        rules instead; see :attr:`repro.api.Session.skipped_rules` for the
        count).  A rule whose only positive contents target a normalized
        HTTP buffer is kept: the prefilter never sees it, and the confirm
        stage gates its candidacy on the flow parsing as HTTP.

        Sid assignment is the shared :class:`repro.rulesets.parser.SidAllocator`
        policy: the first rule claiming a sid keeps it, later claimants (and
        sid-less rules) get the lowest free sid no spec claims explicitly —
        a rules file with colliding or missing sids loads instead of tripping
        the duplicate-sid constructor check, and reassignments are recorded
        in ``sid_remap`` (when given) exactly as :func:`ruleset_from_specs`
        records them.
        """
        specs = list(specs)
        allocator = SidAllocator(specs, sid_remap)
        rules: List[IDSRule] = []
        for spec in specs:
            if not spec.positive_contents:
                continue
            positives = [c for c in spec.positive_contents if not c.is_sticky]
            sid = allocator.assign(spec.sid)
            rules.append(
                IDSRule(
                    sid=sid,
                    header=HeaderPattern(
                        protocol=spec.header.protocol,
                        src_ip=spec.header.src_ip,
                        src_port=spec.header.src_port,
                        dst_ip=spec.header.dst_ip,
                        dst_port=spec.header.dst_port,
                    ),
                    contents=tuple(c.effective_pattern() for c in positives),
                    msg=spec.msg,
                    action=spec.header.action,
                    nocase=tuple(c.nocase for c in positives),
                    predicate=spec.predicate,
                )
            )
        return cls(
            rules,
            device=device,
            use_hardware_model=use_hardware_model,
            backend=backend,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def _alert(self, packet_id: int, sid: int) -> Alert:
        """Raise (and count) rule ``sid``'s alert on packet ``packet_id``."""
        rule = self.rules[sid]
        self.stats.alerts_raised += 1
        return Alert(packet_id=packet_id, sid=sid, msg=rule.msg, action=rule.action)

    def _match_positions(
        self, payload: bytes
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Occurrence end-offsets per string number, raw and lowered view.

        The payload is scanned as-is; when any rule uses ``nocase`` a
        lower-cased copy is scanned as well (its hits credit only the
        case-insensitive patterns at evaluation time).
        """
        matcher = self._matcher  # accelerator and program share the protocol
        raw: Dict[int, List[int]] = {}
        for end, number in matcher.match(payload):
            raw.setdefault(number, []).append(end)
        lower: Dict[int, List[int]] = {}
        if self._nocase_patterns:
            for end, number in matcher.match(payload.lower()):
                lower.setdefault(number, []).append(end)
        return raw, lower

    def process(self, packets: Sequence[Packet]) -> List[Alert]:
        """Run the full pipeline over ``packets`` and return the alerts raised.

        Stateless: every packet is its own complete "flow", so predicates —
        negation included — are decided per packet (``at_end`` semantics).
        """
        alerts: List[Alert] = []
        for packet in packets:
            self.stats.packets_processed += 1
            self.stats.payload_bytes += len(packet.payload)
            raw, lower = self._match_positions(packet.payload)
            hits = set(raw) | (set(lower) & self._nocase_numbers)
            self.stats.content_matches += len(hits)
            candidates = self.classifier.classify(packet.header)
            self.stats.header_candidates += len(candidates)
            http: Optional[HttpStream] = None
            if self._confirm.needs_http:
                # stateless: the packet is its own flow, so it gets its own
                # normalizer (mirroring the per-flow one in scan_flow)
                http = HttpStream()
                http.feed(packet.payload)
            for sid in candidates:
                evaluator = self._evaluators[sid]

                def occ(step, raw=raw, lower=lower):
                    return merged_occurrences(step, raw, lower)

                if not all(occ(step) for step in evaluator.positive_steps):
                    continue
                buffer = packet.payload if evaluator.needs_buffer else None
                if evaluator.evaluate(
                    occ, len(packet.payload), buffer, at_end=True, http=http
                ):
                    alerts.append(self._alert(packet.packet_id, sid))
        return alerts

    # ------------------------------------------------------------------
    # stateful (streaming) scanning
    # ------------------------------------------------------------------
    @property
    def flow_scanner(self) -> ShardedScanServiceBase:
        """The lazily created flow-scan service backing :meth:`scan_flow`.

        One in-process shard without ``workers``; with ``workers``, one
        shard per worker process.  Each shard's flow table holds at most
        the configured flow capacity.  A service built here (first use, or
        after :meth:`close` shut a worker pool down) starts with empty flow
        tables, so the confirm stage starts afresh with it.
        """
        if self._service is None:
            self._confirm.reset()
            track_nocase = bool(self._nocase_patterns)
            if self.workers is None:
                self._service = ScanService(
                    self.program,
                    num_shards=1,
                    flow_capacity_per_shard=self._flow_capacity,
                    track_nocase=track_nocase,
                )
            else:
                self._service = ParallelScanService(
                    self.program,
                    num_shards=self.workers,
                    flow_capacity_per_shard=self._flow_capacity,
                    track_nocase=track_nocase,
                    workers=self.workers,
                )
        return self._service

    def reset_flows(self, capacity: Optional[int] = None) -> None:
        """Drop all tracked flow state (optionally resizing the flow table)."""
        if capacity is not None:
            self._flow_capacity = capacity
        self.close()
        self._service = None
        self._confirm.reset()

    def close(self) -> None:
        """Shut down the parallel scan workers, if any were started.

        Only the pool goes: the confirm stage keeps its flows, so
        :meth:`finish` after :meth:`close` decides the same pending
        verdicts with or without workers.  (A serial IDS keeps its flow
        tables too; a pool rebuilt by a later scan starts afresh.)
        """
        if self.workers is not None and self._service is not None:
            self._service.close()
            self._service = None

    def __enter__(self) -> "IntrusionDetectionSystem":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _correlate(
        self,
        packets: Sequence[Packet],
        per_packet_events: Sequence[Sequence],
        evictions: Sequence,
    ) -> List[Alert]:
        """Fold scanned events into confirm-stage verdicts, packet by packet.

        Consumes what the flow-scan service's ``scan_annotated`` returns:
        per-packet event lists and ``(arrival_index, key)`` eviction
        records, identical for the serial and the parallel service.  A flow
        evicted while packet ``index``
        was being scanned is finalized (pending negation verdicts) and
        dropped before that packet is correlated — it restarts from scratch,
        because the scanner restarted its offsets too.
        """
        alerts: List[Alert] = []
        confirm = self._confirm
        next_eviction = 0
        for index, packet in enumerate(packets):
            self.stats.packets_processed += 1
            self.stats.payload_bytes += len(packet.payload)
            events = per_packet_events[index]
            # distinct strings per packet, matching process()'s accounting
            self.stats.content_matches += len({e.string_number for e in events})
            # the eviction is always triggered by a *different* flow's arrival
            while (
                next_eviction < len(evictions)
                and evictions[next_eviction][0] <= index
            ):
                _, evicted_key = evictions[next_eviction]
                next_eviction += 1
                for packet_id, sid in confirm.finalize_flow(evicted_key):
                    alerts.append(self._alert(packet_id, sid))
                confirm.drop(evicted_key)
            key = StreamScanner.flow_key(packet)
            record = confirm.observe(
                key,
                packet.packet_id,
                packet.payload,
                events,
                lambda packet=packet: self.classifier.classify(packet.header),
            )
            self.stats.header_candidates += len(record.candidates)
            # no prefilter hit and no normalized HTTP buffer on this flow
            # yet -> no rule can pass its candidacy gate: keep the no-hit
            # hot path free of per-rule work
            if not record.has_hits:
                continue
            for sid in record.candidates:
                if sid in record.alerted:
                    continue
                if confirm.check(key, sid):
                    alerts.append(self._alert(packet.packet_id, sid))
                    confirm.mark_alerted(key, sid)
        return alerts

    def scan_flow(self, packets: Sequence[Packet]) -> List[Alert]:
        """Run the pipeline statefully: packets are flow segments, in order.

        Unlike :meth:`process`, the content matcher resumes each flow's
        automaton state (keyed by the packet 5-tuple) across segments, so a
        rule string split across consecutive packets of one flow still
        completes, and a multi-content predicate may gather its occurrences
        over several segments (the events' end offsets stay flow-absolute,
        which is what positional windows are resolved against).  A rule
        without negated components alerts at most once per tracked flow, at
        the first packet where its predicate holds; rules with negation are
        decided when the flow ends — call :meth:`finish` after the last
        segment — or when its state is evicted under memory pressure.
        Evicted flows restart from scratch.

        Content matching always uses the software automaton here, even when
        the IDS was built with ``use_hardware_model=True`` (which only
        affects :meth:`process`): the cycle-level model scans whole packets
        per engine, while the per-engine flow checkpointing it would need is
        exposed (:meth:`repro.hardware.StringMatchingEngine.resume_flow`)
        but not yet driven by a flow-aware hardware scheduler.

        With ``workers`` set, the payload scanning runs on the parallel
        shard executor — same alerts, same order, same statistics as the
        serial path (the flow-capacity bound then applies per worker shard
        rather than to one shared table, which only matters under eviction
        pressure).
        """
        _, per_packet_events, evictions = self.flow_scanner.scan_annotated(packets)
        return self._correlate(packets, per_packet_events, evictions)

    def finish(self) -> List[Alert]:
        """Decide the pending end-of-flow verdicts of every tracked flow.

        Rules with negated components cannot alert mid-stream — a later
        byte could still land in a negation window — so after the last
        segment of the workload, call :meth:`finish` to evaluate them with
        the flows closed.  Alerts are attributed to each flow's last seen
        packet, flows are walked in first-seen order, and the call is
        idempotent (decided rules are marked, state is kept for inspection).
        Rules without negation never alert here: their predicates are
        monotone, so a prefix that failed keeps failing on the same bytes.
        """
        alerts: List[Alert] = []
        for key in self._confirm.flow_keys():
            for packet_id, sid in self._confirm.finalize_flow(key):
                alerts.append(self._alert(packet_id, sid))
        return alerts

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise the flow scan's state: the service's flows + confirm.

        ``"flows"`` is the flow-scan service's ``{"num_shards", "shards"}``
        envelope, so a checkpoint restores into any IDS with the same shard
        count (serial and ``workers=1`` both have one shard).  Everything
        the confirm stage needs across a restart — absolute hit positions
        per flow, pcre byte buffers, pending negation candidacy — rides next
        to the resumable automaton states, so a restored IDS continues
        mid-flow predicates exactly where it stopped.
        """
        return {
            "flows": self.flow_scanner.checkpoint(),
            "confirm": self._confirm.checkpoint(),
        }

    def restore(self, data: Dict) -> None:
        """Restore state saved by :meth:`checkpoint`.

        The configured flow capacity stays in force: a checkpoint whose shard
        tables hold more flows than that is rejected before anything is
        restored (dropping the surplus flows would strand their confirm-stage
        records).
        """
        for shard, table in enumerate(data["flows"]["shards"]):
            if len(table["flows"]) > self._flow_capacity:
                raise ValueError(
                    f"checkpoint shard {shard} holds {len(table['flows'])} flows, "
                    f"more than this IDS's flow capacity of {self._flow_capacity}"
                )
        self.flow_scanner.restore(data["flows"])
        self._confirm.restore(data["confirm"])
