"""Two-stage rule semantics: the confirm stage and its full grammar.

Three layers of coverage:

* :class:`TestPredicateGrammar` — the parser's positional modifiers,
  negation, pcre, and the grammar errors that must be rejected in both
  strict and lenient modes;
* :class:`TestRuleEvaluator` / :class:`TestPipeline` — unit semantics of
  window evaluation (backtracking, negation decision points, pcre) and the
  stateful pipeline behaviours built on them (cross-segment windows,
  end-of-flow finalisation, eviction, checkpoint/restore, nocase end to
  end);
* :class:`TestDifferential` — randomized full-grammar rulesets scanned
  through every {backend} × {serial, workers} × {memory, pcap} combination
  must produce the naive reference evaluator's exact alert sequence.
"""

import io
import json

import pytest

from repro.api import (
    EngineSpec,
    PipelineConfig,
    RulesSpec,
    Session,
    SourceSpec,
)
from repro.capture import replay_ids, write_packets
from repro.ids import IntrusionDetectionSystem, RuleEvaluator
from repro.rulesets import (
    RuleParseError,
    generate_snort_like_ruleset,
    parse_rule,
    parse_rules,
)
from repro.traffic import FiveTuple, Packet, TrafficGenerator

from tests.conftest import (
    assert_equivalent_alerts,
    naive_reference_alerts,
    naive_rule_match,
    random_predicate_rules,
    renumbered,
)

WILDCARD = "alert ip any any -> any any "


def _flow(payloads, src_port=1111, start_id=0):
    header = FiveTuple(
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=src_port,
        dst_port=80,
        protocol="tcp",
    )
    return [
        Packet(payload=payload, header=header, packet_id=start_id + index)
        for index, payload in enumerate(payloads)
    ]


def _alert_pairs(alerts):
    return [(alert.packet_id, alert.sid) for alert in alerts]


# ----------------------------------------------------------------------
# parser grammar
# ----------------------------------------------------------------------
class TestPredicateGrammar:
    def test_positional_modifiers_parsed(self):
        spec = parse_rule(
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:1; within:300; sid:1;)'
        )
        first, second = spec.contents
        assert (first.offset, first.depth) == (0, 4)
        assert (second.distance, second.within) == (1, 300)
        assert not first.is_relative and second.is_relative

    def test_negated_content_parsed(self):
        spec = parse_rule(
            WILDCARD + '(content:"POST"; content:!"Content-Length"; sid:1;)'
        )
        assert [c.negated for c in spec.contents] == [False, True]
        assert [c.pattern for c in spec.positive_contents] == [b"POST"]

    def test_pcre_parsed_with_flags_and_negation(self):
        spec = parse_rule(
            WILDCARD + '(content:"cmd"; pcre:"/GET[^x]*cmd/i"; '
            'pcre:!"/quit/"; sid:1;)'
        )
        positive, negated = spec.pcres
        assert positive.pattern == "GET[^x]*cmd" and positive.flags == "i"
        assert negated.negated and not positive.negated
        assert positive.compile().search(b"GET /a/cmd") is not None

    def test_pcre_body_may_contain_escaped_delimiter(self):
        spec = parse_rule(WILDCARD + '(content:"a"; pcre:"/a\\/b/"; sid:1;)')
        assert spec.pcres[0].compile().search(b"xa/by") is not None

    def test_duplicate_modifier_rejected(self):
        with pytest.raises(RuleParseError, match="duplicate depth"):
            parse_rule(WILDCARD + '(content:"a"; depth:4; depth:5; sid:1;)')

    def test_conflicting_anchoring_rejected(self):
        with pytest.raises(RuleParseError, match="conflicts with"):
            parse_rule(
                WILDCARD + '(content:"a"; content:"b"; distance:1; offset:2; '
                "sid:1;)"
            )

    def test_relative_modifier_on_first_content_rejected(self):
        with pytest.raises(RuleParseError, match="no previous match"):
            parse_rule(WILDCARD + '(content:"a"; distance:1; sid:1;)')

    def test_relative_after_only_negated_contents_rejected(self):
        with pytest.raises(RuleParseError, match="no previous match"):
            parse_rule(
                WILDCARD + '(content:!"a"; content:"b"; within:4; sid:1;)'
            )

    def test_grammar_errors_are_line_anchored(self):
        lines = [
            WILDCARD + '(content:"ok"; sid:1;)',
            WILDCARD + '(content:"bad"; within:3; sid:2;)',
        ]
        with pytest.raises(RuleParseError, match="line 2:"):
            parse_rules(lines)

    def test_lenient_keeps_unsupported_options_strict_rejects(self):
        line = WILDCARD + '(content:"a"; flow:to_server; sid:1;)'
        spec = parse_rule(line)
        assert spec.unparsed_options == [("flow", "to_server")]
        with pytest.raises(RuleParseError, match="unsupported option 'flow'"):
            parse_rule(line, strict=True)

    def test_strict_rejects_all_negated_rule(self):
        line = WILDCARD + '(content:!"a"; sid:1;)'
        assert parse_rule(line).positive_contents == []
        with pytest.raises(RuleParseError, match="no positive"):
            parse_rule(line, strict=True)


# ----------------------------------------------------------------------
# evaluator semantics (driven through the end-to-end pipeline, single flow)
# ----------------------------------------------------------------------
def _ids_for(lines, **kwargs):
    return IntrusionDetectionSystem.from_specs(
        parse_rules(lines), backend="dense", **kwargs
    )


class TestRuleEvaluator:
    def test_chain_backtracks_past_greedy_earliest_occurrence(self):
        """The first "ab" is too early for "cd"'s within-window; only the
        second anchors the chain.  A greedy earliest-match evaluator fails
        this rule; the backtracking one must not."""
        lines = [
            WILDCARD + '(content:"ab"; content:"cd"; distance:0; within:4; '
            "sid:1;)"
        ]
        packets = _flow([b"abXXXXXXabYcd"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(0, 1)]
        assert naive_rule_match(parse_rules(lines)[0], b"abXXXXXXabYcd", True)

    def test_offset_depth_window_enforced(self):
        lines = [WILDCARD + '(content:"GET"; offset:0; depth:4; sid:1;)']
        with _ids_for(lines) as ids:
            hit = ids.scan_flow(_flow([b"GET /x"])) + ids.finish()
        with _ids_for(lines) as ids:
            miss = ids.scan_flow(_flow([b"..GET /x"])) + ids.finish()
        assert _alert_pairs(hit) == [(0, 1)] and miss == []

    def test_bounded_negation_decides_mid_stream(self):
        """A depth/within-bounded negation window is decided as soon as the
        stream has passed its end — no flow finalisation needed."""
        lines = [
            WILDCARD + '(content:"ab"; content:!"zz"; distance:0; within:4; '
            "sid:1;)"
        ]
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(_flow([b"ab....", b"more"]))
        # alert raised by scan_flow itself, before finish()
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_unbounded_negation_waits_for_flow_end(self):
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        with _ids_for(lines) as ids:
            mid = ids.scan_flow(_flow([b"ab..", b"...."]))
            final = ids.finish()
        assert mid == []
        assert _alert_pairs(final) == [(1, 1)]  # attributed to last packet

    def test_negation_occupied_window_suppresses(self):
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(_flow([b"ab..", b".zz."])) + ids.finish()
        assert alerts == []

    def test_positive_pcre_confirms_and_rejects(self):
        lines = [WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:1;)']
        with _ids_for(lines) as ids:
            hit = ids.scan_flow(_flow([b"GET /a/cmd"])) + ids.finish()
        with _ids_for(lines) as ids:
            miss = ids.scan_flow(_flow([b"PUT /a/cmd"])) + ids.finish()
        assert _alert_pairs(hit) == [(0, 1)] and miss == []

    def test_negated_pcre_only_provable_at_flow_end(self):
        lines = [WILDCARD + '(content:"ab"; pcre:!"/quit/"; sid:1;)']
        with _ids_for(lines) as ids:
            mid = ids.scan_flow(_flow([b"ab.."]))
            final = ids.finish()
        assert mid == [] and _alert_pairs(final) == [(0, 1)]

    def test_evaluator_exported(self):
        spec = parse_rule(WILDCARD + '(content:"ab"; sid:7;)')
        evaluator = RuleEvaluator(7, spec.predicate, {b"ab": 0})
        assert evaluator.plain and not evaluator.requires_end


# ----------------------------------------------------------------------
# stateful pipeline behaviours
# ----------------------------------------------------------------------
class TestPipeline:
    def test_window_spans_segment_boundary(self):
        """Absolute offsets survive reassembly: the chain completes on the
        packet where the second content's bytes arrive."""
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)'
        ]
        packets = _flow([b"GET /index.h", b"tml HTTP/1.1"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(1, 1)]

    def test_split_pattern_occurrence_positions_are_absolute(self):
        lines = [WILDCARD + '(content:"needle"; offset:4; sid:1;)']
        packets = _flow([b"xxxxnee", b"dle"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(1, 1)]

    def test_eviction_finalizes_negation_rules(self):
        """With a 1-slot flow table, flow A's eviction (by flow B's arrival)
        decides A's unbounded negation mid-scan, attributed to A's last
        packet seen before eviction."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        packets = (
            _flow([b"ab.."], src_port=1111, start_id=0)
            + _flow([b"....ab"], src_port=2222, start_id=1)
            + _flow([b"...."], src_port=1111, start_id=2)
        )
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets)
            ids.reset_flows(capacity=1)
            alerts = ids.scan_flow(packets)
            final = ids.finish()
        # flow 1111 evicted when 2222 arrives -> negation decided at packet 0;
        # the second eviction (2222 out, 1111 back in) decides 2222 at its
        # only packet.  The re-started 1111 flow carries no positive content,
        # so finish() has nothing left to decide.
        assert _alert_pairs(alerts) == [(0, 1), (1, 1)]
        assert final == []

    def test_nocase_rule_alerts_on_mixed_case_flow(self):
        """The end-to-end nocase lock test: a nocase content stored
        lower-cased must match a mixed-case payload through the stateful
        scan path (the prefilter's lowered view), not just process()."""
        lines = [WILDCARD + '(content:"CMD.exe"; nocase; sid:1;)']
        packets = _flow([b"run CmD.", b"ExE now"])
        with _ids_for(lines) as ids:
            serial = ids.scan_flow(packets) + ids.finish()
        with _ids_for(lines, workers=2) as ids:
            parallel = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(serial) == [(1, 1)]
        assert _alert_pairs(parallel) == [(1, 1)]

    def test_nocase_rules_file_scans_through_session(self, tmp_path):
        """Lock for the Session wiring bug: the sharded scan service must be
        built with nocase tracking whenever the loaded rules need it."""
        rules = tmp_path / "nocase.rules"
        rules.write_text(WILDCARD + '(content:"CMD.exe"; nocase; sid:1;)\n')
        packets = tuple(_flow([b"run CmD.ExE now"]))
        config = PipelineConfig(
            mode="stream",
            source=SourceSpec(kind="packets", packets=packets),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dense"),
        )
        with Session.from_config(config) as session:
            result = session.scan()
            assert len(result.events) == 1
            alerts = session.ids.scan_flow(list(packets)) + session.ids.finish()
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_process_decides_per_packet(self):
        """process() is the stateless path: each packet is a complete flow,
        so negation and pcre are decided immediately (at_end semantics)."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        packets = _flow([b"ab..", b"ab.zz"])
        with _ids_for(lines) as ids:
            alerts = ids.process(packets)
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_checkpoint_restore_resumes_confirm_state(self):
        """Splitting a flow across checkpoint/restore must not change the
        alerts: positions, pcre buffers and negation candidacy all travel."""
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)',
            WILDCARD + '(content:"ab"; content:!"zz"; sid:2;)',
            WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:3;)',
        ]
        packets = _flow([b"GET /ab", b" HTTP/1.1 cmd"])
        with _ids_for(lines) as reference:
            expected = _alert_pairs(
                reference.scan_flow(packets) + reference.finish()
            )
        with _ids_for(lines) as first:
            early = first.scan_flow(packets[:1])
            saved = first.checkpoint()
        with _ids_for(lines) as second:
            second.restore(saved)
            late = second.scan_flow(packets[1:]) + second.finish()
        assert _alert_pairs(early) + _alert_pairs(late) == expected

    CHECKPOINT_RULES = [
        WILDCARD + '(content:"GET"; offset:0; depth:4; '
        'content:"HTTP"; distance:0; within:40; sid:1;)',
        WILDCARD + '(content:"ab"; content:!"zz"; sid:2;)',
        WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:3;)',
    ]

    @staticmethod
    def _split_flows(count):
        """``count`` two-segment flows; returns (first halves, second halves)
        with packet ids numbered across both halves."""
        first, second = [], []
        for n in range(count):
            head, tail = _flow([b"GET /ab", b" HTTP/1.1 cmd"], src_port=3000 + n)
            first.append(head)
            second.append(tail)
        for packet_id, packet in enumerate(first + second):
            packet.packet_id = packet_id
        return first, second

    def _checkpoint_split_run(self, save_workers, load_workers, flows=6):
        first, second = self._split_flows(flows)
        with _ids_for(self.CHECKPOINT_RULES, workers=save_workers) as reference:
            expected = _alert_pairs(
                reference.scan_flow(first + second) + reference.finish()
            )
        with _ids_for(self.CHECKPOINT_RULES, workers=save_workers) as saver:
            early = saver.scan_flow(first)
            saved = json.loads(json.dumps(saver.checkpoint()))
        with _ids_for(self.CHECKPOINT_RULES, workers=load_workers) as loader:
            loader.restore(saved)
            late = loader.scan_flow(second) + loader.finish()
        assert expected, "the workload must raise alerts"
        assert _alert_pairs(early) + _alert_pairs(late) == expected

    def test_parallel_checkpoint_round_trip(self):
        """A workers=2 IDS checkpoints through its service: restored into a
        fresh workers=2 IDS it alerts exactly like an uninterrupted run."""
        self._checkpoint_split_run(2, 2)

    @pytest.mark.parametrize("save_workers, load_workers", [(None, 1), (1, None)])
    def test_serial_and_single_worker_checkpoints_interchange(
        self, save_workers, load_workers
    ):
        self._checkpoint_split_run(save_workers, load_workers)

    def test_serial_checkpoint_rejected_by_two_workers(self):
        first, _ = self._split_flows(2)
        with _ids_for(self.CHECKPOINT_RULES) as serial:
            serial.scan_flow(first)
            saved = serial.checkpoint()
        with _ids_for(self.CHECKPOINT_RULES, workers=2) as parallel:
            with pytest.raises(ValueError, match="checkpoint has 1 shards, service has 2"):
                parallel.restore(saved)

    def test_finish_after_close_is_the_same_with_and_without_workers(self):
        """close() only shuts a worker pool down: the pending end-of-flow
        verdict survives it, serial and parallel alike."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        packets = _flow([b"ab.."])
        results = []
        for workers in (None, 2):
            ids = _ids_for(lines, workers=workers)
            assert ids.scan_flow(packets) == []
            ids.close()
            results.append(_alert_pairs(ids.finish()))
            ids.close()
        assert results == [[(0, 1)], [(0, 1)]]

    @pytest.mark.parametrize("workers, flows", [(None, 5), (2, 6)])
    def test_restore_rejects_checkpoint_over_flow_capacity(self, workers, flows):
        """The configured flow capacity survives restore: a checkpoint whose
        shard tables hold more flows is refused before anything is restored,
        instead of silently raising the bound."""
        first, _ = self._split_flows(flows)
        with _ids_for(self.CHECKPOINT_RULES, workers=workers) as saver:
            saver.scan_flow(first)
            saved = saver.checkpoint()
        largest = max(len(table["flows"]) for table in saved["flows"]["shards"])
        assert largest > 2
        with _ids_for(self.CHECKPOINT_RULES, workers=workers) as loader:
            loader.reset_flows(capacity=2)
            with pytest.raises(
                ValueError, match=rf"holds {largest} flows, .* capacity of 2"
            ):
                loader.restore(saved)
            assert loader.flow_scanner.active_flows == 0
            assert loader.finish() == []


# ----------------------------------------------------------------------
# differential gate against the naive reference
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_randomized_predicates_match_naive_reference(self, seed):
        ruleset = generate_snort_like_ruleset(18, seed=seed)
        generator = TrafficGenerator(ruleset, seed=seed + 1)
        packets = TrafficGenerator.interleave(
            generator.flows(5, num_packets=3, split_patterns=1, whole_patterns=2)
        )
        specs = random_predicate_rules(ruleset, seed=seed, num_rules=10)
        expected = assert_equivalent_alerts(specs, packets)
        # the workload must actually exercise the confirm stage: traffic is
        # built from the same patterns the rules window over
        assert expected, "workload produced no alerts; weaken the windows"

    def test_handcrafted_mixed_grammar_matches_naive_reference(self):
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)',
            WILDCARD + '(content:"POST"; content:!"Length"; sid:2;)',
            WILDCARD + '(content:"CMD"; nocase; pcre:"/cmd$/i"; sid:3;)',
            WILDCARD + '(content:"ab"; content:"cd"; distance:0; within:4; '
            "sid:4;)",
        ]
        specs = parse_rules(lines)
        packets = (
            _flow([b"GET /abXXXXXXabYcd ", b"HTTP/1.1"], src_port=1000)
            + _flow([b"POST /x", b"..."], src_port=2000, start_id=2)
            + _flow([b"POST Length", b"..."], src_port=3000, start_id=4)
            + _flow([b"run cMd"], src_port=4000, start_id=6)
        )
        expected = assert_equivalent_alerts(specs, packets)
        assert {sid for _, sid in expected} == {1, 2, 3, 4}

    def test_pcap_replay_equals_memory_scan(self):
        """replay_ids over a written capture is one of the harness axes, but
        lock the alert list shape explicitly for a single combination."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:5;)']
        specs = parse_rules(lines)
        packets = renumbered(_flow([b"ab..", b"...."]))
        buffer = io.BytesIO()
        write_packets(buffer, packets)
        with IntrusionDetectionSystem.from_specs(specs, backend="dtp") as ids:
            alerts = replay_ids(io.BytesIO(buffer.getvalue()), ids)
        assert _alert_pairs(alerts) == naive_reference_alerts(specs, packets)
