"""Tests for the unified MatcherBackend protocol and the dense fast path.

The heart of this file is the randomized cross-backend equivalence test: for
seeded random pattern sets and payloads — delivered whole and chunked at
every split point — every registered backend must report the identical match
set as the reference Aho-Corasick DFA.  That property is what lets the
streaming layer, the IDS and the CLI treat backends as interchangeable.
"""

import json
import random

import pytest

from repro.automata import AhoCorasickDFA
from repro.backend import (
    ScanState,
    all_backends,
    backend_names,
    get_backend,
)
from repro.core import CompiledDenseProgram, DTPAutomaton, compile_ruleset
from repro.core.compiled import VECTOR_MIN_CHUNK
from repro.fpga import STRATIX_III
from repro.hardware import HardwareAccelerator
from repro.ids import IDSRule, IntrusionDetectionSystem
from repro.ids.classifier import HeaderPattern
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import FlowKey, FlowTable, StreamScanner
from repro.traffic import TrafficGenerator
from tests.conftest import scan_one

ALL_BACKENDS = ("ac", "bitmap", "dense", "dtp", "path", "wu-manber")


def random_patterns(rng, count, alphabet=b"abcd", max_len=6):
    patterns = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        patterns.append(bytes(rng.choice(alphabet) for _ in range(length)))
    # duplicates are legal; keep them to exercise duplicate pattern ids
    return patterns


def random_payload(rng, patterns, length=90, alphabet=b"abcd"):
    payload = bytearray(rng.choice(alphabet) for _ in range(length))
    # embed a few patterns so the match set is never trivially empty
    for pattern in rng.sample(patterns, min(3, len(patterns))):
        position = rng.randrange(0, max(1, length - len(pattern)))
        payload[position:position + len(pattern)] = pattern
    return bytes(payload)


class TestRegistry:
    def test_all_six_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(backend_names())

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(KeyError, match="dense"):
            get_backend("no-such-backend")

    def test_compiled_programs_expose_protocol_surface(self):
        patterns = (b"abc", b"bd")
        for backend in all_backends():
            program = backend.compile(patterns)
            assert program.backend_name == backend.name
            assert tuple(program.patterns) == patterns
            states = program.initial_scan_states()
            assert all(isinstance(s, ScanState) for s in states)


class TestCrossBackendEquivalence:
    """Satellite: seeded random workloads, all backends vs the reference DFA."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_whole_payload_equivalence(self, seed):
        rng = random.Random(seed)
        patterns = random_patterns(rng, count=8)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns)
        expected = sorted(reference.match(payload))
        assert expected, "workload should produce matches"
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            assert sorted(program.match(payload)) == expected, name

    @pytest.mark.parametrize("seed", [3, 11])
    def test_chunked_delivery_at_every_split_point(self, seed):
        rng = random.Random(seed)
        patterns = random_patterns(rng, count=6)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns, length=60)
        expected = sorted(reference.match(payload))
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            for split in range(len(payload) + 1):
                states = program.initial_scan_states()
                first, states = program.scan_from(states, payload[:split])
                second, states = program.scan_from(states, payload[split:])
                assert sorted(list(first) + list(second)) == expected, (name, split)

    def test_three_chunk_delivery(self):
        rng = random.Random(99)
        patterns = random_patterns(rng, count=5)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns, length=45)
        expected = sorted(reference.match(payload))
        cuts = (0, 10, 17, 31, len(payload))
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            states = program.initial_scan_states()
            collected = []
            for start, stop in zip(cuts, cuts[1:]):
                matches, states = program.scan_from(states, payload[start:stop])
                collected.extend(matches)
            assert sorted(collected) == expected, name

    def test_device_compiled_program_matches_generic_backends(self):
        """The multi-block AcceleratorProgram honours the same contract."""
        ruleset = generate_snort_like_ruleset(40, seed=9)
        program = compile_ruleset(ruleset, STRATIX_III)
        dense = get_backend("dense").compile(ruleset.patterns)
        payload = b"##".join(rule.pattern for rule in ruleset)[:400]
        assert sorted(program.match(payload)) == sorted(dense.match(payload))
        for split in (0, 13, 200, len(payload)):
            states = program.initial_scan_states()
            first, states = program.scan_from(states, payload[:split])
            second, states = program.scan_from(states, payload[split:])
            assert sorted(list(first) + list(second)) == sorted(dense.match(payload))


class TestScanState:
    def test_from_tuple_coerces_floats(self):
        """Satellite: JSON checkpoints with float fields must not poison
        the integer history comparisons of the default-transition lookup."""
        restored = ScanState.from_tuple((3.0, 97.0, 98.0, 12.0))
        assert restored == ScanState(state=3, prev1=97, prev2=98, offset=12)
        assert isinstance(restored.prev1, int)
        assert isinstance(restored.prev2, int)

    def test_from_tuple_keeps_none_history(self):
        restored = ScanState.from_tuple((0, None, None, 0))
        assert restored.prev1 is None and restored.prev2 is None

    def test_float_checkpoint_resumes_identically(self):
        dtp = DTPAutomaton.from_patterns([b"abab", b"bab"])
        stream = b"xxababxbabab"
        _, mid = dtp.scan_from(ScanState(), stream[:5])
        # simulate a float-typed JSON round trip of the checkpoint
        contaminated = ScanState.from_tuple(tuple(map(
            lambda v: float(v) if v is not None else None, mid.as_tuple()
        )))
        clean_matches, _ = dtp.scan_from(mid, stream[5:])
        restored_matches, _ = dtp.scan_from(contaminated, stream[5:])
        assert restored_matches == clean_matches

    def test_tail_round_trips_through_json(self):
        state = ScanState(offset=7, tail=b"\x00\xffab")
        decoded = ScanState.from_tuple(json.loads(json.dumps(state.as_tuple())))
        assert decoded == state

    def test_legacy_four_tuple_still_restores(self):
        assert ScanState.from_tuple((5, 1, 2, 9)) == ScanState(5, 1, 2, 9)


class TestStreamingAcrossBackends:
    @pytest.mark.parametrize("name", ["dense", "ac", "wu-manber"])
    def test_stream_scanner_equals_dtp_on_split_flows(self, name):
        from tests.conftest import assert_equivalent_events

        ruleset = generate_snort_like_ruleset(30, seed=6)
        flows = TrafficGenerator(ruleset, seed=7).flows(
            5, num_packets=3, split_patterns=1
        )
        packets = TrafficGenerator.interleave(flows)
        reference = assert_equivalent_events(
            ruleset,
            packets,
            backends=("dtp", name),
            worker_counts=(None,),
            sources=("memory",),
            num_shards=2,
        )
        assert reference.events, "boundary-split flows should produce events"

    def test_wu_manber_flow_checkpoint_restores(self):
        """The tail carry buffer must survive the JSON flow-table checkpoint."""
        patterns = [b"needle"]
        program = get_backend("wu-manber").compile(patterns)
        scanner = StreamScanner(program, capacity=4)
        key = FlowKey("1.1.1.1", "2.2.2.2", 1, 2, "tcp")
        scan_one(scanner, key, b"xxxxneed", packet_id=0)
        checkpoint = json.loads(json.dumps(scanner.flows.checkpoint()))
        scanner.flows = FlowTable.restore(checkpoint)
        matches = scan_one(scanner, key, b"le-and-more", packet_id=1)
        assert [(m.end_offset, m.string_number) for m in matches] == [(10, 0)]


class TestDenseProgram:
    def test_from_automaton_accepts_dfa_and_dtp(self):
        patterns = [b"cat", b"attack"]
        dfa = AhoCorasickDFA.from_patterns(patterns)
        payload = b"a cat attack!"
        expected = sorted(dfa.match(payload))
        from_dfa = CompiledDenseProgram.from_automaton(dfa)
        from_dtp = CompiledDenseProgram.from_automaton(DTPAutomaton(dfa))
        assert sorted(from_dfa.match(payload)) == expected
        assert sorted(from_dtp.match(payload)) == expected

    def test_from_automaton_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            CompiledDenseProgram.from_automaton(object())

    def test_packed_match_arrays_mirror_outputs(self):
        program = CompiledDenseProgram.from_patterns([b"ab", b"b", b"ab"])
        dfa = AhoCorasickDFA.from_patterns([b"ab", b"b", b"ab"])
        for state in range(program.num_states):
            assert sorted(program.matches_of(state)) == sorted(dfa.outputs[state])

    def test_root_skip_path_agrees_with_plain_loop(self):
        # rare starter bytes + a long chunk force the vectorised skip path
        patterns = [b"\xf0\xf1rare", b"\xf5odd"]
        program = CompiledDenseProgram.from_patterns(patterns)
        rng = random.Random(5)
        payload = bytearray(rng.randrange(97, 123) for _ in range(4 * VECTOR_MIN_CHUNK))
        payload[50:56] = b"\xf0\xf1rare"
        payload[200:204] = b"\xf5odd"
        payload = bytes(payload)
        reference = AhoCorasickDFA.from_patterns(patterns)
        assert sorted(program.match(payload)) == sorted(reference.match(payload))
        # resuming mid-pattern must survive the skip optimisation too
        states = program.initial_scan_states()
        first, states = program.scan_from(states, payload[:52])
        second, _ = program.scan_from(states, payload[52:])
        assert sorted(list(first) + list(second)) == sorted(reference.match(payload))

    def test_memory_accounting(self):
        import sys

        program = CompiledDenseProgram.from_patterns([b"abc"])
        array_bytes = (
            program.table.nbytes + program.match_index.nbytes + program.match_pids.nbytes
        )
        # the footprint must cover the hot-loop flat list, not just the arrays
        assert program.memory_bytes() >= array_bytes + sys.getsizeof(program._flat)
        assert program.memory_words() == -(-program.memory_bytes() * 8 // 324)


class TestConsumersThroughProtocol:
    def test_ids_alerts_identical_across_backends(self):
        ruleset = generate_snort_like_ruleset(25, seed=4)
        rules = [
            IDSRule(sid=rule.sid, header=HeaderPattern(), contents=(rule.pattern,))
            for rule in ruleset
        ]
        flows = TrafficGenerator(ruleset, seed=5).flows(4, num_packets=3, split_patterns=1)
        packets = TrafficGenerator.interleave(flows)

        def alerts_with(backend):
            ids = IntrusionDetectionSystem(rules, backend=backend)
            return [(a.packet_id, a.sid) for a in ids.scan_flow(packets)]

        reference = alerts_with("dtp")
        assert reference
        for name in ("dense", "ac", "bitmap"):
            assert alerts_with(name) == reference, name

    def test_ids_rejects_hardware_model_on_non_dtp_backend(self):
        rules = [IDSRule(sid=1, header=HeaderPattern(), contents=(b"x",))]
        with pytest.raises(ValueError, match="dtp"):
            IntrusionDetectionSystem(rules, use_hardware_model=True, backend="dense")

    def test_hardware_accelerator_protocol_front(self):
        ruleset = generate_snort_like_ruleset(20, seed=8)
        program = compile_ruleset(ruleset, STRATIX_III)
        accelerator = HardwareAccelerator(program)
        payloads = [b"xx" + rule.pattern + b"yy" for rule in list(ruleset)[:4]]
        # the cycle model's protocol surface reports what the program reports
        assert accelerator.patterns == program.patterns
        for payload in payloads:
            assert sorted(accelerator.match(payload)) == sorted(program.match(payload))
        batched = accelerator.scan_packets(payloads)
        assert [sorted(m) for m in batched] == [
            sorted(program.match(p)) for p in payloads
        ]
