"""Span recorder installed from outside the program.

The recorder wraps public entry points of each layer (module functions and
class methods) for the lifetime of one traced iteration.  It must be
installed *before* the ``Session`` builds its engine: ``StreamScanner``
binds ``program.scan_chunk`` when it is constructed, so a wrapper installed
later would never be called.

Calls of the same entry point under the same parent fold into one record
(calls, total seconds, counters), so a million confirm checks cost a
million counter updates, not a million span objects.  A record's *self*
time is its total minus the totals of its children.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional, Tuple


class Record:
    __slots__ = ("name", "calls", "total", "bytes", "events", "passed", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.bytes = 0
        self.events = 0
        self.passed = 0
        self.children: Dict[str, "Record"] = {}

    @property
    def self_time(self) -> float:
        return self.total - sum(child.total for child in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def _scan_chunk_counts(record: Record, args, result) -> None:
    record.bytes += len(args[2])  # (self, states, chunk)
    record.events += len(result[0])


def _check_counts(record: Record, args, result) -> None:
    if result:
        record.passed += 1


def entry_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, counter hook)`` for every wrapped
    entry point.  Imported lazily: the program is on ``sys.path`` only in
    the measuring process."""
    import repro.backend as backend
    import repro.capture.pcap as pcap
    import repro.capture.replay as replay
    import repro.core.accelerator_config as accelerator_config
    import repro.ids.pipeline as pipeline
    import repro.rulesets.parser as parser
    from repro.ids.classifier import HeaderClassifier
    from repro.ids.confirm import ConfirmStage
    from repro.proto.reassembly import TcpReassembler
    from repro.streaming.scanner import StreamScanner
    from repro.streaming.service import ScanService

    ids = pipeline.IntrusionDetectionSystem
    return [
        (pcap, "read_capture", "capture.read_capture", None),
        (replay, "load_packets", "capture.load_packets", None),
        (TcpReassembler, "process", "proto.process", None),
        (TcpReassembler, "flush_all", "proto.flush_all", None),
        (ScanService, "scan", "streaming.ScanService.scan", None),
        (StreamScanner, "scan_batch", "streaming.scan_batch", None),
        (backend.CompiledProgramMixin, "scan_chunk", "core.scan_chunk", _scan_chunk_counts),
        (HeaderClassifier, "classify", "ids.classifier.classify", None),
        (ConfirmStage, "observe", "ids.confirm.observe", None),
        (ConfirmStage, "check", "ids.confirm.check", _check_counts),
        (ConfirmStage, "finalize_flow", "ids.confirm.finalize_flow", None),
        (ids, "scan_flow", "ids.pipeline.scan_flow", None),
        (ids, "finish", "ids.pipeline.finish", None),
        (parser, "parse_rules", "rulesets.parse_rules", None),
        (backend.Backend, "compile", "core.compile", None),
        (accelerator_config, "compile_ruleset", "core.compile", None),
        (pipeline, "compile_ruleset", "core.compile", None),
        (ids, "__init__", "engine.build", None),
        (ScanService, "__init__", "engine.build", None),
    ]


#: span name prefix -> layer reported in the per-layer metrics
LAYERS = (
    "capture", "proto", "streaming", "core",
    "ids.classifier", "ids.confirm", "ids.pipeline",
)


def layer_of(name: str) -> Optional[str]:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return None


class SpanRecorder:
    """Folds wrapped calls into a tree of :class:`Record` under ``root``."""

    def __init__(self):
        self.root = Record("root")
        self._stack = [self.root]
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around its own calls."""
        record = self._enter(name)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.total += time.perf_counter() - start
            record.calls += 1
            self._stack.pop()

    def _enter(self, name: str) -> Record:
        parent = self._stack[-1]
        record = parent.children.get(name)
        if record is None:
            record = parent.children[name] = Record(name)
        self._stack.append(record)
        return record

    def _wrap(self, name: str, function, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            record = parent.children.get(name)
            if record is None:
                record = parent.children[name] = Record(name)
            stack.append(record)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record.total += clock() - start
                stack.pop()
            record.calls += 1
            if hook is not None:
                hook(record, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for owner, attribute, name, hook in entry_points():
            if isinstance(owner, type):
                original = owner.__dict__[attribute]  # not an inherited lookup
            else:
                original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def find(self, name: str) -> Optional[Record]:
        return self.root.children.get(name)

    def totals(self, top: str) -> Dict[str, Dict[str, float]]:
        """Per span name under the benchmark span ``top``: summed self
        time, total time, calls and counters (folded across parents)."""
        out: Dict[str, Dict[str, float]] = {}
        record = self.find(top)
        if record is None:
            return out
        for node in record.walk():
            entry = out.setdefault(node.name, {
                "self": 0.0, "total": 0.0, "calls": 0, "bytes": 0, "events": 0, "passed": 0,
            })
            entry["self"] += node.self_time
            entry["total"] += node.total
            entry["calls"] += node.calls
            entry["bytes"] += node.bytes
            entry["events"] += node.events
            entry["passed"] += node.passed
        return out
