"""Independent reference outputs, computed from the generator's ground truth.

Nothing here imports the engine.  Matches are found with ``bytes.find``
over each flow's *clean* stream and pcres are run with :mod:`re`, using
the two-stage rule semantics the engine documents
(``repro.ids.confirm``):

* an occurrence of a content of length ``L`` ending at ``end`` starts at
  ``end - L``; absolute windows need ``start >= offset`` and, with
  ``depth``, ``end <= offset + depth``; relative windows anchor at the end
  of the previous positive content's chosen occurrence (``doe``):
  ``start >= doe + distance`` and, with ``within``,
  ``end <= doe + distance + within``;
* a negated content must have no occurrence inside its window, and its
  verdict needs the window complete: a bounded window once the stream
  passed its end, an unbounded one only at flow end;
* every satisfying occurrence is tried (content chains backtrack);
* a pcre must match the flow's bytes so far; a negated pcre is only
  provable at flow end;
* sticky contents (``http_uri``/``http_header``) are substring tests
  against the normalized request buffers, which grow as each request or
  header line completes.

A rule alerts at the first packet after which its predicate holds over
the flow's bytes so far; a rule with a negated part that never held
mid-stream is decided once more at flow end and, if it holds, alerts at
the flow's last packet.  Stream mode expects one event per occurrence of
every rule string, as ``(sid, end offset)``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from gen import Content, Flow, Rule, Workload

_PCRE_FLAGS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}


def occurrences(haystack: bytes, needle: bytes) -> List[int]:
    """End offsets of every (overlapping) occurrence of ``needle``."""
    ends = []
    position = haystack.find(needle)
    while position >= 0:
        ends.append(position + len(needle))
        position = haystack.find(needle, position + 1)
    return ends


def _window(content: Content, doe: int) -> Tuple[int, Optional[int]]:
    if content.distance is not None or content.within is not None:
        low = doe + (content.distance or 0)
        high = low + content.within if content.within is not None else None
    else:
        low = content.offset or 0
        high = low + content.depth if content.depth is not None else None
    return low, high


class _FlowView:
    """One flow's stream with memoised occurrence lists."""

    def __init__(self, flow: Flow):
        self.flow = flow
        self.stream = flow.stream
        self._lower: Optional[bytes] = None
        self._ends: Dict[Tuple[bytes, bool], List[int]] = {}

    def ends(self, content: Content) -> List[int]:
        key = (content.pattern, content.nocase)
        found = self._ends.get(key)
        if found is None:
            if content.nocase:
                if self._lower is None:
                    self._lower = self.stream.lower()
                found = occurrences(self._lower, content.pattern.lower())
            else:
                found = occurrences(self.stream, content.pattern)
            self._ends[key] = found
        return found

    def http_buffer(self, name: str, length: int) -> bytes:
        kind = "uri" if name == "http_uri" else "header"
        return b"".join(
            added for end, line_kind, added in self.flow.http_lines
            if line_kind == kind and end <= length
        )


def holds(rule: Rule, view: _FlowView, length: int, at_end: bool) -> bool:
    """Does ``rule`` hold over the first ``length`` bytes of the flow?"""
    for content in rule.contents:
        if content.buffer == "raw":
            continue
        data = view.http_buffer(content.buffer, length)
        if content.nocase:
            data = data.lower()
        found = content.pattern in data
        if content.negated and (found or not at_end):
            return False
        if not content.negated and not found:
            return False
    chain = [c for c in rule.contents if c.buffer == "raw"]

    def satisfied(index: int, doe: int) -> bool:
        if index == len(chain):
            return pcres_hold(rule, view.stream[:length], at_end)
        content = chain[index]
        low, high = _window(content, doe)
        ends = view.ends(content)
        ends = ends[: bisect_right(ends, length)]
        inside = [
            end for end in ends
            if end - len(content.pattern) >= low and (high is None or end <= high)
        ]
        if content.negated:
            decided = at_end or (high is not None and length >= high)
            return not inside and decided and satisfied(index + 1, doe)
        return any(satisfied(index + 1, end) for end in inside)

    return satisfied(0, 0)


def pcres_hold(rule: Rule, data: bytes, at_end: bool) -> bool:
    for body, flags, negated in rule.pcres:
        value = 0
        for flag in flags:
            value |= _PCRE_FLAGS[flag]
        found = re.search(body.encode("latin-1"), data, value) is not None
        if negated and (found or not at_end):
            return False
        if not negated and not found:
            return False
    return True


def _requires_end(rule: Rule) -> bool:
    return any(c.negated for c in rule.contents) or any(p[2] for p in rule.pcres)


def _possible(rule: Rule, view: _FlowView) -> bool:
    """Cheap gate: every positive raw content occurs somewhere."""
    return all(
        view.ends(c) for c in rule.contents if not c.negated and c.buffer == "raw"
    )


def ids_packet_ids(workload: Workload) -> List[List[Tuple[int, int]]]:
    """Per flow: ``(packet id, stream end offset)`` of each delivered packet.

    On clean in-order wire the reassembler delivers every data segment as
    it arrives and drops the payload-less SYN/FIN, so delivered packets are
    numbered in capture order of the data-bearing frames; UDP datagrams
    pass through and are numbered the same way.
    """
    per_flow: List[List[Tuple[int, int]]] = [[] for _ in workload.flows]
    next_id = 0
    for index, _flags, offset, payload in workload.frames:
        if not payload:
            continue
        per_flow[index].append((next_id, offset + len(payload)))
        next_id += 1
    return per_flow


def expected_alerts(workload: Workload) -> Dict[str, List[Tuple[int, int]]]:
    """Flow key -> sorted ``(packet id, sid)`` alerts (ids mode)."""
    if any(flow.mangle != "clean" for flow in workload.flows):
        raise ValueError("ids-mode packet ids are predicted for clean wire only")
    delivered = ids_packet_ids(workload)
    out: Dict[str, List[Tuple[int, int]]] = {}
    for flow, packets in zip(workload.flows, delivered):
        view = _FlowView(flow)
        alerts = []
        for rule in workload.rules:
            if not rule.matches_header(flow.protocol, flow.dport):
                continue
            if not _possible(rule, view):
                continue
            for packet_id, end in packets:
                if holds(rule, view, end, at_end=False):
                    alerts.append((packet_id, rule.sid))
                    break
            else:
                if _requires_end(rule) and holds(rule, view, len(flow.stream), True):
                    alerts.append((packets[-1][0], rule.sid))
        out[flow.key] = sorted(alerts)
    return out


def expected_events(workload: Workload) -> Dict[str, List[Tuple[int, int]]]:
    """Flow key -> sorted ``(sid, end offset)`` events (stream mode)."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    for flow in workload.flows:
        stream = flow.stream
        events = []
        for rule in workload.rules:
            for end in occurrences(stream, rule.contents[0].pattern):
                events.append((rule.sid, end))
        out[flow.key] = sorted(events)
    return out


def expected(workload: Workload) -> Dict[str, List[Tuple[int, int]]]:
    if workload.mode == "ids":
        return expected_alerts(workload)
    return expected_events(workload)


def compare(
    want: Dict[str, List[Tuple[int, int]]],
    got: Dict[str, List[Tuple[int, int]]],
) -> List[str]:
    """Flow keys whose outputs differ (outputs on unknown flows included)."""
    bad = [key for key, items in want.items() if sorted(got.get(key, ())) != items]
    bad += [key for key in got if key not in want]
    return bad
