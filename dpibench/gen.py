"""Seeded workload generator: rules file, pcap and ground truth.

Standard library only, and deliberately independent of ``repro``'s own
rule and traffic generators, so that a change to the program can never
change the benchmark's inputs.  Everything is drawn from ``random.Random``
instances seeded with the workload name, scale and seed: the same three
always produce byte-identical files.

The ground truth kept for the reference (``reference.py``) is

* every rule's predicate exactly as it was built and rendered into the
  rules file, and
* every flow's *clean* stream — the bytes a receiver reassembles — plus
  its 5-tuple, its data-segment layout and, for HTTP flows, where each
  request/header line ends in the stream.

Wire rendering (SYN anchoring, reordering, retransmission, overlapping
splits) never changes a flow's clean stream; it only changes how the
stream is cut into frames.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------
#: name -> engine configuration and generator parameters (why each workload
#: exists is recorded in BENCHMARK.json).  ``tiny`` scales are used by
#: ``selftest.py`` only.
WORKLOADS: Dict[str, Dict] = {
    "ids-mixed": {
        "mode": "ids", "backend": "dense", "reassemble": True,
        "full": {"rules": 800, "flows": 64, "segments": 8, "segment_bytes": 512,
                 "long_every": 32, "long_segments": 128},
        "tiny": {"rules": 60, "flows": 24, "segments": 4, "segment_bytes": 256,
                 "long_every": 12, "long_segments": 12},
    },
    "stream-dtp": {
        "mode": "stream", "backend": "dtp", "reassemble": False,
        "full": {"rules": 1600, "flows": 128, "segments": 4, "segment_bytes": 1460},
        "tiny": {"rules": 80, "flows": 16, "segments": 3, "segment_bytes": 600},
    },
    "wire-mangled": {
        "mode": "stream", "backend": "dense", "reassemble": True,
        "full": {"rules": 634, "flows": 256, "stream_bytes": 4096,
                 "min_segment": 48, "max_segment": 160},
        "tiny": {"rules": 60, "flows": 24, "stream_bytes": 1024,
                 "min_segment": 32, "max_segment": 96},
    },
}

MANGLE_MODES = ("reorder", "retransmit", "overlap-split")

_FIN, _SYN, _PSH_ACK, _FIN_ACK = 0x01, 0x02, 0x18, 0x11

# Filler is text-like: mostly lower-case letters and blanks, some other
# printable bytes and a little binary.  No ``\n``, so an HTTP flow's
# request block is the only thing its HTTP normalizer ever parses.
_FILLER_ALPHABET = (
    b"etaoinshrdlucmfwypvbgkjqxz" * 6 + b"      " * 6
    + b"ETAOINSHRDLU0123456789.,:/-_=&?" * 2 + bytes(range(0x80, 0x8C))
)
_FILLER_TABLE = bytes(_FILLER_ALPHABET[i % len(_FILLER_ALPHABET)] for i in range(256))

_WORD_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_TOKEN_CHARS = _WORD_LETTERS + "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-/"


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass
class Content:
    """One ``content`` option as built (``pattern`` is the literal bytes)."""

    pattern: bytes
    nocase: bool = False
    negated: bool = False
    offset: Optional[int] = None
    depth: Optional[int] = None
    distance: Optional[int] = None
    within: Optional[int] = None
    buffer: str = "raw"  # "raw", "http_uri" or "http_header"


@dataclass
class Rule:
    sid: int
    protocol: str  # "tcp", "udp" or "ip"
    dst_port: str  # "any" or a port number
    contents: List[Content]
    pcres: List[Tuple[str, str, bool]] = field(default_factory=list)  # body, flags, negated

    def matches_header(self, protocol: str, dst_port: int) -> bool:
        if self.protocol != "ip" and self.protocol != protocol:
            return False
        return self.dst_port == "any" or int(self.dst_port) == dst_port


@dataclass
class Flow:
    protocol: str
    src: str
    sport: int
    dst: str
    dport: int
    stream: bytes = b""
    #: (offset, length) of every data segment in clean stream order
    segments: List[Tuple[int, int]] = field(default_factory=list)
    #: HTTP flows: stream offsets one past each ``\n`` of the request line
    #: and of every header line, with the normalized text each one adds
    http_lines: List[Tuple[int, str, bytes]] = field(default_factory=list)
    mangle: str = "clean"

    @property
    def key(self) -> str:
        return f"{self.protocol}:{self.src}:{self.sport}>{self.dst}:{self.dport}"


@dataclass
class Workload:
    name: str
    seed: int
    mode: str
    backend: str
    reassemble: bool
    rules: List[Rule]
    flows: List[Flow]
    #: capture order: (flow index, flags, stream offset, payload); UDP
    #: datagrams carry flags 0
    frames: List[Tuple[int, int, int, bytes]]

    @property
    def useful_bytes(self) -> int:
        return sum(len(flow.stream) for flow in self.flows)


# ----------------------------------------------------------------------
# rule rendering
# ----------------------------------------------------------------------
def render_content(pattern: bytes) -> str:
    """Rules-file text for ``pattern``: printable bytes raw, the rest hex."""
    out: List[str] = []
    run: List[str] = []
    for byte in pattern:
        if 0x20 <= byte < 0x7F and chr(byte) not in '|";\\':
            if run:
                out.append("|" + " ".join(run) + "|")
                run = []
            out.append(chr(byte))
        else:
            run.append(f"{byte:02X}")
    if run:
        out.append("|" + " ".join(run) + "|")
    return "".join(out)


def render_rule(rule: Rule) -> str:
    options = [f'msg:"bench rule {rule.sid}"']
    for content in rule.contents:
        bang = "!" if content.negated else ""
        options.append(f'content:{bang}"{render_content(content.pattern)}"')
        if content.nocase:
            options.append("nocase")
        if content.buffer != "raw":
            options.append(content.buffer)
        for name in ("offset", "depth", "distance", "within"):
            value = getattr(content, name)
            if value is not None:
                options.append(f"{name}:{value}")
    for body, flags, negated in rule.pcres:
        bang = "!" if negated else ""
        options.append(f'pcre:{bang}"/{body}/{flags}"')
    options.append(f"sid:{rule.sid}")
    return (
        f"alert {rule.protocol} any any -> any {rule.dst_port} ("
        + "; ".join(options) + ";)"
    )


def rules_text(rules: List[Rule]) -> str:
    return "".join(render_rule(rule) + "\n" for rule in rules)


# ----------------------------------------------------------------------
# pattern pools
# ----------------------------------------------------------------------
class _Patterns:
    """Unique random patterns (unique even after lower-casing).

    Snort-like strings keep a property the paper's Snort strings showed
    and its automaton relies on (Section IV.A): few distinct starting
    bytes and shallow prefix sharing, so that no state of the string trie
    branches widely.  New strings are built by walking the shared trie and
    only opening a new branch where the node still has room.
    """

    ROOT_BRANCHES = 72
    BRANCHES = 6

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()
        self.trie: Dict[bytes, set] = {}

    def _accept(self, pattern: bytes) -> bool:
        folded = pattern.lower()
        if folded in self.seen:
            return False
        self.seen.add(folded)
        return True

    def token(self, low: int = 6, high: int = 14) -> bytes:
        """An alphanumeric token (safe inside a pcre body unescaped)."""
        rng = self.rng
        while True:
            length = rng.randint(low, high)
            text = "".join(rng.choice(_WORD_LETTERS + "0123456789") for _ in range(length))
            pattern = text.encode()
            if self._accept(pattern):
                return pattern

    def _length(self) -> int:
        point = self.rng.random()
        if point < 0.7:
            return self.rng.randint(4, 13)
        if point < 0.95:
            return self.rng.randint(14, 32)
        return self.rng.randint(33, 60)

    def snort_like(self) -> bytes:
        """A Snort-flavoured string: text, paths, mixed case, binary."""
        rng = self.rng
        while True:
            length = self._length()
            kind = rng.random()
            pattern = bytearray()
            for depth in range(length):
                branches = self.trie.get(bytes(pattern), ())
                room = self.ROOT_BRANCHES if depth == 0 else self.BRANCHES
                if len(branches) >= room:
                    pattern.append(rng.choice(sorted(branches)))
                elif kind < 0.6 or (kind < 0.85 and depth < length // 2):
                    pattern.append(ord(rng.choice(_TOKEN_CHARS)))
                else:
                    pattern.append(rng.randrange(256))
            pattern = bytes(pattern)
            if self._accept(pattern):
                for depth in range(length):
                    self.trie.setdefault(pattern[:depth], set()).add(pattern[depth])
                return pattern


def _case_mix(rng: random.Random, pattern: bytes) -> bytes:
    """A random-case spelling of ``pattern`` (for nocase injections)."""
    return bytes(
        b ^ 0x20 if (0x61 <= b <= 0x7A or 0x41 <= b <= 0x5A) and rng.random() < 0.5 else b
        for b in pattern
    )


def _filler(rng: random.Random, length: int) -> bytearray:
    return bytearray(rng.randbytes(length).translate(_FILLER_TABLE))


# ----------------------------------------------------------------------
# ids-mixed: full-grammar rules
# ----------------------------------------------------------------------
_IDS_HEADERS = (
    (0.30, "tcp", "80"), (0.15, "tcp", "445"), (0.10, "udp", "53"),
    (0.25, "tcp", "any"), (0.20, "ip", "any"),
)
_FLOW_KINDS = (
    (0.35, "tcp", 80), (0.20, "tcp", 445), (0.15, "udp", 53), (0.30, "tcp", 0),
)
_OTHER_PORTS = (21, 25, 110, 143, 3306, 5432, 8080, 8443)
_RULE_KINDS = (
    (0.04, "sticky"), (0.28, "plain"), (0.18, "pair"), (0.08, "chain"),
    (0.08, "absolute"), (0.10, "negated-window"), (0.10, "negated-at-end"),
    (0.14, "pcre"),
)


def _deck(rng: random.Random, table, count: int) -> List[Tuple]:
    """``count`` values from ``table`` in its exact proportions, shuffled.

    The mix is the same for every seed and only the order varies, which
    keeps the cost of a workload from drifting with the seed."""
    out: List[Tuple] = []
    for weight, *value in table:
        out += [tuple(value)] * round(weight * count)
    out = (out + [tuple(table[0][1:])] * count)[:count]
    rng.shuffle(out)
    return out


def _ids_rule(rng: random.Random, pool: _Patterns, sid: int, kind: str,
              header: Tuple[str, str], uri_tokens: List[bytes],
              agent_tokens: List[bytes]) -> Rule:
    protocol, port = ("tcp", "80") if kind == "sticky" else header

    def positive() -> Content:
        pattern = pool.snort_like() if rng.random() < 0.6 else pool.token()
        nocase = rng.random() < 0.2 and any(0x41 <= b <= 0x7A for b in pattern)
        if nocase:
            pattern = pattern.lower()
        return Content(pattern=pattern, nocase=nocase)

    def relative(content: Content) -> Content:
        content.distance = rng.randint(0, 8)
        content.within = len(content.pattern) + rng.randint(0, 32)
        return content

    pcres: List[Tuple[str, str, bool]] = []
    if kind == "sticky":
        # a URI or User-Agent token, optionally with a raw content beside it
        if rng.random() < 0.5:
            contents = [Content(pattern=rng.choice(uri_tokens), buffer="http_uri")]
        else:
            contents = [Content(pattern=b"User-Agent: " + rng.choice(agent_tokens),
                                buffer="http_header")]
        if rng.random() < 0.5:
            contents.insert(0, positive())
    elif kind == "plain":
        contents = [positive()]
    elif kind == "pair":
        contents = [positive(), relative(positive())]
    elif kind == "chain":
        contents = [positive(), relative(positive()), relative(positive())]
    elif kind == "absolute":  # a window past any HTTP request block
        first = positive()
        first.offset = rng.randint(200, 600)
        first.depth = len(first.pattern) + rng.randint(100, 400)
        contents = [first]
    elif kind == "negated-window":  # bounded: decided mid-stream
        negated = Content(pattern=pool.token(5, 8), negated=True, distance=0,
                          within=rng.randint(24, 96))
        contents = [positive(), negated]
    elif kind == "negated-at-end":  # unbounded: decided at flow end
        contents = [positive(), Content(pattern=pool.token(5, 8), negated=True)]
    else:  # pcre confirm over a token content
        token = pool.token()
        contents = [Content(pattern=token)]
        flags = rng.choice(("", "i", "s"))
        body = token.decode() + "[=:][0-9]{2,4}"
        pcres.append((body, flags, rng.random() < 0.15))
    return Rule(sid, protocol, port, contents, pcres)


def _instance(rng: random.Random, rule: Rule, complete: bool) -> bytes:
    """Bytes that satisfy (``complete``) or half-satisfy ``rule``'s raw
    chain.  Placement windows are approximate on purpose: the reference
    decides from the actual bytes, whatever the intent was."""
    out = bytearray()
    positives = [c for c in rule.contents if not c.negated and c.buffer == "raw"]
    if not complete:
        positives = positives[:1]
    for index, content in enumerate(positives):
        if index and content.distance is not None:
            # window edges (first and last fitting gap, one past the last)
            # as often as a random gap inside
            span = max(0, content.within - len(content.pattern))
            gap = rng.choice((0, span, span + 1, rng.randint(0, span)))
            out += _filler(rng, content.distance + gap)
        elif index:
            out += _filler(rng, rng.randint(0, 40))
        out += _case_mix(rng, content.pattern) if content.nocase else content.pattern
    for body, _flags, _negated in rule.pcres:
        if complete and rng.random() < 0.7:
            out += rng.choice((b"=", b":"))
            out += str(rng.randint(10, 9999)).encode()
    for content in rule.contents:
        if content.negated and rng.random() < 0.4:
            # the negated string at its window's edges, just outside, or inside
            span = max(0, (content.within or 40) - len(content.pattern))
            gap = rng.choice((0, span, span + 1, rng.randint(0, span)))
            out += _filler(rng, gap) + content.pattern
    return bytes(out)


def _http_request(
    rng: random.Random, uri_tokens, agent_tokens
) -> Tuple[bytes, List[Tuple[int, str, bytes]]]:
    """A request block and the normalized text each of its lines adds."""
    path = b"/" + b"/".join(rng.choice(uri_tokens) for _ in range(rng.randint(1, 3)))
    lines = [
        ("uri", b"GET " + path + b" HTTP/1.1", path + b"\n"),
        ("header", b"Host: h" + str(rng.randint(1, 99)).encode() + b".example",
         None),
        ("header", b"User-Agent: " + rng.choice(agent_tokens), None),
        ("header", b"Accept: */*", None),
    ]
    block = bytearray()
    marks: List[Tuple[int, str, bytes]] = []
    for kind, text, added in lines:
        block += text + b"\r\n"
        marks.append((len(block), kind, added if added is not None else text + b"\r\n"))
    block += b"\r\n"
    return bytes(block), marks


def _build_ids(rng: random.Random, params: Dict) -> Tuple[List[Rule], List[Flow]]:
    pool = _Patterns(rng)
    uri_tokens = [pool.token(4, 9) for _ in range(24)]
    agent_tokens = [pool.token(5, 10) for _ in range(12)]
    count = params["rules"]
    rules = [
        _ids_rule(rng, pool, 1000 + index, kind, header, uri_tokens, agent_tokens)
        for index, ((kind,), header) in enumerate(zip(
            _deck(rng, _RULE_KINDS, count), _deck(rng, _IDS_HEADERS, count)
        ))
    ]
    flows: List[Flow] = []
    seg_bytes = params["segment_bytes"]
    kinds = _deck(rng, _FLOW_KINDS, params["flows"])
    for index, (protocol, port) in enumerate(kinds):
        long_flow = index % params["long_every"] == params["long_every"] - 1
        if long_flow:  # long flows are HTTP: the heaviest confirm case
            protocol, port = "tcp", 80
        elif port == 0:
            port = rng.choice(_OTHER_PORTS)
        segments = params["long_segments"] if long_flow else params["segments"]
        flow = Flow(protocol, _ip(rng, 10), 1024 + index, _ip(rng, 172), port)
        stream = _filler(rng, segments * seg_bytes)
        protect = 0
        if protocol == "tcp" and port == 80:
            block, marks = _http_request(rng, uri_tokens, agent_tokens)
            stream[: len(block)] = block
            flow.http_lines = marks
            protect = len(block) + 1
        candidates = [r for r in rules if r.matches_header(protocol, port)]
        # three injections: a full instance in the first segment (so every
        # flow hits the prefilter early), a partial one, a full one anywhere
        for number, complete in enumerate((True, False, True)):
            rule = rng.choice(candidates)
            data = _instance(rng, rule, complete)
            first = rule.contents[0]
            at = None
            if first.offset is not None:
                at = first.offset + rng.randint(0, max(0, first.depth - len(first.pattern)))
            elif number == 0:
                at = rng.randint(protect, max(protect, seg_bytes - len(data)))
            _inject(rng, stream, data, protect, seg_bytes, at)
        flow.stream = bytes(stream)
        flow.segments = [(off, seg_bytes) for off in range(0, len(stream), seg_bytes)]
        flows.append(flow)
    return rules, flows


def _inject(rng: random.Random, stream: bytearray, data: bytes, protect: int,
            seg_bytes: int, at: Optional[int] = None) -> None:
    """Overwrite part of ``stream`` with ``data`` past ``protect`` — at
    ``at`` when given, else anywhere, half the time straddling a segment
    boundary."""
    if not data or len(data) > len(stream) - protect:
        return
    last = len(stream) - len(data)
    if at is not None:
        start = at
    elif rng.random() < 0.5 and len(stream) > seg_bytes:
        boundary = seg_bytes * rng.randint(1, (len(stream) - 1) // seg_bytes)
        start = boundary - rng.randint(1, len(data))
    else:
        start = rng.randint(protect, last)
    start = min(max(start, protect), last)
    stream[start:start + len(data)] = data


def _ip(rng: random.Random, first: int) -> str:
    return f"{first}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"


# ----------------------------------------------------------------------
# stream workloads: plain content strings
# ----------------------------------------------------------------------
def _plain_rules(rng: random.Random, count: int) -> List[Rule]:
    pool = _Patterns(rng)
    return [
        Rule(1000 + index, "tcp", "any", [Content(pattern=pool.snort_like())])
        for index in range(count)
    ]


def _build_stream_dtp(rng: random.Random, params: Dict) -> Tuple[List[Rule], List[Flow]]:
    rules = _plain_rules(rng, params["rules"])
    seg_bytes = params["segment_bytes"]
    flows = []
    for index in range(params["flows"]):
        flow = Flow("tcp", _ip(rng, 10), 1024 + index, _ip(rng, 172),
                    rng.choice((80, 443, 8080, 25)))
        stream = _filler(rng, params["segments"] * seg_bytes)
        _inject(rng, stream, rng.choice(rules).contents[0].pattern, 0, seg_bytes)
        flow.stream = bytes(stream)
        flow.segments = [(off, seg_bytes) for off in range(0, len(stream), seg_bytes)]
        flows.append(flow)
    return rules, flows


def _build_wire_mangled(rng: random.Random, params: Dict) -> Tuple[List[Rule], List[Flow]]:
    rules = _plain_rules(rng, params["rules"])
    flows = []
    for index in range(params["flows"]):
        flow = Flow("tcp", _ip(rng, 10), 1024 + index, _ip(rng, 172),
                    rng.choice((80, 445, 8080)))
        stream = _filler(rng, params["stream_bytes"])
        for _ in range(2):
            _inject(rng, stream, rng.choice(rules).contents[0].pattern, 0,
                    params["max_segment"])
        flow.stream = bytes(stream)
        offset = 0
        while offset < len(stream):
            length = min(rng.randint(params["min_segment"], params["max_segment"]),
                         len(stream) - offset)
            flow.segments.append((offset, length))
            offset += length
        flow.mangle = MANGLE_MODES[index % len(MANGLE_MODES)]
        flows.append(flow)
    return rules, flows


# ----------------------------------------------------------------------
# wire rendering
# ----------------------------------------------------------------------
def _flow_frames(rng: random.Random, flow: Flow) -> List[Tuple[int, int, bytes]]:
    """One flow's frames in arrival order: (flags, stream offset, payload).
    TCP flows are SYN-anchored and FIN-terminated; the stream offset of
    the SYN is -1 (it consumes one sequence number)."""
    pieces = [(off, flow.stream[off:off + length]) for off, length in flow.segments]
    if flow.protocol == "udp":
        return [(0, off, data) for off, data in pieces]
    if flow.mangle == "reorder":
        # swap random neighbours: every hole is small and short-lived
        for index in range(0, len(pieces) - 1, 2):
            if rng.random() < 0.5:
                pieces[index], pieces[index + 1] = pieces[index + 1], pieces[index]
    elif flow.mangle == "retransmit":
        # resend about one segment in four a few segments later
        out = list(pieces)
        for off, data in pieces:
            if rng.random() < 0.25:
                position = next(i for i, p in enumerate(out) if p[0] == off)
                out.insert(min(len(out), position + rng.randint(1, 4)), (off, data))
        pieces = out
    elif flow.mangle == "overlap-split":
        # cut each segment in two pieces that overlap by a few identical bytes
        out = []
        for off, data in pieces:
            if len(data) < 16:
                out.append((off, data))
                continue
            cut = rng.randint(4, len(data) - 4)
            lap = rng.randint(1, 4)
            out.append((off + cut - lap, data[cut - lap:]))
            out.append((off, data[:cut]))
        pieces = out
    frames = [(_SYN, -1, b"")]
    frames += [(_PSH_ACK, off, data) for off, data in pieces]
    frames.append((_FIN_ACK, len(flow.stream), b""))
    return frames


def _interleave(rng: random.Random, per_flow: List[List]) -> List[Tuple[int, int, int, bytes]]:
    """Random merge that keeps each flow's own frame order."""
    order = [index for index, frames in enumerate(per_flow) for _ in frames]
    rng.shuffle(order)
    cursors = [0] * len(per_flow)
    merged = []
    for index in order:
        flags, offset, payload = per_flow[index][cursors[index]]
        cursors[index] += 1
        merged.append((index, flags, offset, payload))
    return merged


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """Generate workload ``name`` for ``seed`` at ``scale`` ("full"/"tiny")."""
    spec = WORKLOADS[name]
    params = spec[scale]
    rng = random.Random(f"{name}/{scale}/{seed}")
    construct = {
        "ids-mixed": _build_ids,
        "stream-dtp": _build_stream_dtp,
        "wire-mangled": _build_wire_mangled,
    }[name]
    rules, flows = construct(rng, params)
    frames = _interleave(rng, [_flow_frames(rng, flow) for flow in flows])
    return Workload(name, seed, spec["mode"], spec["backend"],
                    spec["reassemble"], rules, flows, frames)


# ----------------------------------------------------------------------
# pcap writer (classic pcap, Ethernet, IPv4)
# ----------------------------------------------------------------------
def _checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _frame(flow: Flow, isn: int, flags: int, offset: int, payload: bytes) -> bytes:
    src = bytes(int(part) for part in flow.src.split("."))
    dst = bytes(int(part) for part in flow.dst.split("."))
    if flow.protocol == "udp":
        transport = struct.pack("!HHHH", flow.sport, flow.dport, 8 + len(payload), 0) + payload
        proto = 17
    else:
        seq = (isn + 1 + offset) & 0xFFFFFFFF
        header = struct.pack("!HHIIBBHHH", flow.sport, flow.dport, seq, 1,
                             5 << 4, flags, 65535, 0, 0)
        pseudo = src + dst + struct.pack("!BBH", 0, 6, len(header) + len(payload))
        csum = _checksum(pseudo + header + payload)
        transport = header[:16] + struct.pack("!H", csum) + header[18:] + payload
        proto = 6
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(transport), 0, 0x4000, 64,
                     proto, 0, src, dst)
    ip = ip[:10] + struct.pack("!H", _checksum(ip)) + ip[12:]
    return b"\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08\x00" + ip + transport


def pcap_bytes(workload: Workload) -> bytes:
    rng = random.Random(f"isn/{workload.name}/{workload.seed}")
    isns = [rng.getrandbits(32) for _ in workload.flows]
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for number, (index, flags, offset, payload) in enumerate(workload.frames):
        frame = _frame(workload.flows[index], isns[index], flags, offset, payload)
        out.append(struct.pack("<IIII", 1_700_000_000 + number // 1000000,
                               number % 1000000, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)
