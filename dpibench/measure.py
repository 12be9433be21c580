"""The measured process: set up a ``repro.api.Session``, time ``run()``.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and a
job file naming the generated rules file, capture and reference outputs.
Every iteration builds a fresh ``Session`` (set-up is timed as
``setup_s``), runs it (timed for ``payload_mbps``) and checks every flow's
output against the reference.  One untimed warm-up iteration comes first.

The host's speed changes while it measures, so every reported time is
scaled to a reference host speed by the probes of ``hostspeed.py``, taken
on a timer while set-up and run go on and at the edges of each.  The
metrics are medians over iterations; the diagnostics print the unscaled
wall-clock figures next to them and the probe quartiles.

With ``--trace 1`` iterations alternate between untraced and traced; the
traced ones install the span recorder before the ``Session`` exists and
give the per-layer metrics, the untraced ones the base of
``tracing.overhead``.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

import numpy

from hostspeed import HostSpeed
from reference import compare
from spans import LAYERS, SpanRecorder, layer_of

#: timed iterations a run makes at least, whatever ``--seconds`` says
MIN_ITERATIONS = 3


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


def make_config(job: Dict):
    from repro.api import EngineSpec, PipelineConfig, RulesSpec, SourceSpec

    return PipelineConfig(
        mode=job["mode"],
        source=SourceSpec(kind="pcap", path=job["pcap"]),
        rules=RulesSpec(kind="file", path=job["rules"]),
        engine=EngineSpec(
            backend=job["backend"],
            reassemble=job["reassemble"],
            overlap_policy="first",
        ),
    )


def set_up(config):
    """Session construction to engine ready: every lazily built part the
    run needs is forced here, so ``run()`` never parses or compiles."""
    from repro.api import Session

    session = Session(config)
    session.reassembler
    if config.mode == "ids":
        session.ids.flow_scanner
    else:
        session.service
    return session


def outputs(session, run, job: Dict) -> Dict[str, List[Tuple[int, int]]]:
    """The run's output grouped per flow key, in the reference's form."""
    grouped: Dict[str, List[Tuple[int, int]]] = {}
    if job["mode"] == "ids":
        owner = job["packet_flow"]
        for alert in run.alerts:
            pid = alert.packet_id
            key = owner[pid] if 0 <= pid < len(owner) else f"unknown packet {pid}"
            grouped.setdefault(key, []).append((pid, alert.sid))
    else:
        sid_of = session.sid_of
        for event in run.events:
            src, dst, sport, dport, proto = event.flow.as_tuple()
            key = f"{proto}:{src}:{sport}>{dst}:{dport}"
            grouped.setdefault(key, []).append((sid_of[event.string_number], event.end_offset))
    return grouped


def dropped_output_detected(want, got) -> bool:
    """Drop one alert/event from a correct output: the check must flag
    exactly that flow, or a zero error count would prove nothing."""
    for key, items in got.items():
        if items:
            damaged = dict(got)
            damaged[key] = sorted(items)[1:]
            return compare(want, damaged) == [key]
    return False


def counts(session) -> Dict[str, int]:
    """Counters the program keeps itself, read from ``Session.stats()``."""
    stats = session.stats()
    out = {"capture.frames": stats.get("capture", {}).get("frames", 0)}
    reassembly = stats.get("reassembly", {})
    for name in ("segments_in", "packets_out", "retransmits", "overlap_bytes"):
        out["proto." + name] = reassembly.get(name, 0)
    ids = stats.get("ids", {})
    out["ids.header_candidates"] = ids.get("header_candidates", 0)
    out["ids.alerts"] = ids.get("alerts_raised", 0)
    return out


def resident_bytes(program) -> int:
    """The compiled program's image size, as the program describes it: the
    device memory image for ``dtp``, the flat tables otherwise."""
    if hasattr(program, "total_memory_bytes"):
        return int(program.total_memory_bytes())
    return int(sum(
        getattr(program, name).nbytes
        for name in ("table", "match_index", "match_pids")
        if hasattr(program, name)
    ))


def layer_metrics(
    recorder: SpanRecorder, sample: "Sample"
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(timings, counts)`` of one traced iteration: per-layer self times
    (scaled like every reported time) and the call and byte counts the
    spans saw."""
    run_spans = recorder.totals("run")
    setup_spans = recorder.totals("setup")
    selfs = {layer: 0.0 for layer in LAYERS}
    for name, entry in run_spans.items():
        layer = layer_of(name)
        if layer is not None:
            selfs[layer] += entry["self"]

    def span(table, name, field):
        return table.get(name, {}).get(field, 0)

    checks = span(run_spans, "ids.confirm.check", "calls")
    run_host = sample.run_host
    setup_host = sample.setup_host
    timings = {layer + ".self_s": selfs[layer] / run_host for layer in LAYERS}
    timings.update({
        "tracing.coverage": 100.0 * sum(selfs.values()) / recorder.find("run").total,
        "core.mbps": span(run_spans, "core.scan_chunk", "bytes") / timings["core.self_s"] / 1e6,
        "rulesets.parse_s": span(setup_spans, "rulesets.parse_rules", "self") / setup_host,
        "core.compile_s": span(setup_spans, "core.compile", "self") / setup_host,
        "engine.build_s": span(setup_spans, "engine.build", "self") / setup_host,
    })
    counted = {
        "streaming.batch_calls": span(run_spans, "streaming.scan_batch", "calls"),
        "core.scan_calls": span(run_spans, "core.scan_chunk", "calls"),
        "core.bytes": span(run_spans, "core.scan_chunk", "bytes"),
        "core.events": span(run_spans, "core.scan_chunk", "events"),
        "ids.classifier.calls": span(run_spans, "ids.classifier.classify", "calls"),
        "ids.confirm.checks": checks,
        "ids.confirm.hit_ratio": (
            span(run_spans, "ids.confirm.check", "passed") / checks if checks else 0.0
        ),
    }
    return timings, counted


class Sample:
    """One timed iteration: each phase's wall time and host slowdown."""

    def __init__(self, clock: HostSpeed, setup: Tuple[float, float],
                 run: Tuple[float, float]):
        self.setup_s, self.setup_host, _ = clock.phase(*setup)
        self.run_s, self.run_host, self.run_probes = clock.phase(*run)
        self.probes = [seconds for _, _, seconds in clock.samples]
        self.timings: Dict[str, float] = {}

    def scaled(self, phase: str) -> float:
        """The phase's time at the reference host speed."""
        if phase == "setup":
            return self.setup_s / self.setup_host
        return self.run_s / self.run_host


def iterate(config, job: Dict, clock: HostSpeed, recorder=None):
    """One fresh-session iteration: ``(sample, outputs, session)``."""
    gc.collect()
    clock.samples.clear()
    if recorder is not None:
        recorder.install()
    try:
        clock.sample()
        start = time.perf_counter()
        if recorder is None:
            session = set_up(config)
        else:
            with recorder.span("setup"):
                session = set_up(config)
        ready = time.perf_counter()
        clock.sample()
        started = time.perf_counter()
        if recorder is None:
            run = session.run()
        else:
            with recorder.span("run"):
                run = session.run()
        done = time.perf_counter()
        clock.sample()
    finally:
        if recorder is not None:
            recorder.uninstall()
    got = outputs(session, run, job)
    return Sample(clock, (start, ready), (started, done)), got, session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.job, encoding="utf-8") as handle:
        job = json.load(handle)
    want = {key: [tuple(item) for item in items] for key, items in job["expected"].items()}
    config = make_config(job)

    # warm-up: imports, regex caches, first-touch allocations.  Peak RSS is
    # read after it: one set-up plus one capture-to-alerts run in a fresh
    # process, before later iterations add allocator fragmentation
    _, got, session = iterate(config, job, HostSpeed())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(compare(want, got))
    attempted = len(want)
    self_test_ok = dropped_output_detected(want, got)
    reference_counts = counts(session)
    resident = resident_bytes(session.ids.program if job["mode"] == "ids" else session.program)
    session.close()
    del session

    untraced: List[Sample] = []
    traced: List[Sample] = []
    span_counts: List[Dict[str, float]] = []
    counts_stable = True
    deadline = time.perf_counter() + args.seconds
    need = MIN_ITERATIONS * (2 if args.trace else 1)
    iteration = 0
    with HostSpeed() as clock:
        while True:
            recorder = SpanRecorder() if args.trace == 1 and iteration % 2 == 1 else None
            sample, got, session = iterate(config, job, clock, recorder)
            failed += len(compare(want, got))
            attempted += len(want)
            counts_stable &= counts(session) == reference_counts
            session.close()
            del session
            if recorder is None:
                untraced.append(sample)
            else:
                sample.timings, counted = layer_metrics(recorder, sample)
                traced.append(sample)
                span_counts.append(counted)
            iteration += 1
            if time.perf_counter() >= deadline and iteration >= need:
                break

    run_s = statistics.median(sample.scaled("run") for sample in untraced)
    if args.trace:
        metrics = {}
        for name in traced[0].timings:
            metrics[name] = statistics.median(sample.timings[name] for sample in traced)
        metrics.update(span_counts[0])
        counts_stable &= all(entry == span_counts[0] for entry in span_counts)
        metrics.update(reference_counts)
        metrics["core.resident_bytes"] = resident
        metrics["tracing.overhead"] = (
            statistics.median(sample.scaled("run") for sample in traced) / run_s
        )
    else:
        metrics = {
            "payload_mbps": job["useful_bytes"] / run_s / 1e6,
            "setup_s": statistics.median(sample.scaled("setup") for sample in untraced),
            "peak_rss_mb": rss_mb,
        }
    wall_mbps = [job["useful_bytes"] / sample.run_s / 1e6 for sample in untraced]
    all_probes = [p * 1000 for sample in untraced + traced for p in sample.probes]
    diagnostics = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "probes_per_run": statistics.median(sample.run_probes for sample in untraced),
        "payload_mbps_quartiles": quartiles(
            [job["useful_bytes"] / sample.scaled("run") / 1e6 for sample in untraced]),
        "setup_s_quartiles": quartiles([sample.scaled("setup") for sample in untraced]),
        "payload_mbps_quartiles_wall": quartiles(wall_mbps),
        "setup_s_quartiles_wall": quartiles([sample.setup_s for sample in untraced]),
        "probe_ms_quartiles": quartiles(all_probes),
        "probe_ms_min": min(all_probes),
        # per untraced iteration: set-up s, its host factor, run s, its factor
        "iteration_times": [
            [round(sample.setup_s, 5), round(sample.setup_host, 4),
             round(sample.run_s, 5), round(sample.run_host, 4)]
            for sample in untraced
        ],
        "flow_error_share": failed / attempted,
        "dropped_output_self_test": "flagged" if self_test_ok else "NOT FLAGGED",
        "counts_repeat": counts_stable,
    }
    result = {
        "correct": failed == 0 and self_test_ok and counts_stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
