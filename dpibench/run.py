"""Capture-to-alerts benchmark for the DPI engine.

    python3 dpibench/run.py --workload ids-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The command generates the
workload's rules file and pcap from ``--seed`` (``gen.py``), computes the
expected per-flow output with an independent reference (``reference.py``),
then starts one measuring process (``measure.py``) that sets up a
``repro.api.Session``, times ``Session.run()`` and checks every flow of
every iteration.  Only that one process is busy while it measures.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Host and
spread diagnostics are printed on the lines before it; they are never
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import gen
import reference

HERE = pathlib.Path(__file__).resolve().parent

#: the measuring process must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"dpibench: {message}", file=sys.stderr)
    return 2


def prepare(workload: gen.Workload, directory: pathlib.Path) -> pathlib.Path:
    """Write rules, capture and the reference job file; return the job path."""
    rules = directory / "rules.rules"
    pcap = directory / "capture.pcap"
    rules.write_text(gen.rules_text(workload.rules), encoding="utf-8")
    pcap.write_bytes(gen.pcap_bytes(workload))
    job = {
        "workload": workload.name,
        "mode": workload.mode,
        "backend": workload.backend,
        "reassemble": workload.reassemble,
        "rules": str(rules),
        "pcap": str(pcap),
        "useful_bytes": workload.useful_bytes,
        "expected": reference.expected(workload),
    }
    if workload.mode == "ids":
        owner = []
        for flow, packets in zip(workload.flows, reference.ids_packet_ids(workload)):
            for packet_id, _ in packets:
                owner.append((packet_id, flow.key))
        job["packet_flow"] = [key for _, key in sorted(owner)]
    path = directory / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capture-to-alerts DPI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size (tiny is for selftest.py)")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {source / 'repro'}; run from a source checkout")
    # the metric names and units are the ones BENCHMARK.json declares
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    started = time.perf_counter()
    workload = gen.build(args.workload, args.seed, args.scale)
    work_root = root / ".dpibench_work"
    work_root.mkdir(exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        job = prepare(workload, directory)
        prepared = time.perf_counter() - started
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source)
        command = [
            sys.executable, str(HERE / "measure.py"), "--job", str(job),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            child = subprocess.run(
                command, env=env, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            return fail(f"measuring process exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return fail(f"measuring process failed with exit code {child.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for declared in spec["per_layer" if args.trace else "end_to_end"]:
        name = declared["name"]
        if name not in result["metrics"]:
            return fail(f"measuring process did not report {name}")
        metrics[name] = {"value": result["metrics"][name], "unit": declared["unit"]}
    diagnostics = result["diagnostics"]
    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "flows": len(workload.flows),
        "frames": len(workload.frames),
        "rules": len(workload.rules),
        "useful_bytes": workload.useful_bytes,
        "input_prepare_s": round(prepared, 3),
    })
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
