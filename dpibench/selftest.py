"""Tiny-input self-test of the benchmark itself.

    python3 dpibench/selftest.py

Run from the root of a source checkout.  For every workload in
``BENCHMARK.json`` it runs ``run.py`` on tiny inputs, untraced once and
traced twice with the same seed, and checks that

* every run is correct and reports exactly the metric names (and units)
  ``BENCHMARK.json`` declares for its mode;
* count metrics repeat exactly for the same seed;
* the result of a run is the last line of standard output.

It also copies ``BENCHMARK.json`` and the benchmark directory alone into a
scratch directory and checks that the benchmark fails there (non-zero
exit, no result line), as it must without the program's source.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes")


def run(workload: str, trace: int, cwd: pathlib.Path, seed: int = 7):
    command = [
        sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
        "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def main() -> int:
    root = pathlib.Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for label, trace in (("untraced", 0), ("traced", 1), ("traced again", 1)):
            child = run(workload, trace, root)
            if child.returncode != 0:
                problems.append(
                    f"{workload} {label}: exit {child.returncode}: {child.stderr[-400:]}"
                )
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            results[label] = result
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} {label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} {label}: not correct: {result}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(
                    f"{workload} {label}: emitted {emitted} but BENCHMARK.json "
                    f"declares {declared[trace]}"
                )
        if "traced" in results and "traced again" in results:
            first = results["traced"]["metrics"]
            second = results["traced again"]["metrics"]
            for name, unit in declared[1].items():
                if unit in COUNT_UNITS and first[name]["value"] != second[name]["value"]:
                    problems.append(
                        f"{workload}: count {name} did not repeat "
                        f"({first[name]['value']} vs {second[name]['value']})"
                    )
        print(f"{workload}: checked {len(results)} runs", flush=True)

    # without the program's source the benchmark must fail, printing no result
    scratch_root = root / ".dpibench_work"
    scratch_root.mkdir(exist_ok=True)
    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=scratch_root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = run(spec["workloads"][0]["name"], 0, bare)
        if child.returncode == 0 or child.stdout.strip():
            problems.append("benchmark did not fail without the program source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
