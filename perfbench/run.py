"""gflswing benchmark: one closed-loop client driving gflswing.cli.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. The seed fixes the generated YAML inputs (see inputs.py). Metric
names and units come from BENCHMARK.json: ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a run with spans
recorded around each layer (see tracer.py). Human-readable lines come first;
the last line of standard output is the JSON result. Scratch files, the
generated inputs, a result record and the spans of the last traced op go to
``.perfbench_work/<workload>-trace<0|1>/``, which each run clears first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

import inputs
import reference

HERE = Path(__file__).resolve().parent
# Set-up is timed in this many fresh processes after one discarded warm-up
# process, which also writes the bytecode caches.
SETUP_PROBES = 7
DEADLINE_S = 170.0


def _src_lines(src: Path) -> dict[str, int]:
    counts = {
        p.stem: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((src / "gflswing").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def _python(args: list[str], env: dict, timeout: float) -> str:
    """Run a perfbench script in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "gflswing" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no gflswing source checkout at {root}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    work = root / ".perfbench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work))

    candidates = []
    for k, documents in enumerate(inputs.draw(args.workload, args.seed)):
        candidates.append([])
        for c, text in enumerate(documents):
            path = work / f"input{k}-candidate{c}.yaml"
            path.write_text(text, encoding="utf-8")
            candidates[-1].append(str(path))

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    worker = str(HERE / "worker.py")
    probes = [
        json.loads(_python([worker, "setup", str(src), candidates[0][0]], env, remaining()))
        for _ in range(SETUP_PROBES + 1)
    ][1:]

    job_path = work / "job.json"
    job_path.write_text(json.dumps({
        "workload": args.workload, "src": str(src), "work": str(work),
        "inputs": candidates, "seconds": args.seconds, "trace": args.trace,
    }), encoding="utf-8")
    report = json.loads(_python([worker, "run", str(job_path)], env, remaining()).splitlines()[-1])

    ops = report["ops"]
    failed = [o for o in ops if o["problems"]]
    seconds = {
        kind: [o["seconds"] for o in ops if o["kind"] == kind]
        for kind in ("timed", "traced")
    }
    if args.trace:
        values = dict(report["layers"])
        values["trace.overhead_frac"] = median(seconds["traced"]) / median(seconds["timed"]) - 1.0
        wanted = spec["per_layer"]
    else:
        # The median op time of each input, averaged over the run's inputs,
        # which the generator spreads over the range the workload covers.
        # op_rel divides each op's time by the reference kernel's time taken
        # around it (see reference.py).
        per_input = [
            [o for o in ops if o["kind"] == "timed" and o["input"] == k]
            for k in range(len(report["inputs"]))
        ]
        values = {
            # Set-up seconds at the reference kernel's nominal speed: each
            # probe's set-up time over its own kernel time, in NOMINAL_S units.
            "setup_s": median(p["setup_s"] / p["ref_s"] for p in probes) * reference.NOMINAL_S,
            "setup_raw_s": median(p["setup_s"] for p in probes),
            "op_s.p50": fmean(median(o["seconds"] for o in v) for v in per_input),
            "op_rel.p50": fmean(
                median(o["seconds"] / o["ref_seconds"] for o in v) for v in per_input
            ),
            "ref_s.p50": median(o["ref_seconds"] for v in per_input for o in v),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # Raw wall seconds follow the host's drift too closely to carry a bound;
    # they are printed and recorded beside the metrics.
    wall = {
        k: {"value": values[k], "unit": "s"}
        for k in ("setup_raw_s", "op_s.p50", "ref_s.p50") if k in values
    }

    facts = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "src_lines": _src_lines(src),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "inputs": report["inputs"],
        "op_seconds": seconds, "setup_probes": probes,
        "counters": report["counters"], "metrics": metrics, "wall": wall,
        "failures": [{"kind": o["kind"], "problems": o["problems"]} for o in failed],
        "spans_file": report["spans_file"],
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={facts['python']} nproc={facts['nproc']}")
    print("src lines: " + " ".join(f"{k}={v}" for k, v in facts["src_lines"].items()))
    print("counters: " + " ".join(f"{k}={v:g}" for k, v in report["counters"].items()))
    print("op samples: " + " ".join(f"{k}={len(v)}" for k, v in seconds.items() if v)
          + f" setup={len(probes)}")
    for name, m in {**metrics, **wall}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {len(failed) / max(len(ops), 1):g} ratio ({len(failed)}/{len(ops)} ops)")
    for o in failed:
        print(f"failed {o['kind']} op: {'; '.join(o['problems'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and bool(ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
