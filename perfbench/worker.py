"""The workload process, and the fresh process that times set-up.

    python3 perfbench/worker.py setup <src dir> <config.yaml>
    python3 perfbench/worker.py run <job.json>

``setup`` prints the seconds taken to import gflswing and load one config,
and then the seconds of one pass of the reference kernel.
``run`` drives one client in a closed loop through gflswing.cli (load_config
then the workload's command, as ``gflswing <command>`` does), checks every
op's outputs outside the timed region and prints one JSON report. run.py
starts both; the workload runs in its own process so that its peak memory is
the program's own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import reference
import tracer

# Untraced runs repeat their cycle at least this often, so that every input
# has a median and a second op to compare outputs with.
MIN_UNTRACED_CYCLES = 2

# Traced runs alternate an op with the tracer installed and one without, so
# that the tracer's overhead is measured in the same run.
TRACED_CYCLE = ("traced", "timed")


def _import_cli(src: str):
    sys.path.insert(0, src)
    import gflswing.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"gflswing was imported from {cli.__file__}, not from {src}")
    return cli


def setup(src: str, config: str) -> None:
    t0 = time.perf_counter()
    cli = _import_cli(src)
    cli.load_config(config)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "ref_s": reference.seconds()}))


def bracket_valid(cli, config_path: str) -> bool:
    """Stable when cleared at the bracket's t_min, unstable at its t_max."""
    config = cli.load_config(config_path)
    base = config.scenario

    def stable(interval: float) -> bool:
        scenario = dataclasses.replace(base, t_clear=base.t_fault + interval)
        traj = cli.simulate(config.fleet, config.grid, scenario, config.solver)
        return cli.classify(traj, config.settle_tol, config.settle_window).stable

    return stable(config.cct.t_min) and not stable(config.cct.t_max)


class Workload:
    def __init__(self, cli, job: dict) -> None:
        self.cli = cli
        self.name = job["workload"]
        self.work = Path(job["work"])
        self.tracer = tracer.Tracer()
        self.reference: dict[str, dict[str, str]] = {}
        self.counters: dict[str, float] | None = None
        self.last_spans: list[list] = []
        self.ops = 0

    def _command(self, config_path: str, out: Path) -> int:
        # Called through the module so that installed wrappers are used.
        config = self.cli.load_config(config_path)
        if self.name == "wide_fleet":
            return self.cli.cmd_simulate(config, out)
        return self.cli.cmd_cct(config, out)

    def op(self, input_index: int, config_path: str, kind: str) -> dict:
        out = self.work / f"op-{self.ops}"
        self.ops += 1
        traced = kind == "traced"
        ref_before = reference.seconds()
        with self.tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc = self._command(config_path, out)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        # The yardstick is timed on both sides of the op to follow the host's
        # speed while the op ran.
        ref_seconds = 0.5 * (ref_before + reference.seconds())
        record = {"input": input_index, "kind": kind, "seconds": seconds,
                  "ref_seconds": ref_seconds, "problems": [error] if error else []}
        if error is None:
            record["problems"] += checks.check(self.name, out, rc)
            found = checks.digests(out)
            if self.reference.setdefault(config_path, found) != found:
                record["problems"].append("outputs differ from the first op on the same input")
        if traced:
            self.last_spans = self.tracer.take()
            layers = tracer.layer_metrics(self.last_spans)
            csv = out / "trajectory.csv"
            layers["cli.trajectory_csv.bytes"] = csv.stat().st_size if csv.exists() else 0
            counters = {k: layers[k] for k in tracer.COUNTERS}
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                record["problems"].append("deterministic counters differ between traced ops")
            record["layers"] = layers
        shutil.rmtree(out, ignore_errors=True)
        return record


def run(job: dict) -> dict:
    cli = _import_cli(job["src"])
    workload = Workload(cli, job)
    trace = bool(job["trace"])

    # Each input's candidates stand in order: cct_search keeps the first
    # whose reference bracket is valid, the other workloads the first.
    paths = []
    for candidates in job["inputs"]:
        valid = (p for p in candidates if workload.name != "cct_search" or bracket_valid(cli, p))
        path = next(valid, None)
        if path is None:
            raise RuntimeError("no candidate input has a valid reference bracket")
        paths.append(path)

    # Traced runs use the first input only; their figures have no bound.
    if trace:
        cycle = [(0, paths[0], kind) for kind in TRACED_CYCLE]
    else:
        cycle = [(k, path, "timed") for k, path in enumerate(paths)]
    ops = []
    deadline = time.perf_counter() + job["seconds"]
    cycles = 0
    while True:
        t0 = time.perf_counter()
        ops += [workload.op(*step) for step in cycle]
        cycles += 1
        # Start another cycle only if it should end before the deadline.
        now = time.perf_counter()
        if now + (now - t0) > deadline and (trace or cycles >= MIN_UNTRACED_CYCLES):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not trace:
        # The counters come from one traced op after the peak memory is read,
        # so that the spans it keeps do not count toward it.
        ops.append(workload.op(0, paths[0], "traced"))

    spans_path = workload.work / "spans.tsv"
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write("id\tname\tparent\tstart_ns\tend_ns\tnote\n")
        for k, s in enumerate(workload.last_spans):
            f.write(f"{k}\t{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\n")

    layer_ops = [o.pop("layers") for o in ops if "layers" in o]
    return {
        "inputs": paths,
        "ops": ops,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage / 1024.0,
        "layers": {k: statistics.median(o[k] for o in layer_ops) for k in layer_ops[0]},
        "counters": workload.counters,
        "spans_file": str(spans_path),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], argv[2])
        return 0
    if argv[:1] == ["run"] and len(argv) == 2:
        with open(argv[1], encoding="utf-8") as f:
            job = json.load(f)
        print(json.dumps(run(job)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
