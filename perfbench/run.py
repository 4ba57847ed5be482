"""The repository benchmark: one command, two workloads, every answer checked.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload sets up a gSketch engine
(``GSketchConfig(total_cells=60_000, depth=4)``, stock defaults otherwise)
in its own process, measures for ``--seconds`` seconds, then checks every
answer against an in-process oracle engine and exact truth
(:mod:`checks`).  It prints each metric as ``workload/name = value unit``,
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice — untraced, then with span wrappers around each layer's
public callables (:mod:`spans`) — and reports the per-layer metrics
(:mod:`layers`), including the tracing overhead.  The exit code is non-zero
on any incorrect answer, on a counter that disagrees with the spans, and
when the program cannot be found or run.

``--smoke`` shrinks every input for the benchmark's own test;
``--corrupt-oracle`` perturbs one oracle value so that test can show the
correctness gate trips.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import pace
from loadgen import DEADLINE_MS, OK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Every child process is killed once a workload has run this long, so a hung
#: run still ends (without a result) inside the 180 s a run may take.
RUN_BUDGET_SECONDS = 170.0

#: Metric names and units, and why each workload was chosen, are declared
#: once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(metric["name"], metric["unit"]) for metric in DECLARED["end_to_end"]]
PER_LAYER = [(metric["name"], metric["unit"]) for metric in DECLARED["per_layer"]]
WHY = {workload["name"]: workload["why"] for workload in DECLARED["workloads"]}

MODULES = {
    "serve-mixed": [
        "repro.serving.wire", "repro.serving.coalesce", "repro.serving.server",
        "repro.queries.plan", "repro.graph", "repro.core", "repro.sketches", "repro.api",
    ],
    "embedded-bulk": ["repro.api", "repro.core", "repro.sketches", "repro.queries.plan",
                      "repro.graph"],
}

UNCOVERED = [
    "repro.distributed (sharded executors)",
    "repro.queries.parallel (reader pool)",
    "repro.core.windowed (windowed backend)",
    "repro.observability with telemetry enabled",
]


class Children:
    """Every process this run starts; a watchdog kills them past the budget."""

    def __init__(self, budget_seconds: float) -> None:
        self._procs: list = []
        self._timer = threading.Timer(budget_seconds, self.kill)
        self._timer.daemon = True
        self._timer.start()

    def start(self, script: str, *args: str, stdin: bool = False) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SOURCE), env.get("PYTHONPATH", "")])
        )
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self._procs.append(proc)
        return proc

    def kill(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()

    def close(self) -> None:
        self._timer.cancel()
        self.kill()
        for proc in self._procs:
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()


def expect(proc: subprocess.Popen, event: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"{proc.args[1]} exited before its {event!r} event")
    message = json.loads(line)
    if message.get("event") != event:
        raise RuntimeError(f"expected {event!r} from {proc.args[1]}, got {message}")
    return message


def command(proc: subprocess.Popen, op: str, label: str, reply: str) -> dict:
    proc.stdin.write(json.dumps({"op": op, "label": label}) + "\n")
    proc.stdin.flush()
    return expect(proc, reply)


# ---------------------------------------------------------------------- #
# Passes: one system process (plus the load generator for serve-mixed)
# ---------------------------------------------------------------------- #
def serve_pass(children: Children, workload: str, workdir: Path, traced: bool) -> dict:
    flags = ["--trace"] if traced else []
    system = children.start("system.py", str(workdir), workload, *flags, stdin=True)
    imported = expect(system, "imported")
    ready = expect(system, "ready")
    marks = {"start": command(system, "mark", "start", "mark"), "phases": []}
    port = str(ready["port"])
    loadgen = children.start("loadgen.py", str(workdir), port, *flags, stdin=True)
    done = None
    for line in loadgen.stdout:
        event = json.loads(line)
        if event["event"] == "phase":
            label = f"{event['name']}-{event['edge']}"
            marks["phases"].append((label, command(system, "mark", label, "mark")))
        elif event["event"] == "pause":
            command(system, "setup", "between rounds", "setup")
            loadgen.stdin.write("resume\n")
            loadgen.stdin.flush()
        elif event["event"] == "done":
            done = event
    if loadgen.wait() != 0 or done is None:
        raise RuntimeError("the load generator failed")
    marks["end"] = command(system, "mark", "end", "mark")
    finished = command(system, "finish", "end", "finished")
    if system.wait() != 0:
        raise RuntimeError("the system process failed")
    with np.load(workdir / "loadgen.npz") as data:
        loadgen_arrays = {name: data[name] for name in data.files}
    return {
        "imported": imported,
        "ready": ready,
        "marks": marks,
        "done": done,
        "finished": finished,
        "loadgen": loadgen_arrays,
    }


def embedded_pass(children: Children, workdir: Path, traced: bool) -> dict:
    flags = ["--trace"] if traced else []
    system = children.start("system.py", str(workdir), "embedded-bulk", *flags)
    imported = expect(system, "imported")
    finished = expect(system, "finished")
    if system.wait() != 0:
        raise RuntimeError("the system process failed")
    with np.load(workdir / "embedded_answers.npz") as data:
        answers = {name: data[name] for name in data.files}
    return {"imported": imported, "finished": finished, "answers": answers}


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #
def percentile_report(samples: np.ndarray, q: float) -> str:
    beyond = int(np.count_nonzero(samples > np.percentile(samples, q)))
    return f"{len(samples)} samples, {beyond} beyond"


# Every timing is scaled to the reference CPU speed (:mod:`pace`): the VM
# the benchmark was tuned on runs 1.6-2x faster or slower for seconds or
# whole runs, and a run's figures would otherwise tell which state it drew.
# Each figure is taken per round of the workload, from all the work of that
# round's phase, scaled by the CPU's speed during the phase (times
# multiplied, rates divided).  The reported value is the mean over the
# rounds without the lowest and the highest, so one disturbed round moves
# it little.


def within(stamps_ns: np.ndarray, begin: float, end: float) -> np.ndarray:
    return (stamps_ns >= begin) & (stamps_ns < end)


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value (of three or more)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(np.mean(ordered[1:-1] if len(ordered) >= 3 else ordered))


def setup_seconds(setups, pulses) -> float:
    """Set-up time over the set-ups, each scaled by the CPU's speed during it."""
    return trimmed_mean(
        [setup["setup_s"] * pace.speed_over(pulses, *setup["span_ns"]) for setup in setups]
    )


def serve_metrics(result: dict, sizes: inputs.Sizes) -> tuple:
    lg = result["loadgen"]
    finished = result["finished"]
    pulses = finished["pulses"]
    n_open = len(lg["open_status"])
    due = lg["open_due_ns"][:n_open]
    latency = (lg["open_recv_ns"] - due) / 1e6
    failed = (lg["open_status"] != OK) | (latency > DEADLINE_MS)
    latency[failed] = DEADLINE_MS  # a failed request is over any limit
    # The ingest frames' own acknowledgements, timed from their due times.
    n_frames = len(lg["frame_status"])
    acknowledged = (lg["frame_recv_ns"] - lg["frame_due_ns"][:n_frames]) / 1e9
    late = (lg["frame_status"] != OK) | (acknowledged > DEADLINE_MS / 1e3)
    acknowledged[late] = DEADLINE_MS / 1e3

    figures: dict = {name: [] for name in
                     ("qps", "p50_ms", "p90_ms", "ingest_p50_ms", "ingest_eps", "subgraph_qps")}
    intervals = result["done"]["intervals"]
    per_round = len(intervals) // sizes.rounds
    for r in range(sizes.rounds):
        phases = {name: (begin, end) for name, begin, end
                  in intervals[r * per_round : (r + 1) * per_round]}

        def rate(phase: str) -> float:
            begin, end = phases[phase]
            speed = pace.speed_over(pulses, begin, end)
            answered = lg[f"{phase}_status"] == OK
            count = np.count_nonzero(within(lg[f"{phase}_recv_ns"][answered], begin, end))
            return count / ((end - begin) / 1e9) / speed

        opened = latency[within(due, *phases["open"])]
        # The median request waits mostly on timers (the coalescer's 200 us
        # dally rounds up to the 1 ms epoll tick), not on the CPU, so it is
        # not scaled; the 90th percentile waited for an ingest frame.
        figures["p50_ms"].append(np.percentile(opened, 50))
        speed = pace.speed_over(pulses, *phases["open"])
        figures["p90_ms"].append(np.percentile(opened, 90) * speed)
        # Frames are sent through the whole round.
        frames = acknowledged[r * sizes.frames_per_round : (r + 1) * sizes.frames_per_round]
        speed = pace.speed_over(pulses, phases["open"][0], phases["subgraph"][1])
        figures["ingest_p50_ms"].append(np.median(frames) * 1e3 * speed)
        figures["ingest_eps"].append(len(frames) * sizes.frame_edges / frames.sum() / speed)
        figures["qps"].append(rate("closed"))
        figures["subgraph_qps"].append(rate("subgraph"))
    metrics = {name: trimmed_mean(values) for name, values in figures.items()}
    metrics["setup_s"] = setup_seconds(finished["setups"], pulses)
    metrics["rss_mb"] = finished["rss_mb"]
    notes = {"p99_ms": (float(np.percentile(latency, 99)), percentile_report(latency, 99))}
    return metrics, notes


def embedded_metrics(result: dict, sizes: inputs.Sizes) -> tuple:
    finished = result["finished"]
    pulses = finished["pulses"]
    calls = result["answers"]["query_call_ns"]
    call_ms = (calls[:, 1] - calls[:, 0]) / 1e6
    subgraph_ns = result["answers"]["subgraph_ns"]

    figures: dict = {name: [] for name in
                     ("qps", "p50_ms", "p90_ms", "ingest_p50_ms", "ingest_eps", "subgraph_qps")}
    for r in range(len(finished["query_windows"])):
        batch_seconds = np.asarray(finished["ingest_seconds"][r])
        speed = pace.speed_over(pulses, *finished["ingest_windows"][r])
        figures["ingest_p50_ms"].append(np.median(batch_seconds) * 1e3 * speed)
        figures["ingest_eps"].append(
            len(batch_seconds) * sizes.batch / batch_seconds.sum() / speed
        )

        begin, end = finished["query_windows"][r]
        speed = pace.speed_over(pulses, begin, end)
        inside = within(calls[:, 0], begin, end)
        figures["qps"].append(
            np.count_nonzero(inside) * sizes.query_batch / ((end - begin) / 1e9) / speed
        )
        figures["p50_ms"].append(np.percentile(call_ms[inside], 50) * speed)
        figures["p90_ms"].append(np.percentile(call_ms[inside], 90) * speed)

        begin, end = finished["subgraph_windows"][r]
        speed = pace.speed_over(pulses, begin, end)
        count = np.count_nonzero(within(subgraph_ns, begin, end + 1))
        figures["subgraph_qps"].append(count / ((end - begin) / 1e9) / speed)
    metrics = {name: trimmed_mean(values) for name, values in figures.items()}
    metrics["setup_s"] = setup_seconds(finished["setups"], pulses)
    metrics["rss_mb"] = finished["rss_mb"]
    return metrics, {}


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def run_workload(workload: str, args) -> dict:
    import checks
    import layers
    from spans import load_spans

    sizes = inputs.sizes_for(workload, args.seconds, smoke=args.smoke)
    arrays = inputs.generate(workload, args.seed, sizes)
    workdir = ROOT / ".perfbench" / f"{workload}-{args.seed}-{os.getpid()}"
    inputs.save(workdir, arrays, sizes)
    children = Children(RUN_BUDGET_SECONDS)
    serve = workload != "embedded-bulk"
    try:
        passes = [False, True] if args.trace else [False]
        results = []
        if serve:
            # Idle spinners on both CPUs, so no wake-up waits for the host.
            for slot in range(2):
                children.start("spin.py", str(slot))
        for traced in passes:
            if serve:
                results.append(serve_pass(children, workload, workdir, traced))
            else:
                results.append(embedded_pass(children, workdir, traced))
            if traced:
                spans_dir = ROOT / ".perfbench" / f"spans-{workload}"
                shutil.rmtree(spans_dir, ignore_errors=True)
                spans_dir.mkdir(parents=True)
                for name in ("system_spans.npz", "client_spans.npz"):
                    if (workdir / name).exists():
                        shutil.move(str(workdir / name), spans_dir / name)
    finally:
        children.close()

    if serve:
        reference = checks.serve_reference(workload, arrays, sizes)
    else:
        reference = checks.embedded_reference(arrays, sizes)
    verdicts = []
    measured = []
    for result in results:
        if serve:
            verdict = checks.check_serve(
                arrays, sizes, result["loadgen"], DEADLINE_MS, reference,
                corrupt=args.corrupt_oracle,
            )
            metrics, notes = serve_metrics(result, sizes)
            partitions = result["ready"]["partitions"]
        else:
            verdict = checks.check_embedded(
                result["answers"], result["finished"], reference, corrupt=args.corrupt_oracle
            )
            metrics, notes = embedded_metrics(result, sizes)
            partitions = result["finished"]["partitions"]
        if partitions <= 1:
            verdict.count("partitioning", 1, 0, 1)
            verdict.notes.append(
                f"gSketch built {partitions} partition(s); expected more than 1"
            )
        metrics["avg_rel_error"] = verdict.avg_rel_error
        pulses = result["finished"]["pulses"]
        notes["cpu_speed"] = pace.speed_over(pulses, pulses[0][0], pulses[-1][0])
        verdicts.append(verdict)
        measured.append((metrics, notes))

    report = {
        "correct": all(v.correct for v in verdicts),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "notes": [note for v in verdicts for note in v.notes],
        "end_to_end": measured[0][0],
        "notes_e2e": measured[0][1],
        "partitions": partitions,
    }
    if args.trace:
        traced = results[1]
        spans_dir = ROOT / ".perfbench" / f"spans-{workload}"
        system = layers.SpanTable(load_spans(spans_dir / "system_spans.npz"))
        per_layer = {name: 0.0 for name, _unit in PER_LAYER}
        if serve:
            client = layers.SpanTable(load_spans(spans_dir / "client_spans.npz"))
            marks = traced["marks"]
            window = (marks["start"]["span_index"], marks["end"]["span_index"])
            before, after = marks["start"], marks["end"]
            per_layer.update(
                layers.serve_layers(system, client, traced["loadgen"], traced["done"], marks)
            )
        else:
            window = tuple(traced["finished"]["span_range"])
            before, after = traced["finished"]["before"], traced["finished"]["after"]
        # The measured window, less the set-ups made between rounds.
        extra_setups = [setup["spans"] for setup in traced["finished"]["setups"][1:]]
        system.measure(*window, extra_setups)
        cache_delta = {
            key: after["hot_cache"][key] - before["hot_cache"][key]
            for key in ("hits", "misses")
        }
        per_layer.update(layers.plan_layers(system, cache_delta))
        per_layer.update(layers.ingest_layers(system))
        per_layer.update(layers.api_layers(system))
        per_layer["core.partitions"] = float(partitions)
        per_layer["proc.import_s"] = traced["imported"]["import_s"]
        untraced, traced_e2e = measured[0][0], measured[1][0]
        for name in ("qps", "ingest_eps"):
            per_layer[f"trace.overhead.{name}"] = traced_e2e[name] / untraced[name]
        problems = layers.agreement(system, before, after)
        if problems:
            report["correct"] = False
            report["notes"].extend(problems)
        report["per_layer"] = per_layer
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def provenance(workloads) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {
            name: {"why": WHY[name], "modules": MODULES[name]} for name in workloads
        },
        "uncovered": UNCOVERED,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument(
        "--corrupt-oracle", action="store_true", help="perturb one oracle value (self-test)"
    )
    args = parser.parse_args()
    # A terminated run still stops its children (through ``Children.close``).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    reports = {}
    for workload in workloads:
        reports[workload] = run_workload(workload, args)

    metrics = {}
    for workload, report in reports.items():
        end_to_end = [(name, unit, report["end_to_end"][name]) for name, unit in END_TO_END]
        for name, unit, value in end_to_end:
            print(f"{workload}/{name} = {value:.6g} {unit}")
        notes = dict(report["notes_e2e"])
        print(f"{workload}/cpu_speed = {notes.pop('cpu_speed'):.4g} x reference (not gated)")
        for name, (value, detail) in notes.items():
            print(f"{workload}/{name} = {value:.6g} ms (not gated; {detail})")
        reported = end_to_end
        if args.trace:
            reported = [(name, unit, report["per_layer"][name]) for name, unit in PER_LAYER]
            for name, unit, value in reported:
                print(f"{workload}/{name} = {value:.6g} {unit}")
        for name, unit, value in reported:
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": unit}
        print(
            f"{workload}: {report['attempted']} attempted, {report['failed']} failed, "
            f"correct={report['correct']}, partitions={report['partitions']}"
        )
        for note in report["notes"]:
            print(f"{workload}: {note}")
    print(json.dumps({"provenance": provenance(workloads),
                      "elapsed_s": round(time.perf_counter() - started, 1)}))
    correct = all(report["correct"] for report in reports.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
