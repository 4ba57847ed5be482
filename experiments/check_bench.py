#!/usr/bin/env python
"""Benchmark regression gate: compare bench reports against committed floors.

CI records ingestion-throughput, partition-build and query-throughput
benchmark artifacts on every run; this script turns them from *recorded*
numbers into *enforced* ones.  It reads the reports, evaluates them against
the ratio floors committed in ``experiments/bench_baselines.json``, prints a
comparison table, appends the same table as markdown to
``$GITHUB_STEP_SUMMARY`` when that variable is set (the GitHub Actions job
summary), and exits non-zero on any regression.

Most floors are *ratios between modes of the same run* (batched vs
per-edge, columnar vs scalar build, compiled query plan vs the pre-plan
routed path, N-client serving QPS vs 1-client), so they are portable across
machine speeds; latency ceilings (serving p50/p99, chaos p99) are absolute
milliseconds.  The ``quick`` profile carries loose
sanity floors suitable for PR smoke sizes, the ``full`` profile carries the
real performance bars enforced nightly and locally::

    python experiments/check_bench.py --profile quick \
        --throughput BENCH_throughput_ci.json --build BENCH_build_ci.json \
        --query BENCH_query_ci.json --serve BENCH_serve_ci.json
    python experiments/check_bench.py --profile full \
        --throughput BENCH_throughput.json --build BENCH_build.json \
        --query BENCH_query.json --serve BENCH_serve.json

A floor passes when ``measured >= min_ratio * (1 - tolerance)`` and a
ceiling when ``measured <= max * (1 + tolerance)``; the
tolerance (from the baselines file, overridable with ``--tolerance``)
absorbs runner noise without letting a real regression through.  Boolean
gates (estimate parity, tree equivalence, facade round-trip) carry no
tolerance: they must hold exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class CheckResult:
    """One evaluated gate row."""

    name: str
    measured: str
    required: str
    ok: bool

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAIL"


def _load_json(path: str, label: str) -> dict:
    if not os.path.exists(path):
        raise SystemExit(f"check_bench: {label} report not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# Shared row constructors — every check_* section formats through these,
# so gate semantics (tolerance application, missing-row failure, advisory
# rows) stay identical across benchmark families.
# ---------------------------------------------------------------------- #
def bool_row(name: str, value: bool) -> CheckResult:
    """A boolean gate: no tolerance, must hold exactly."""
    return CheckResult(name=name, measured=str(value), required="True", ok=value)


def ratio_row(
    name: str, ratio: float, min_ratio: float, tolerance: float
) -> CheckResult:
    """A ratio floor: passes when ``ratio >= min_ratio * (1 - tolerance)``."""
    effective = min_ratio * (1.0 - tolerance)
    return CheckResult(
        name=name,
        measured=f"{ratio:.2f}x",
        required=f">= {effective:.2f}x ({min_ratio:.2f} - {tolerance:.0%})",
        ok=ratio >= effective,
    )


def ceiling_row(
    name: str, value: float, max_value: float, tolerance: float, unit: str = ""
) -> CheckResult:
    """An upper bound: passes when ``value <= max_value * (1 + tolerance)``."""
    effective = max_value * (1.0 + tolerance)
    return CheckResult(
        name=name,
        measured=f"{value:.2f}{unit}",
        required=f"<= {effective:.2f}{unit} ({max_value:.2f} + {tolerance:.0%})",
        ok=value <= effective,
    )


def missing_row(name: str, detail: str, min_ratio: float, tolerance: float) -> CheckResult:
    """A floor whose input is absent from the report: always a failure."""
    effective = min_ratio * (1.0 - tolerance)
    return CheckResult(
        name=name, measured=detail, required=f">= {effective:.2f}x", ok=False
    )


def advisory_row(name: str, measured: str, required: str) -> CheckResult:
    """An always-passing row that surfaces a number gated elsewhere."""
    return CheckResult(name=name, measured=measured, required=required, ok=True)


def _throughput_rates(report: dict) -> Dict[tuple, float]:
    return {
        (row["dataset"], row["mode"]): float(row["edges_per_second"])
        for row in report["results"]
    }


def check_throughput(
    report: dict, rules: dict, tolerance: float
) -> List[CheckResult]:
    """Evaluate parity and mode-ratio floors on a throughput report."""
    checks: List[CheckResult] = []
    if rules.get("require_parity", True):
        checks.append(
            bool_row(
                "throughput: estimate parity across modes",
                bool(report.get("parity_ok", False)),
            )
        )
    rates = _throughput_rates(report)
    for floor in rules.get("floors", []):
        dataset = floor["dataset"]
        numerator = floor["numerator"]
        denominator = floor["denominator"]
        min_ratio = float(floor["min_ratio"])
        name = f"throughput[{dataset}]: {numerator} / {denominator}"
        num = rates.get((dataset, numerator))
        den = rates.get((dataset, denominator))
        if num is None or den is None or den <= 0:
            missing = numerator if num is None else denominator
            checks.append(
                missing_row(
                    name, f"mode {missing!r} missing from report", min_ratio, tolerance
                )
            )
            continue
        checks.append(ratio_row(name, num / den, min_ratio, tolerance))
    return checks


def check_build(report: dict, rules: dict, tolerance: float) -> List[CheckResult]:
    """Evaluate equivalence and columnar-speedup floors on a build report."""
    checks: List[CheckResult] = []
    if rules.get("require_equivalence", True):
        checks.append(
            bool_row(
                "build: columnar and scalar trees identical",
                bool(report.get("trees_identical", False)),
            )
        )
    if rules.get("require_facade_roundtrip", False):
        checks.append(
            bool_row(
                "build: facade build/ingest round-trip",
                bool(report.get("facade_roundtrip_ok", False)),
            )
        )
    min_speedup = rules.get("min_speedup")
    if min_speedup is not None:
        name = "build: columnar speedup vs scalar (min over rows)"
        speedups = [float(row["speedup"]) for row in report.get("results", [])]
        if not speedups:
            checks.append(
                missing_row(name, "no rows in report", float(min_speedup), tolerance)
            )
        else:
            checks.append(
                ratio_row(name, min(speedups), float(min_speedup), tolerance)
            )
    return checks


def check_query(report: dict, rules: dict, tolerance: float) -> List[CheckResult]:
    """Evaluate parity and plan-speedup floors on a query-throughput report.

    Each floor names a ``(backend, batch_size)`` row and requires
    ``plan_qps / direct_qps >= min_ratio * (1 - tolerance)``; parity (the
    compiled plan answering bit-identically to the routed path, every
    backend) carries no tolerance.
    """
    checks: List[CheckResult] = []
    rows = {
        (row["backend"], int(row["batch_size"])): row
        for row in report.get("results", [])
    }
    if rules.get("require_parity", True):
        parity = bool(report.get("parity_ok", False)) and all(
            bool(row.get("parity_ok", False)) for row in report.get("results", [])
        )
        checks.append(
            bool_row("query: plan vs direct bit-exact parity (all backends)", parity)
        )
    for floor in rules.get("floors", []):
        backend = floor["backend"]
        batch_size = int(floor["batch_size"])
        min_ratio = float(floor["min_ratio"])
        name = f"query[{backend} @ batch {batch_size}]: plan / direct"
        row = rows.get((backend, batch_size))
        if row is None or float(row.get("direct_qps", 0.0)) <= 0:
            checks.append(
                missing_row(name, "row missing from report", min_ratio, tolerance)
            )
            continue
        checks.append(
            ratio_row(
                name,
                float(row["plan_qps"]) / float(row["direct_qps"]),
                min_ratio,
                tolerance,
            )
        )
    return checks


def check_serve(report: dict, rules: dict, tolerance: float) -> List[CheckResult]:
    """Evaluate the serving-tier report: parity, latency, scaling, overload.

    Each floor names one ``clients`` row and carries any of three gates:
    ``max_p50_ms`` and ``max_p99_ms`` bound that row's latency
    (``value <= max * (1 + tolerance)``), and ``min_qps_ratio`` requires
    ``qps[clients] / qps[baseline_clients] >= min_qps_ratio * (1 - tolerance)``.
    The committed floors hold a lone client's p50 under 1 ms and keep every
    N-client row at 1-client QPS or above with a p99 ceiling, so concurrency
    can neither collapse throughput nor buy it with unbounded queueing.
    The harness's clients share the server's process, so the ratio cannot
    show the coalescing dividend; ``perfbench``'s ``serve-mixed`` measures
    that across processes.  Parity (every wire answer bit-identical to the
    direct oracle) and the overload drill (typed rejects, bounded queue
    depth, no hung clients) carry no tolerance.
    """
    checks: List[CheckResult] = []
    rows = {int(row["clients"]): row for row in report.get("results", [])}
    if rules.get("require_parity", True):
        parity = bool(report.get("parity_ok", False)) and all(
            bool(row.get("parity_ok", False)) for row in report.get("results", [])
        )
        checks.append(
            bool_row("serve: wire answers bit-exact vs direct oracle", parity)
        )
    if rules.get("require_overload", True):
        drill = report.get("overload", {})
        checks.append(
            CheckResult(
                name="serve: overload drill (typed rejects, bounded, no hangs)",
                measured=(
                    f"ok={drill.get('ok')} rejected={drill.get('rejected')} "
                    f"depth {drill.get('max_depth')}/{drill.get('max_pending')}"
                ),
                required="ok=True",
                ok=bool(drill.get("ok", False)),
            )
        )
    for floor in rules.get("floors", []):
        clients = int(floor["clients"])
        row = rows.get(clients)
        if row is None:
            checks.append(
                CheckResult(
                    name=f"serve[{clients} clients]",
                    measured=f"clients={clients} row missing",
                    required="row present",
                    ok=False,
                )
            )
            continue
        if "min_qps_ratio" in floor:
            baseline = int(floor.get("baseline_clients", 1))
            min_ratio = float(floor["min_qps_ratio"])
            name = f"serve[{clients} clients]: qps / {baseline}-client qps"
            base = rows.get(baseline)
            if base is None or float(base.get("qps", 0.0)) <= 0:
                checks.append(
                    missing_row(
                        name, f"clients={baseline} row missing", min_ratio, tolerance
                    )
                )
            else:
                checks.append(
                    ratio_row(
                        name, float(row["qps"]) / float(base["qps"]), min_ratio, tolerance
                    )
                )
        for stat in ("p50", "p99"):
            ceiling = floor.get(f"max_{stat}_ms")
            if ceiling is not None:
                checks.append(
                    ceiling_row(
                        f"serve[{clients} clients]: {stat} latency",
                        float(row.get(f"{stat}_ms", float("inf"))),
                        float(ceiling),
                        tolerance,
                        unit="ms",
                    )
                )
    return checks


def check_chaos(report: dict, rules: dict, tolerance: float) -> List[CheckResult]:
    """Evaluate the serving-tier chaos drill: correctness under wire faults.

    The clauses are read from the drill's raw counters, not its own verdict,
    and carry no tolerance: no incorrect answer and no untyped error, no
    request left unresolved, at least one fault injected (a quiet run can't
    pass as a green one), and a final sweep that matches the oracle
    bit-exactly.  The p99 ceiling bounds the latency cost of riding through
    the faults.
    """
    checks: List[CheckResult] = []
    load = report.get("load", {})
    sweep = report.get("final_sweep", {})
    injected = sum((report.get("chaos", {}).get("faults_injected") or {}).values())
    checks.append(
        CheckResult(
            name="chaos: zero incorrect answers (bit-exact or typed error)",
            measured=(
                f"incorrect={load.get('incorrect')} "
                f"other_errors={load.get('other_errors')} "
                f"of {load.get('requests')} requests"
            ),
            required="0 incorrect, 0 untyped",
            ok=load.get("incorrect") == 0 and load.get("other_errors") == 0,
        )
    )
    checks.append(
        CheckResult(
            name="chaos: every request resolved (answer or typed error, no hangs)",
            measured=f"unresolved={load.get('unresolved')}",
            required="0 unresolved",
            ok=load.get("unresolved") == 0,
        )
    )
    checks.append(
        CheckResult(
            name="chaos: faults actually injected",
            measured=f"injected={injected}",
            required="> 0",
            ok=injected > 0,
        )
    )
    checks.append(
        CheckResult(
            name="chaos: final sweep bit-exact",
            measured=f"mismatches={sweep.get('mismatches')} of {sweep.get('keys')} keys",
            required="0 mismatches",
            ok=sweep.get("mismatches") == 0 and bool(sweep.get("keys")),
        )
    )
    max_p99 = rules.get("max_p99_ms")
    if max_p99 is not None:
        checks.append(
            ceiling_row(
                "chaos: p99 latency under faults",
                float(load.get("p99_ms", float("inf"))),
                float(max_p99),
                tolerance,
                unit="ms",
            )
        )
    return checks


def check_overhead(report: dict) -> List[CheckResult]:
    """Advisory telemetry-overhead rows — always reported, never failing.

    The real gate lives in ``experiments/overhead_bench.py`` (it exits
    non-zero when disabled hooks cost more than its threshold); these rows
    only surface the measured numbers next to the performance floors.
    """
    ratio = float(report.get("disabled_overhead_ratio", 0.0))
    gate = float(report.get("max_disabled_overhead", 0.02))
    enabled = float(report.get("enabled_overhead_ratio", 0.0))
    return [
        advisory_row(
            "overhead (advisory): disabled telemetry hooks / wall",
            f"{ratio:.4%}",
            f"< {gate:.0%} (gated by overhead_bench itself)",
        ),
        advisory_row(
            "overhead (advisory): enabled telemetry wall-time delta",
            f"{enabled:+.2%}",
            "advisory only",
        ),
    ]


def render_markdown(checks: Sequence[CheckResult], profile: str) -> str:
    """The comparison table as GitHub-flavoured markdown."""
    failed = sum(not check.ok for check in checks)
    verdict = "all floors hold" if failed == 0 else f"{failed} regression(s)"
    lines = [
        f"## Benchmark gate — `{profile}` profile: {verdict}",
        "",
        "| check | measured | required | status |",
        "| --- | --- | --- | --- |",
    ]
    for check in checks:
        icon = "✅" if check.ok else "❌"
        lines.append(
            f"| {check.name} | {check.measured} | {check.required} | {icon} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_text(checks: Sequence[CheckResult]) -> str:
    width = max(len(check.name) for check in checks)
    rows = [
        f"{check.name:<{width}}  {check.status:<4}  "
        f"measured {check.measured}  required {check.required}"
        for check in checks
    ]
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        required=True,
        help="which floor set to enforce (quick = PR smoke, full = nightly)",
    )
    parser.add_argument(
        "--throughput",
        default="BENCH_throughput_ci.json",
        help="throughput report to check (default BENCH_throughput_ci.json)",
    )
    parser.add_argument(
        "--build",
        default="BENCH_build_ci.json",
        help="partition-build report to check (default BENCH_build_ci.json)",
    )
    parser.add_argument(
        "--query",
        default="BENCH_query_ci.json",
        help="query-throughput report to check (default BENCH_query_ci.json)",
    )
    parser.add_argument(
        "--serve",
        default="BENCH_serve_ci.json",
        help="serving-tier report to check (default BENCH_serve_ci.json)",
    )
    parser.add_argument(
        "--chaos",
        default="BENCH_chaos_ci.json",
        help="serve-plane chaos-drill report to check; skipped silently "
        "when the file is absent (default BENCH_chaos_ci.json)",
    )
    parser.add_argument(
        "--overhead",
        default="BENCH_overhead_ci.json",
        help="telemetry-overhead report for advisory rows; skipped silently "
        "when the file is absent (default BENCH_overhead_ci.json)",
    )
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(__file__), "bench_baselines.json"),
        help="committed floor definitions (default experiments/bench_baselines.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the baseline file's relative tolerance (e.g. 0.15)",
    )
    args = parser.parse_args(argv)

    baselines = _load_json(args.baselines, "baselines")
    profile = baselines["profiles"].get(args.profile)
    if profile is None:
        raise SystemExit(
            f"check_bench: profile {args.profile!r} not in {args.baselines}"
        )
    tolerance = (
        args.tolerance if args.tolerance is not None else float(baselines["tolerance"])
    )
    if not 0.0 <= tolerance < 1.0:
        raise SystemExit(f"check_bench: tolerance must be in [0, 1), got {tolerance}")

    checks: List[CheckResult] = []
    if "throughput" in profile:
        report = _load_json(args.throughput, "throughput")
        checks.extend(check_throughput(report, profile["throughput"], tolerance))
    if "build" in profile:
        report = _load_json(args.build, "build")
        checks.extend(check_build(report, profile["build"], tolerance))
    if "query" in profile:
        report = _load_json(args.query, "query")
        checks.extend(check_query(report, profile["query"], tolerance))
    if "serve" in profile:
        report = _load_json(args.serve, "serve")
        checks.extend(check_serve(report, profile["serve"], tolerance))
    if "chaos" in profile and args.chaos and os.path.exists(args.chaos):
        report = _load_json(args.chaos, "chaos")
        checks.extend(check_chaos(report, profile["chaos"], tolerance))
    if args.overhead and os.path.exists(args.overhead):
        checks.extend(check_overhead(_load_json(args.overhead, "overhead")))
    if not checks:
        raise SystemExit("check_bench: profile defines no checks")

    print(render_text(checks))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(checks, args.profile))
            handle.write("\n")

    failed = [check for check in checks if not check.ok]
    if failed:
        print(
            f"check_bench: {len(failed)} regression(s) against the "
            f"{args.profile!r} floors",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench: all {len(checks)} checks hold ({args.profile!r} profile)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
