"""Benchmark of the hamilton-rla command-line pipeline.

Drives ``hamilton_rla.cli.main`` in-process as one closed-loop client: one
process, no threads, each command starting after the previous one returns.
The program is imported from ``src/`` of the checkout this file sits in.

    python3 perfbench/run.py --workload irv-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

One run repeats the workload's op, each with fresh seeded inputs, until
``--seconds`` have passed since the first op began, checks every output
(untimed, between commands), and prints human-readable results followed by
one JSON line.  Times are normalised for the machine's current speed (see
reference.py); raw wall times are printed and recorded next to them.

With ``--trace 0`` the JSON line holds the end-to-end metrics.  With
``--trace 1`` the functions of every layer module are wrapped (see
tracer.py) and it holds the per-layer metrics: counts from op 0, whose
inputs depend only on the seed, and self times as per-op medians.
``--all`` runs every workload untraced and twice traced, prints every
metric with its unit and the tracing overhead, and checks that the counts
of the two traced runs agree exactly.

Detailed results (environment, per-command samples, SHA-256 of every spec
and state file) go to ``.perfbench/`` in the checkout, spans of a traced run
to ``.perfbench/<workload>-seed<seed>.spans.tsv``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
IMPORT_CLI = [sys.executable, "-c", "import hamilton_rla.cli"]


def import_program() -> dict:
    """Import every layer module from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hamilton_rla
    from hamilton_rla import assertions, cli, delegates, model, risk, tabulation, viability

    if SRC.resolve() not in Path(hamilton_rla.__file__).resolve().parents:
        raise ImportError(f"hamilton_rla was imported from {hamilton_rla.__file__}, not from {SRC}")
    return {
        "model": model,
        "tabulation": tabulation,
        "viability": viability,
        "delegates": delegates,
        "assertions": assertions,
        "risk": risk,
        "cli": cli,
    }


def measure_setup() -> tuple[list[float], list[float]]:
    """Normalised and wall times of fresh interpreters importing the CLI,
    after one untimed import that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run(IMPORT_CLI, env=env, check=True)
    normal, wall = [], []
    for _ in range(SETUP_REPEATS):
        took, seconds = reference.Speedometer.measure_external(lambda: subprocess.run(IMPORT_CLI, env=env, check=True))
        wall.append(took)
        normal.append(seconds)
    return normal, wall


def environment(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class CommandResult:
    def __init__(self, label: str, rc, stdout: str, stderr: str, wall: float, seconds: float):
        self.label = label
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.wall = wall
        self.seconds = seconds  # normalised, see reference.py
        self.failures: list[str] = []
        self.info: Counter = Counter()
        self.digests: list[tuple[str, str]] = []

    @property
    def ok(self) -> bool:
        return not self.failures


class Harness:
    """Runs CLI commands in-process; only ``command`` is timed and traced."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.speedometer = reference.Speedometer()
        self.results: list[CommandResult] = []

    def _main(self, argv: list[str]):
        try:
            return self.cli.main(argv), None
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code, None
        except Exception:
            return None, traceback.format_exc(limit=-3)

    def _invoke(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        recording = self.tracer.active() if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), recording:
            (rc, crash), wall, seconds = self.speedometer.measure(lambda: self._main(argv))
        return rc, out.getvalue(), crash or err.getvalue(), wall, seconds

    def command(self, label: str, argv: list[str], expect: int) -> CommandResult:
        res = CommandResult(label, *self._invoke(argv))
        if res.rc != expect:
            res.failures.append(f"exit {res.rc}, expected {expect}: {res.stderr.strip()[-400:]}")
        self.results.append(res)
        return res

    def untimed(self, argv: list[str]) -> int | None:
        """Run a command for a check: not timed, not traced, not counted."""
        tracer, self.tracer = self.tracer, None
        try:
            return self._invoke(argv)[0]
        finally:
            self.tracer = tracer

    def digest(self, res: CommandResult, path: Path) -> None:
        res.digests.append((path.name, hashlib.sha256(path.read_bytes()).hexdigest()))


def _work_hooks() -> dict:
    def rankings_scanned(work, args, kwargs):
        profile = args[0] if args else kwargs["profile"]
        work["tabulation.rankings_scanned"] += len(profile.rankings)

    return {"tabulation.count_piles": rankings_scanned}


def per_layer_metrics(calls: Counter, work: Counter, info: Counter, self_p50: dict, extra: dict) -> dict:
    """Values of PER_LAYER.  ``<function>.calls`` is op 0's call count and
    ``<function>.self_s`` the per-op median self time; the rest are derived."""

    def ratio(num, den):
        return num / den if den else 0.0

    piles = calls["viability.AuditContext.piles"]
    derived = {
        "viability.nodes_created": calls["viability.AltOutcomeNode.__init__"],
        "risk.trials": calls["risk._trial_draws"],
        "risk.asn_useful_frac": ratio(info["assertions_emitted"], calls["risk.estimate_asn"]),
        "tabulation.rankings_scanned": work["tabulation.rankings_scanned"],
        "viability.pile_cache_hit_frac": 1.0 - ratio(calls["viability->count_piles"], piles) if piles else 0.0,
        "model.spec_bytes": info["spec_bytes"],
        "viability.assertions_emitted": info["assertions_emitted"],
        "risk.expected_draws": info["expected_draws"],
        **extra,
    }

    def value(name):
        if name in derived:
            return derived[name]
        function, kind = name.rsplit(".", 1)
        return calls[function] if kind == "calls" else self_p50.get(function, 0.0)

    return {name: {"value": value(name), "unit": unit} for name, unit, _ in PER_LAYER}


CLI_COMMANDS = ("tabulate", "generate", "estimate", "audit_init", "audit_round")

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("viability.branch_and_bound.self_s", "s", "lower"),
    ("viability.expand_node.calls", "count", "lower"),
    ("viability.expand_node.self_s", "s", "lower"),
    ("viability.nodes_created", "count", "lower"),
    ("risk.estimate_asn.calls", "count", "lower"),
    ("risk.estimate_asn.self_s", "s", "lower"),
    ("risk.trials", "count", "lower"),
    ("risk.asn_useful_frac", "ratio", "higher"),
    ("risk.estimate_audit_asn.calls", "count", "lower"),
    ("risk.estimate_audit_asn.self_s", "s", "lower"),
    ("tabulation.count_piles.calls", "count", "lower"),
    ("tabulation.count_piles.self_s", "s", "lower"),
    ("tabulation.rankings_scanned", "count", "lower"),
    ("viability.pile_cache_hit_frac", "ratio", "higher"),
    ("risk.run_audit_round.self_s", "s", "lower"),
    ("risk.discrepancy.calls", "count", "lower"),
    ("assertions.assorter_value.calls", "count", "lower"),
    ("assertions.assertion_key.calls", "count", "lower"),
    ("model.load_cvrs.self_s", "s", "lower"),
    ("model.load_audit_spec.self_s", "s", "lower"),
    ("model.save_audit_spec.self_s", "s", "lower"),
    ("model.load_election.self_s", "s", "lower"),
    ("model.spec_bytes", "bytes", "lower"),
    ("delegates.qualified_tallies.calls", "count", "lower"),
    ("delegates.gen_delegate_assertions.self_s", "s", "lower"),
    *[(f"cli.{c}.self_s", "s", "lower") for c in CLI_COMMANDS],
    ("viability.assertions_emitted", "count", "lower"),
    ("risk.expected_draws", "draws", "lower"),
    ("trace.op_p50_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

END_TO_END_UNITS = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _median_metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def run_workload(args: argparse.Namespace, modules: dict) -> int:
    # imported here, once import_program() has put src/ on the path
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup, setup_wall = measure_setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(modules, _work_hooks())
    harness = Harness(modules["cli"], tracer)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    ops: list[dict] = []
    op_results: list[list[CommandResult]] = []
    deadline = time.monotonic() + args.seconds
    try:
        while not ops or time.monotonic() < deadline:
            directory = work / f"op{len(ops)}"
            directory.mkdir(parents=True)
            op = workload.prepare(args.seed, len(ops), directory)
            before = None
            if tracer:
                tracer.op = len(ops)
                before = tracer.snapshot()
            first = len(harness.results)
            workload.run(op, harness)
            results = harness.results[first:]
            record = {
                "seconds": sum(r.seconds for r in results),
                "wall": sum(r.wall for r in results),
                "commands": {r.label: r.seconds for r in results},
                "commands_wall": {r.label: r.wall for r in results},
                "attempted": len(results),
                "info": sum((r.info for r in results), Counter()),
                "digests": [(r.label, name, sha) for r in results for name, sha in r.digests],
            }
            if tracer:
                calls, work_counts, self_s, spans = tracer.snapshot()
                scale = record["seconds"] / record["wall"]
                record["calls"] = calls - before[0]
                record["work"] = work_counts - before[1]
                record["self_s"] = {k: (v - before[2].get(k, 0.0)) * scale for k, v in self_s.items()}
                record["spans"] = spans - before[3]
            ops.append(record)
            op_results.append(results)
            if len(ops) > 1:
                shutil.rmtree(directory)
            else:
                first_op = op
        # Checks too slow for every op run once, on op 0, after measuring.
        workload.final(first_op, harness)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for record, results in zip(ops, op_results):
        record["failed"] = sum(not r.ok for r in results)
        record["failures"] = [f"{r.label}: {f}" for r in results for f in r.failures]

    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    end_to_end = {
        "setup_s": _median_metric(setup, "s"),
        "setup_wall_s": _median_metric(setup_wall, "s"),
        "op_p50_s": _median_metric([o["seconds"] for o in ops], "s"),
        "op_wall_p50_s": _median_metric([o["wall"] for o in ops], "s"),
    }
    for label in dict.fromkeys(label for o in ops for label in o["commands"]):
        end_to_end[f"{label}_p50_s"] = _median_metric([o["commands"][label] for o in ops if label in o["commands"]], "s")
        end_to_end[f"{label}_wall_p50_s"] = _median_metric(
            [o["commands_wall"][label] for o in ops if label in o["commands_wall"]], "s"
        )
    end_to_end["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MiB",
        "samples": 1,
    }
    end_to_end["ops_failed_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    report = {"environment": environment(args), "end_to_end": end_to_end, "ops": ops}
    if tracer:
        names = {n for o in ops for n in o["self_s"]}
        self_p50 = {n: statistics.median(o["self_s"].get(n, 0.0) for o in ops) for n in names}
        extra = {"trace.op_p50_s": end_to_end["op_p50_s"]["value"], "trace.spans": ops[0]["spans"]}
        metrics = per_layer_metrics(ops[0]["calls"], ops[0]["work"], ops[0]["info"], self_p50, extra)
        report["per_layer"] = metrics
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")
    else:
        metrics = {name: {"value": end_to_end[name]["value"], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8"
    )

    env = report["environment"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(ops)}  "
        f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}"
    )
    print("  times are normalised seconds (see reference.py); *_wall_* are raw wall seconds")
    for name, m in end_to_end.items():
        print(f"  {name:<28} {m['value']:>12.6g} {m['unit']:<6} (n={m['samples']})")
    if tracer:
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for label, name, sha in ops[0]["digests"]:
        print(f"  sha256 op0 {label} {name} {sha}")
    for o in ops:
        for failure in o["failures"][:5]:
            print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced and twice traced; prints every metric and the overhead."""
    from workloads import WORKLOADS

    def child(name: str, trace: int) -> tuple[dict, dict]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text(encoding="utf-8"))
        return result, report

    ok = True
    for name in WORKLOADS:
        plain, plain_report = child(name, 0)
        traced, traced_report = child(name, 1)
        again, _ = child(name, 1)
        env = plain_report["environment"]
        print(f"== {name}  seed {args.seed}  {args.seconds} s per run  python {env['python']}  "
              f"nproc {env['nproc']}  cpu {env['cpu']}")
        print(f"  correct {plain['correct'] and traced['correct'] and again['correct']}  "
              f"commands {plain['attempted']}  failed {plain['failed']}")
        print("  end-to-end, untraced; times are normalised seconds (see reference.py), *_wall_* raw")
        for metric, m in plain_report["end_to_end"].items():
            print(f"  {metric:<28} {m['value']:>12.6g} {m['unit']:<6} (n={m['samples']})")
        print("  per-layer, traced: counts from op 0, self times per-op medians")
        for metric, m in traced_report["per_layer"].items():
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
        untraced = plain["metrics"]["op_p50_s"]["value"]
        overhead = traced["metrics"]["trace.op_p50_s"]["value"] - untraced
        print(f"  tracing overhead (traced - untraced op_p50_s) {overhead:.4f} s ({100 * overhead / untraced:.1f}%)")
        counts = [m for m, unit, _ in PER_LAYER if unit not in ("s",)]
        differ = [m for m in counts if traced["metrics"][m]["value"] != again["metrics"][m]["value"]]
        print(f"  counts repeat across two traced runs: {'yes' if not differ else 'NO: ' + ', '.join(differ)}")
        ok = ok and not differ and plain["correct"] and traced["correct"] and again["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("irv-search", "irv-diverse", "audit-round"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="wall seconds one run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and report all metrics")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    try:
        modules = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    return run_workload(args, modules)


if __name__ == "__main__":
    sys.exit(main())
