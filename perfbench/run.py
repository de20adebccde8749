"""fmetric benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 55 --trace 0

Run from the root of an fmetric checkout; the program is taken from ./src.

--trace 0 runs each command of the workload as its own `python -m
fmetric.cli` child process, one at a time (a closed loop with one client),
in round(seconds / workloads.ROUND_S) rounds over the command list (fewer
only when the next round would end past 1.1 * --seconds), and reports the
end-to-end metrics:

    setup_s        median wall time of `fmetric --help` (interpreter, numpy,
                   fmetric imports, parser), run twice per round
    cmd_p50_s      median over commands of each command's median wall time
    cmd_tail_s     the highest whole percentile of all command wall times
                   that has >= 10 samples above it (percentile and sample
                   count are printed beside it)
    entries_per_s  distance entries decided per second (workloads.py)
    pairs_per_s    point pairs decided per second (workloads.py)
    peak_rss_mb    largest resident set of any child, from wait4

--trace 1 calls fmetric.cli.main in-process for each command, alternating
untraced and traced calls, with the spans.py wrappers installed for the
traced ones, and reports per-layer metrics as means per command of the
workload (medians over rounds), plus the tracing overhead.

Every command's first output is checked against oracle.py; every repeat
must reproduce it byte for byte. A command that crashes, times out or
disagrees counts as failed. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A full record with
machine facts goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import spans
import workloads

MIN_ROUNDS = 3
OVERRUN = 1.1  # no round starts that would end past OVERRUN * --seconds
COMMAND_TIMEOUT_S = 60.0
OUT_DIR = ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
    "entries_per_s": "1/s", "pairs_per_s": "1/s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "kernels.closure_s": "s", "kernels.closure_calls": "count",
    "kernels.sweeps": "count", "kernels.sweep_s": "s",
    "spaceio.load_s": "s",
    "fspace.d1d2_s": "s", "fspace.d1d2_calls": "count",
    "fspace.verdict_s": "s", "fspace.violations": "count",
    "cli.materialize_s": "s", "fspace.dist_calls": "count",
    "corpus.build_s": "s", "corpus.build_calls": "count",
    "conditions.check_s": "s", "conditions.pairs": "count", "conditions.us_per_pair": "us",
    "solver.map_evals": "count", "solver.picard_s": "s",
    "fclass.phi_evals": "count", "fclass.f_evals": "count",
    "reports.emit_s": "s", "reports.stdout_bytes": "bytes",
    "cli.command_s": "s", "trace.overhead_share": "ratio",
}
# per-layer metric -> span whose total duration (or count) it is
_SPAN_TOTALS = {
    "kernels.closure_s": "kernels.closure", "kernels.sweep_s": "kernels.sweep",
    "spaceio.load_s": "spaceio.load", "fspace.d1d2_s": "fspace.d1d2",
    "cli.materialize_s": "cli.materialize", "corpus.build_s": "corpus.build",
    "conditions.check_s": "conditions.check", "solver.picard_s": "solver.picard",
    "reports.emit_s": "reports.emit", "cli.command_s": spans.ROOT,
}
_SPAN_COUNTS = {
    "kernels.closure_calls": "kernels.closure", "kernels.sweeps": "kernels.sweep",
    "fspace.d1d2_calls": "fspace.d1d2", "corpus.build_calls": "corpus.build",
}
_COUNTERS = ("fspace.violations", "fspace.dist_calls", "conditions.pairs",
             "solver.map_evals", "fclass.phi_evals", "fclass.f_evals", "reports.stdout_bytes")
_VERDICT_SPANS = ("fspace.verify_D3", "fspace.min_alpha")


# --- machine facts ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def machine_facts() -> dict:
    caches = _caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "FMETRIC_NO_NUMBA": os.environ.get("FMETRIC_NO_NUMBA"),
    }


# --- child processes ------------------------------------------------------------

class Child:
    """Runs `python -m fmetric.cli` children from the checkout's src tree."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.out_path = workdir / "stdout"
        self.err_path = workdir / "stderr"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list) -> tuple:
        """(exit code, stdout bytes, wall seconds, peak RSS in MB)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "fmetric.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, self.out_path.read_bytes(), wall, usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        return self.err_path.read_text(errors="replace")[-500:]


class Outputs:
    """Checks each command's first output against the oracle; every repeat
    must match it byte for byte, and a wrong output fails on every repeat."""

    def __init__(self, commands: list):
        self.commands = commands
        self.first: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.ambiguous = 0

    def record(self, i: int, code: int, out: bytes, context=""):
        self.attempted += 1
        self.ambiguous += self.commands[i].ambiguous
        if i not in self.first:
            self.first[i] = (code, out, self._judge(i, code, out, context))
        first_code, first_out, problem = self.first[i]
        if (code, out) != (first_code, first_out):
            problem = "output differs from the first run of the same command"
        if problem:
            self.failures.append({"command": " ".join(self.commands[i].argv), "why": problem})

    def _judge(self, i, code, out, context):
        if code < 0 or code >= 2:
            return f"exit {code} {context}".strip()
        try:
            return self.commands[i].check(code, out.decode())
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            return f"output not understood: {exc!r}"


# --- untraced run -------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank value has >= 10 samples above it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 50


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def run_timed(commands: list, rounds: int, seconds: float, child: Child) -> dict:
    outputs = Outputs(commands)
    walls = [[] for _ in commands]
    setup = []
    peak_rss = 0.0
    # `--help` runs twice a round, so set-up is sampled across the whole run
    setup_at = {0, len(commands) // 2}
    start = time.perf_counter()
    done = 0
    while done < rounds:
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed * (done + 1) / done > OVERRUN * seconds:
            break  # a much slower machine or program: keep the run bounded
        for i, cmd in enumerate(commands):
            if i in setup_at:
                code, _, wall, _ = child.run(["--help"])
                if code != 0:
                    raise RuntimeError(f"`fmetric --help` exited {code}: {child.stderr_tail()}")
                setup.append(wall)
            code, out, wall, rss = child.run(cmd.argv)
            outputs.record(i, code, out, child.stderr_tail() if code else "")
            walls[i].append(wall)
            peak_rss = max(peak_rss, rss)
        done += 1

    per_cmd = [statistics.median(w) for w in walls]
    samples = [w for ws in walls for w in ws]
    pct = tail_percentile(len(samples))
    total = sum(per_cmd)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(per_cmd),
        "cmd_tail_s": nearest_rank(samples, pct),
        "entries_per_s": sum(c.entries for c in commands) / total,
        "pairs_per_s": sum(c.pairs for c in commands) / total,
        "peak_rss_mb": peak_rss,
    }
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "outputs": outputs,
        "notes": {
            "rounds": done,
            "measured_s": time.perf_counter() - start,
            "setup_runs": len(setup),
            "tail": f"p{pct} of {len(samples)} samples, "
                    f"{sum(1 for s in samples if s > metrics['cmd_tail_s'])} above it",
        },
        "commands": [
            {"argv": c.argv, "median_s": m, "walls_s": w}
            for c, m, w in zip(commands, per_cmd, walls)
        ],
    }


# --- traced run -----------------------------------------------------------------

def _call(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed command, not the end of the run
            err.write(traceback.format_exc())
            code = 3
        wall = time.perf_counter() - t0
    return code, out.getvalue().encode(), wall, err.getvalue()[-500:]


def layer_metrics(tracer: spans.Tracer, command_ids: list) -> dict:
    """Per-layer metrics over the given traced commands, as means per command."""
    ids = set(command_ids)
    picked = [s for s in tracer.spans if s.command in ids]
    self_t = spans.self_times(picked)
    totals = {name: 0.0 for name in LAYER_UNITS}
    for metric, span_name in _SPAN_TOTALS.items():
        totals[metric] = sum(s.duration for s in picked if s.name == span_name)
    for metric, span_name in _SPAN_COUNTS.items():
        totals[metric] = sum(1 for s in picked if s.name == span_name)
    totals["fspace.verdict_s"] = sum(self_t[s.id] for s in picked if s.name in _VERDICT_SPANS)
    for name in _COUNTERS:
        totals[name] = sum(tracer.counts[c][name] for c in ids)
    pairs = totals["conditions.pairs"]
    n = len(command_ids)
    out = {k: v / n for k, v in totals.items()}
    out["conditions.us_per_pair"] = 1e6 * totals["conditions.check_s"] / pairs if pairs else 0.0
    return out


def run_traced(commands: list, seconds: float, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from fmetric import cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"fmetric was imported from {cli.__file__}, not from ./src")
    tracer = spans.Tracer()
    outputs = Outputs(commands)
    plain = [[] for _ in commands]
    rounds_ids = []
    mismatches = []
    start = time.perf_counter()
    cid = 0
    while True:
        ids = []
        for i, cmd in enumerate(commands):
            results = {}
            # alternate which call goes first so warm caches favour neither
            for traced in ((False, True) if len(rounds_ids) % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed(), tracer.command_span(cid):
                        results[True] = _call(cli.main, cmd.argv)
                    tracer.counts[cid]["reports.stdout_bytes"] = len(results[True][1])
                    ids.append(cid)
                    cid += 1
                else:
                    results[False] = _call(cli.main, cmd.argv)
                    plain[i].append(results[False][2])
            for code, out, _, err in results.values():
                outputs.record(i, code, out, err if code else "")
            if results[True][:2] != results[False][:2]:
                mismatches.append(" ".join(cmd.argv))
        rounds_ids.append(ids)
        elapsed = time.perf_counter() - start
        if len(rounds_ids) >= 2 and elapsed * (len(rounds_ids) + 1) / len(rounds_ids) > seconds:
            break

    per_round = [layer_metrics(tracer, ids) for ids in rounds_ids]
    metrics = {k: statistics.median(r[k] for r in per_round) for k in LAYER_UNITS}
    plain_per_cmd = sum(statistics.median(w) for w in plain) / len(commands)
    metrics["trace.overhead_share"] = metrics["cli.command_s"] / plain_per_cmd - 1.0
    return {
        "metrics": metrics,
        "units": LAYER_UNITS,
        "outputs": outputs,
        "notes": {"rounds": len(rounds_ids), "traced_stdout_mismatches": mismatches},
        "spans": tracer.to_json(),
        # traced command id = round * len(commands) + index in the workload
        "span_commands": [" ".join(c.argv) for c in commands],
    }


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fmetric" / "cli.py").is_file():
        print("error: run from the root of an fmetric checkout (no src/fmetric/cli.py)",
              file=sys.stderr)
        return 2
    # the build step: byte-compile the sources so no run pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as work:
        commands = workloads.make(args.workload, args.seed, Path(work))
        if args.trace:
            result = run_traced(commands, args.seconds, root)
        else:
            rounds = max(MIN_ROUNDS, round(args.seconds / workloads.ROUND_S[args.workload]))
            result = run_timed(commands, rounds, args.seconds, Child(root, Path(work)))

    outputs = result["outputs"]
    failed = len(outputs.failures)  # a traced/untraced mismatch is among them
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "inputs": workloads.describe(args.workload),
        "attempted": outputs.attempted, "failed": failed,
        "failures": outputs.failures[:20], "rounding_ambiguous_verdicts": outputs.ambiguous,
        "metrics": result["metrics"], "notes": result["notes"],
        "commands": result.get("commands"),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"commands": result["span_commands"], "spans": result["spans"]}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs: {record['inputs']}")
    print("machine " + json.dumps(record["machine"]))
    for name, value in result["metrics"].items():
        print(f"  {name:24s} {value:14.6g} {result['units'][name]}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")
    print(f"  failed_share {failed / outputs.attempted:.4g} ({failed} of {outputs.attempted} "
          f"commands); rounding-ambiguous verdicts: {outputs.ambiguous}")
    for f in outputs.failures[:5]:
        print(f"  FAILED {f['command']}: {f['why']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outputs.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
