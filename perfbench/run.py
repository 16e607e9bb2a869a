"""ctmdist benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload grid-seq|lanes-pipe2|checker-tcp2|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed (workloads.py).  Each repetition runs in a fresh process
(job.py), closed loop, one after the other, until about S seconds have been
measured (at least MIN_REPS repetitions).  Every repetition's merged dump is
byte-compared with the sequential reference for the same scenario and
steps, computed once (untimed, cached under .perfbench-out/ by source and
input hash), and its conservation error must stay within 1e-9.  A
repetition that fails in any way, or runs out of time, counts in
`failed`, never dropped; any failure makes the command exit 1.

--trace 0 reports the end-to-end metrics, medians over repetitions:
  wall_s       load_scenario of the JSON file to the merged dump on disk
  setup_s      start of the run to the start of step 0 (the last worker's)
  steps_per_s  steps / (wall_s - setup_s)
  peak_rss_mb  largest resident set of the job process or any worker
fail_rate (failed / attempted) is printed with them and carried by the
`failed` and `attempted` fields.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans.py): layer self times, exact
counts (which must repeat between repetitions and between runs of one
seed), `runner.other_s`, `trace.accounted` (a warning is printed unless
it is within 5% of 1) and `trace.overhead` (traced over untraced median
wall, minus 1).  The traced layer table is written to .perfbench-out/<workload>/trace.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
JOB = os.path.join(HERE, "job.py")

MIN_REPS = 3  # untraced repetitions; a traced run makes at least 2 of each kind
REP_TIMEOUT = 60.0  # seconds before a repetition is killed and counted failed
CONSERVATION_TOL = 1e-9
ACCOUNTING_TOL = 0.05

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Failure(Exception):
    pass


def _run_job(cmd: list[str], timeout: float) -> dict:
    """Run one job in its own process group; kill the whole group (the
    forked workers too) if it overruns."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"timed out after {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["(no output)"]
        raise Failure(f"exit code {proc.returncode}: {tail[0]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Failure(f"unreadable job output: {out[-200:]!r}") from None


def _source_hash() -> str:
    h = hashlib.sha256(sys.version.encode())
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ctmdist", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _file_hash(prefix: str, *paths: str) -> str:
    h = hashlib.sha256(prefix.encode())
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:32]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class WorkloadRun:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, steps: int | None = None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.steps = steps if steps is not None else workload.steps
        self.dir = os.path.join(OUT, workload.name)
        self.scenario = os.path.join(self.dir, "scenario.json")
        self.partition = os.path.join(self.dir, "partition.txt")
        self.dump = os.path.join(self.dir, "dump.csv")
        self.errors: list[str] = []
        self.reps: list[dict] = []
        self.attempted = 0

    def _cmd(self, mode: str, dump: str, trace_dir: str | None = None) -> list[str]:
        cmd = [sys.executable, JOB, "--scenario", self.scenario, "--mode", mode,
               "--steps", str(self.steps), "--dump", dump]
        if mode == "local":
            cmd += ["--partition-seed", str(self.seed)]
        elif mode == "tcp":
            cmd += ["--partition", self.partition]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        return cmd

    def reference(self, key: str) -> bytes:
        """Sequential dump of this scenario, computed once per source and
        input hash; never timed."""
        path = os.path.join(OUT, "ref", key + ".csv")
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.{os.getpid()}"
            _run_job(self._cmd("seq", tmp), REP_TIMEOUT)
            os.replace(tmp, path)
        with open(path, "rb") as f:
            return f.read()

    def repetition(self, traced: bool, ref: bytes) -> dict:
        trace_dir = None
        if traced:
            trace_dir = os.path.join(self.dir, f"spans-{len(self.reps)}")
            os.makedirs(trace_dir)
        if os.path.exists(self.dump):
            os.remove(self.dump)
        rep = _run_job(self._cmd(self.w.mode, self.dump, trace_dir), REP_TIMEOUT)
        if rep["conservation_max_abs_error"] > CONSERVATION_TOL:
            raise Failure(f"conservation error {rep['conservation_max_abs_error']!r}")
        with open(self.dump, "rb") as f:
            if f.read() != ref:
                raise Failure("merged dump differs from the sequential reference")
        wall = rep["t_end"] - rep["t_start"]
        setup = rep["t_step0"] - rep["t_start"]
        rep.update(
            wall_s=wall,
            setup_s=setup,
            steps_per_s=self.steps / (wall - setup),
            peak_rss_mb=rep["peak_rss_kb"] / 1024.0,
        )
        if traced:
            from spans import layer_table

            rep["layers"] = layer_table(
                trace_dir, rep["pid"], rep["t_start"], rep["t_end"], self.steps
            )
        return rep

    def execute(self) -> dict:
        from workloads import write_inputs

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        write_inputs(self.w.name, self.seed, self.steps, self.scenario, self.partition)
        source = _source_hash()
        key = _file_hash(source, self.scenario)
        try:
            ref = self.reference(key)
        except Failure as e:
            self.attempted = 1
            self.errors.append(f"sequential reference: {e}")
            return self.report()

        start = time.monotonic()
        longest = 0.0
        while True:
            untraced = sum(1 for r in self.reps if not r["traced"])
            traced = len(self.reps) - untraced
            need = max(MIN_REPS - untraced, 0) if not self.trace else max(2 - untraced, 0) + max(2 - traced, 0)
            elapsed = time.monotonic() - start
            # a failing program does not get its minimum count of repetitions
            # at the cost of the run's deadline
            if elapsed + longest > self.seconds and (not need or self.errors):
                break
            tracing = self.trace and traced < untraced
            t0 = time.monotonic()
            self.attempted += 1
            try:
                rep = self.repetition(tracing, ref)
            except Failure as e:
                self.errors.append(f"repetition {self.attempted}: {e}")
                rep = {"failed": True}
            rep["traced"] = tracing
            self.reps.append(rep)
            longest = max(longest, time.monotonic() - t0)
        if self.trace:
            self._check_counts(_file_hash(source, self.scenario, self.partition))
        return self.report()

    def _check_counts(self, key: str) -> None:
        """Exact counts must agree between traced repetitions, and with any
        earlier run of the same source, inputs and workload."""
        from spans import COUNT_METRICS

        tables = [r["layers"] for r in self.reps if r.get("layers")]
        if not tables:
            return
        counts = {m: tables[0][m] for m in COUNT_METRICS}
        for t in tables[1:]:
            for m in COUNT_METRICS:
                if t[m] != counts[m]:
                    self.errors.append(f"count {m} changed between repetitions: {counts[m]} vs {t[m]}")
        path = os.path.join(OUT, "counts", f"{self.w.name}-{key}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                earlier = json.load(f)
            for m in COUNT_METRICS:
                if earlier.get(m) != counts[m]:
                    self.errors.append(f"count {m} differs from an earlier run: {earlier.get(m)} vs {counts[m]}")
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(counts, f)
        for t in tables:
            # a property of the spans, not of the program's output: warn only
            if abs(t["trace.accounted"] - 1.0) > ACCOUNTING_TOL:
                print(
                    f"perfbench: {self.w.name}: layers plus runner.other_s account for "
                    f"{t['trace.accounted']:.3f} of the traced wall",
                    file=sys.stderr,
                )

    def report(self) -> dict:
        failed = sum(1 for r in self.reps if r.get("failed")) + (self.attempted - len(self.reps))
        ok = [r for r in self.reps if not r.get("failed")]
        plain = [r for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        lines = [
            f"workload {self.w.name}  seed {self.seed}  steps {self.steps}  mode {self.w.mode}  "
            f"repetitions {self.attempted} ({len(traced)} traced)"
        ]
        metrics = {}
        stats = {}
        if plain:
            for name, unit in END_TO_END:
                q1, med, q3 = _quartiles([r[name] for r in plain])
                stats[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit, "runs": len(plain)}
                lines.append(
                    f"  {name:<12} {med:12.6f} {unit:<4} median of {len(plain)} runs  (q1 {q1:.6f}, q3 {q3:.6f})"
                )
                if not self.trace:
                    metrics[name] = {"value": med, "unit": unit}
        lines.append(f"  {'fail_rate':<12} {failed / max(self.attempted, 1):12.6f} {'ratio':<4} {failed} of {self.attempted} runs failed")
        if self.trace and traced and plain:
            from spans import PER_LAYER_UNITS

            layer = {
                m: statistics.median(r["layers"][m] for r in traced)
                for m in traced[0]["layers"]
            }
            layer["trace.overhead"] = (
                statistics.median(r["wall_s"] for r in traced) / stats["wall_s"]["median"] - 1.0
            )
            for m, unit in PER_LAYER_UNITS.items():
                metrics[m] = {"value": layer[m], "unit": unit}
                lines.append(f"  {m:<36} {layer[m]:16.6f} {unit}")
            with open(os.path.join(self.dir, "trace.json"), "w", encoding="utf-8") as f:
                json.dump(
                    {"workload": self.w.name, "seed": self.seed, "steps": self.steps,
                     "layers": layer, "repetitions": [r["layers"] for r in traced]},
                    f, indent=1,
                )
        for e in self.errors:
            print(f"perfbench: {self.w.name}: {e}", file=sys.stderr)
        correct = not self.errors and failed == 0 and bool(metrics)
        return {
            "lines": lines,
            "result": {"correct": correct, "attempted": max(self.attempted, 1), "failed": failed, "metrics": metrics},
        }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="ctmdist benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctmdist", "__init__.py")):
        print("perfbench: src/ctmdist is missing; run from the root of a ctmdist checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        out = WorkloadRun(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)).execute()
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
