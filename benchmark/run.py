"""The confmass benchmark: time to a verified report, per workload.

    python3 benchmark/run.py --workload pointwise --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The seed drives a generator
(gen.py) that writes configs and flags; each op is one
``python -m confmass <command> <config> [flags]`` in a fresh
interpreter, run one after another by a single closed-loop client.
Whole cycles of the workload's ops run until ``--seconds`` have passed
(at least one cycle).  Every op is verified against closed-form
answers (verify.py).  Times are scaled to a reference core speed
measured inside each process (probe.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
op once plain and once under tracer.py, checks that both print the same
bytes, and prints the per-layer metrics (layers.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

``--selftest`` checks the generator, the verifier and the tracer;
``--ledger`` re-runs the known defects listed in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import gen
import layers
import probe
import tracer
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
OP_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "reports_per_min": "1/min",
    "cpu_s_per_op": "s", "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float
    probe_s: float = 0.0  # time the process spent in speed probes
    factor: float = 1.0   # probe.speed_factor of the process

    @property
    def norm_wall(self) -> float:
        """Wall time net of probes, at the reference core speed."""
        return (self.wall - self.probe_s) * self.factor

    @property
    def norm_cpu(self) -> float:
        return (self.cpu - self.probe_s) * self.factor


class Bench:
    """Runs processes against the checkout's ``src`` inside a work dir."""

    def __init__(self, work: str):
        self.work = work
        src = os.path.join(ROOT, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.seq = 0

    def run(self, cmd, probed: bool = True, flags=()) -> Outcome:
        """Run ``python [flags] cmd`` to completion, under probe.py if
        ``probed``; wall time, rusage, output and core speed."""
        self.seq += 1
        base = os.path.join(self.work, f"p{self.seq}")
        paths = [base + ".out", base + ".err"]
        argv = [sys.executable, *flags]
        if probed:
            argv += [os.path.join(HERE, "probe.py"), base + ".probe"]
        argv += cmd
        with open(paths[0], "wb") as fo, open(paths[1], "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo,
                                    stderr=fe, cwd=self.work, env=self.env)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = []
        for p in paths:
            with open(p, "rb") as f:
                data.append(f.read())
            os.remove(p)
        o = Outcome(code=proc.returncode, out=data[0], err=data[1], wall=wall,
                    cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0)
        if probed and os.path.exists(base + ".probe"):
            with open(base + ".probe") as f:
                samples = [float(x) for x in f.read().split()]
            os.remove(base + ".probe")
            o.probe_s = sum(samples)
            o.factor = probe.speed_factor(samples)
        return o

    def op(self, argv) -> Outcome:
        return self.run(["-m", "confmass", *argv])

    def traced(self, argv, spans: str) -> Outcome:
        return self.run([os.path.join(HERE, "tracer.py"), spans, "--", *argv],
                        flags=("-X", "importtime"))

    def setup_time(self, config: str) -> float:
        code = ("import confmass.cli\n"
                "from confmass.config import load_config\n"
                f"load_config({config!r})\n")
        walls = []
        for _ in range(SETUP_REPEATS):
            o = self.run(["-c", code])
            if o.code != 0:
                raise RuntimeError("set-up failed: " + o.err.decode(errors="replace"))
            walls.append(o.norm_wall)
        return statistics.median(walls)


def machine_facts(bench: Bench) -> dict:
    """Hardware, library versions and the inherited thread settings."""
    versions = bench.run(["-c", (
        "import json, numpy, scipy\n"
        "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n")])
    facts = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
             "python": platform.python_version(), "commit": _git_commit()}
    try:
        facts.update(json.loads(versions.out))
    except ValueError:
        facts["versions"] = "unavailable"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONFMASS_THREADS"):
        facts[var] = os.environ.get(var, "unset")
    return facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def trace_op(bench: Bench, op: dict, plain: Outcome, v: verify.Verdict,
             spans: str) -> tuple:
    """Run ``op`` under the tracer; fail ``v`` unless the traced run is
    correct and prints the plain run's bytes.  Returns the traced
    outcome and the op's layer totals, times at reference speed."""
    t = bench.traced(op["argv"], spans)
    err = b"".join(line for line in t.err.splitlines(keepends=True)
                   if not line.startswith(b"import time:"))
    tv = verify.verify(op["expect"], t.code, t.out, err)
    if t.out != plain.out or t.code != plain.code or not tv.ok:
        v.fail("traced run differs from the plain run or fails: "
               + "; ".join(tv.problems))
    if not os.path.exists(spans):
        return t, Counter()
    with open(spans) as f:
        layer = layers.op_totals(json.load(f), t.err.decode(errors="replace"))
    os.remove(spans)
    for key, unit in layers.METRICS.items():
        if unit == "s":
            layer[key] *= t.factor
    return t, layer


def run_workload(bench: Bench, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Closed loop over whole cycles; returns the result object."""
    ops = gen.generate(workload, seed, os.path.join(bench.work, "configs"))
    facts = machine_facts(bench)
    setup = bench.setup_time(ops[0]["argv"][1])

    verdicts, outcomes, cycle_totals = [], [], []
    problems, plain_walls, traced_walls = [], [], []
    loop_start = time.perf_counter()
    while True:
        totals = Counter()
        for k, op in enumerate(ops):
            o = bench.op(op["argv"])
            v = verify.verify(op["expect"], o.code, o.out, o.err)
            if trace:
                t, layer = trace_op(bench, op, o, v,
                                    os.path.join(bench.work, f"spans{k}.json"))
                plain_walls.append(o.norm_wall)
                traced_walls.append(t.norm_wall)
                totals += layer
            outcomes.append(o)
            verdicts.append(v)
            if not v.ok:
                problems.append((op["argv"], v.problems))
        cycle_totals.append(totals)
        if time.perf_counter() - loop_start >= seconds:
            break
    loop_wall = time.perf_counter() - loop_start

    attempted = len(verdicts)
    good = [o for o, v in zip(outcomes, verdicts) if v.ok]
    failed = attempted - len(good)
    rel_errs = [e for v in verdicts for e in verify.limit_rel_errors(v)]
    miss = [verify.errbar_misses(v) for v in verdicts]
    checked = {
        "fail_frac": (failed / attempted, "ratio", attempted),
        "limit_rel_err_max": (max(rel_errs, default=0.0), "ratio", len(rel_errs)),
        "errbar_miss_frac": (sum(m for m, _ in miss) / max(1, sum(c for _, c in miss)),
                             "ratio", sum(c for _, c in miss)),
    }
    timed = good or outcomes
    e2e = {
        "setup_s": (setup, SETUP_REPEATS),
        "op_p50_s": (statistics.median(o.norm_wall for o in timed), len(timed)),
        "reports_per_min": (60.0 * len(good) / sum(o.norm_wall for o in outcomes),
                            len(good)),
        "cpu_s_per_op": (statistics.median(o.norm_cpu for o in outcomes), attempted),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), attempted),
    }
    raw = (f"raw (unscaled): op p50 {statistics.median(o.wall for o in timed):.3f} s, "
           f"core speed factor p50 {statistics.median(o.factor for o in outcomes):.3f}")

    print(f"workload {workload} seed {seed}: {len(cycle_totals)} cycle(s) of "
          f"{len(ops)} ops, {attempted} attempted, {failed} failed, "
          f"{loop_wall:.1f} s loop, trace {int(trace)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(raw)
    for argv, why in problems:
        print("FAILED " + " ".join(argv) + ": " + "; ".join(why))
    for name, (value, n) in e2e.items():
        print(f"  {name:22s} {value:12.6g} {END_TO_END[name]:6s} n={n}")
    for name, (value, unit, n) in checked.items():
        print(f"  {name:22s} {value:12.6g} {unit:6s} n={n}")

    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    per_cycle = [layers.derive(t) for t in cycle_totals]
    values = {k: statistics.median(c[k] for c in per_cycle) for k in layers.METRICS}
    values["trace.overhead_frac"] = sum(traced_walls) / sum(plain_walls) - 1.0
    for name, (value, _, _) in checked.items():
        values["verify." + name] = value
    units = dict(layers.METRICS, **{"trace.overhead_frac": "ratio"},
                 **{"verify." + k: "ratio" for k in checked})
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")

    calls = Counter()
    for t in cycle_totals:
        calls.update({k[6:]: v for k, v in t.items() if k.startswith("calls:")})
    unmeasured = [t for t, wls in tracer.TARGETS.items()
                  if workload in wls and not calls[t]]
    if unmeasured:
        print("UNMEASURED layers (no call recorded): " + ", ".join(unmeasured))
    else:
        print(f"coverage: every target named for {workload} was called")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": failed == 0 and not unmeasured, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--ledger", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "confmass", "cli.py")):
        print(f"benchmark: no confmass sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not (args.workload or args.selftest or args.ledger):
        ap.error("give --workload, --selftest or --ledger")
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(work)
        if args.selftest or args.ledger:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import selftest
            return selftest.main(bench) if args.selftest else selftest.ledger(bench)
        result = run_workload(bench, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
