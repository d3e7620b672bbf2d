"""Compare every command on every bundled config between two source trees.

    python tools/sweep.py PARENT_TREE [--tree TREE] [--config PATH ...]
        [--generated WORKLOAD:SEED ...] [--repeat K] [--json PATH]

Runs ``python -m confmass <command> <config>`` for the 7 commands, each at
its default flags and at the flag variants in ``VARIANTS``, on the
bundled configs of TREE (default: the checkout this script sits in),
plus each config file given by a repeated ``--config`` (labelled by its
file name) and every config that TREE/benchmark/gen.py writes for a
repeated ``--generated WORKLOAD:SEED`` (into a temporary directory,
removed at the end, and labelled ``WORKLOAD:SEED/FILE``), once
with TREE/src and once with PARENT_TREE/src on PYTHONPATH, one process
at a time, each under TREE/benchmark/probe.py.  For each pair it prints
both exit codes and both wall times net of the probes (with ``--repeat
K``, each side runs K times, the two sides taking turns, and the time is
the median of its K runs; a side whose exit code, stdout or stderr
changes between its runs is named), ``stderr identical`` when the
two stderr texts match byte for byte and otherwise both of them,
``stdout identical`` when the two outputs match, and otherwise every ``pass``
verdict that changed, report keys added or removed, and the largest
relative drift of any float leaf with its JSON path; at the end, the
largest drift per leaf name (``limit``, ``error``, ...) over all pairs,
where a leaf of a named list item goes by that name as well
(``clifford-wedge-contract.value``), and one tally line: the pairs run,
those with identical stdout, the exit codes that changed and the
``pass`` verdicts that changed.  It sets no bounds and always exits 0
once both sweeps have run.

``--json PATH`` also writes all of it to PATH: the machine, and per
pair both exit codes, both median wall times raw and scaled to the
probe's reference core (``probe.speed_factor``, as the benchmark scales
its ops), whether stdout and stderr match, the verdict changes and the
largest drift; then the largest drift per leaf name and the tally.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = ("check", "curvature", "identities", "mass", "weyl-mass", "laws", "witten")

# flags each command also runs with on every config, after its defaults:
# the point count below and above the batteries' chunk widths, the
# third-order jets, the other measure and normalisation, custom radii
VARIANTS = {
    "curvature": (("--points", "7"), ("--points", "250"), ("--jet-order", "3")),
    "identities": (("--points", "7"), ("--points", "250"), ("--jet-order", "3")),
    "mass": (("--measure", "g"),),
    "weyl-mass": (("--normalize", "adm"), ("--radii", "20,40,80,160,320")),
    "witten": (("--measure", "g"), ("--radii", "20,40,80,160,320,640")),
}


def bundled_configs(tree: str) -> list:
    data = os.path.join(tree, "src", "confmass", "data")
    return sorted(os.path.splitext(f)[0] for f in os.listdir(data)
                  if f.endswith((".chart", ".ends")))


def bench_module(tree: str, name: str):
    """TREE/benchmark/NAME.py, loaded as a module."""
    path = os.path.join(tree, "benchmark", name + ".py")
    mod_spec = importlib.util.spec_from_file_location(f"confmass_bench_{name}", path)
    mod = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(mod)
    return mod


def generated_configs(tree: str, spec: str, outdir: str) -> list:
    """(label, path) of the configs TREE/benchmark/gen.py writes for
    ``WORKLOAD:SEED`` into a fresh directory under ``outdir``, in name
    order; the label is ``WORKLOAD:SEED/FILE``."""
    workload, _, seed = spec.rpartition(":")
    where = os.path.join(outdir, f"{workload}-{seed}")
    bench_module(tree, "gen").generate(workload, int(seed), where)
    return [(f"{spec}/{f}", os.path.join(where, f)) for f in sorted(os.listdir(where))]


def run(tree: str, command: str, config: str, flags, probe, samples: str) -> tuple:
    """Exit code, stdout, stderr, parsed JSON report (None when stdout is
    not one), and wall time in seconds net of the probes, raw and scaled
    by ``probe.speed_factor``; the process runs under ``probe``'s file,
    which writes its samples to ``samples``."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, probe.__file__, samples,
                           "-m", "confmass", command, config, *flags],
                          capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    with open(samples) as f:
        probes = [float(x) for x in f.read().split()]
    os.remove(samples)
    wall -= sum(probes)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc.returncode, proc.stdout, proc.stderr, report, wall, \
        wall * probe.speed_factor(probes)


def leaves(node, path: str = "") -> dict:
    """Leaf values keyed by JSON path; list items with a name go by name.

    An empty list or object is a leaf, so a key added with no content
    still shows.
    """
    out = {}
    if isinstance(node, (dict, list)) and not node:
        out[path] = node
    elif isinstance(node, dict):
        for k, v in node.items():
            out.update(leaves(v, f"{path}.{k}" if path else k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            key = v["name"] if isinstance(v, dict) and "name" in v else i
            out.update(leaves(v, f"{path}[{key}]"))
    else:
        out[path] = node
    return out


def rel_drift(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def leaf_name(path: str) -> str:
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def summary_name(path: str) -> str:
    """Leaf name, prefixed with the name of the list item holding it."""
    head, _, _ = path.rpartition(".")
    if head.endswith("]"):
        depth = 0
        for i in range(len(head) - 1, -1, -1):
            depth += {"]": 1, "[": -1}.get(head[i], 0)
            if depth == 0:
                item = head[i + 1:-1]
                if not item.isdigit():
                    return f"{item}.{leaf_name(path)}"
                break
    return leaf_name(path)


def compare(old: dict, new: dict, worst_by_name: dict, label: str) -> tuple:
    """Lines describing the differences between two reports, and the
    largest drift as (drift, path, old, new), None when no float moved."""
    a, b = leaves(old), leaves(new)
    lines = [f"  removed: {p}" for p in sorted(a.keys() - b.keys())]
    lines += [f"  added: {p}" for p in sorted(b.keys() - a.keys())]
    worst = (0.0, None, None, None)
    for p in sorted(a.keys() & b.keys()):
        x, y = a[p], b[p]
        if isinstance(x, bool) or isinstance(y, bool):
            if x != y and leaf_name(p) == "pass":
                lines.append(f"  verdict {p}: {x} -> {y}")
            continue
        if isinstance(x, float) and isinstance(y, float):
            d = rel_drift(x, y)
            if d > worst[0]:
                worst = (d, p, x, y)
            name = summary_name(p)
            if d > worst_by_name.get(name, (0.0,))[0]:
                worst_by_name[name] = (d, f"{label} {p}: {x!r} -> {y!r}")
    if worst[1] is None:
        return lines, None
    d, p, x, y = worst
    lines.append(f"  largest drift {d:.3g} at {p} ({x!r} -> {y!r})")
    return lines, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree to compare against")
    ap.add_argument("--tree", default=os.path.join(os.path.dirname(__file__), ".."),
                    help="source tree under test (default: this checkout)")
    ap.add_argument("--config", action="append", default=[], metavar="PATH",
                    help="config file to sweep as well as the bundled ones (repeatable)")
    ap.add_argument("--generated", action="append", default=[], metavar="WORKLOAD:SEED",
                    help="sweep the configs benchmark/gen.py writes for this workload "
                         "and seed as well (repeatable)")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="run each side K times per pair and print the median "
                         "wall time (default 1)")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the machine, every pair and the summary "
                         "as JSON to PATH")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="confmass-sweep-") as tmp:
        configs = [(name, name) for name in bundled_configs(args.tree)]
        configs += [(os.path.basename(path), path) for path in args.config]
        for spec in args.generated:
            configs += generated_configs(args.tree, spec, tmp)
        probe = bench_module(args.tree, "probe")
        doc = sweep(args.parent, args.tree, configs, probe, tmp, args.repeat)
    if args.json:
        with open(args.json, "w") as f:
            f.write(json.dumps(doc, indent=1) + "\n")
    return 0


def machine() -> dict:
    import numpy
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def sweep(parent: str, tree: str, configs: list, probe, tmp: str, repeat: int = 1) -> dict:
    """Run and compare every command on every (label, path) config, each
    side ``repeat`` times in turns, under ``probe`` with its samples in
    ``tmp``; print the summary and return it all as a JSON document."""
    worst_by_name: dict = {}
    records = []
    pairs = same = exits = verdicts = 0
    samples = os.path.join(tmp, "probe.txt")
    for config_label, config in configs:
        for command, flags in [(c, f) for c in COMMANDS for f in ((), *VARIANTS.get(c, ()))]:
            label = " ".join((command, config_label, *flags))
            runs = ([], [])  # parent's, tree's
            for _ in range(repeat):
                for side, done in zip((parent, tree), runs):
                    done.append(run(side, command, config, flags, probe, samples))
            (code_old, out_old, err_old, old, *_), (code_new, out_new, err_new, new, *_) = \
                runs[0][0], runs[1][0]
            t_old, t_new = (statistics.median(r[4] for r in done) for done in runs)
            pairs += 1
            exits += code_old != code_new
            record = {"command": command, "config": config_label, "flags": list(flags),
                      "exit": [code_old, code_new],
                      "wall_s": [round(t_old, 4), round(t_new, 4)],
                      "scaled_s": [round(statistics.median(r[5] for r in done), 4)
                                   for done in runs],
                      "stdout_identical": out_old == out_new,
                      "stderr_identical": err_old == err_new,
                      "verdict_changes": 0, "largest_drift": None}
            records.append(record)
            print(f"{label}: exit {code_old} -> {code_new}, {t_old:.2f} s -> {t_new:.2f} s"
                  + (f" (median of {repeat})" if repeat > 1 else ""))
            for name, done in zip(("parent", "tree"), runs):
                if any(r[:3] != done[0][:3] for r in done[1:]):
                    print(f"  {name} output changes between runs")
            if err_old == err_new:
                print("  stderr identical")
            else:
                print(f"  parent stderr: {err_old!r}\n  tree stderr: {err_new!r}")
            if out_old == out_new:
                same += 1
                print("  stdout identical")
                continue
            if old is None or new is None:
                print(f"  report: {'none' if old is None else 'json'} -> "
                      f"{'none' if new is None else 'json'}")
                continue
            lines, worst = compare(old, new, worst_by_name, label)
            for line in lines:
                record["verdict_changes"] += line.startswith("  verdict ")
                print(line)
            verdicts += record["verdict_changes"]
            if worst is not None:
                record["largest_drift"] = dict(zip(("drift", "path", "parent", "tree"), worst))
            sys.stdout.flush()
    print("largest drift per leaf name:")
    ranked = sorted(worst_by_name.items(), key=lambda kv: -kv[1][0])
    for name, (d, where) in ranked:
        print(f"  {name}: {d:.3g} ({where})")
    tally = {"pairs": pairs, "stdout_identical": same, "exit_code_changes": exits,
             "verdict_changes": verdicts}
    print(f"tally: {pairs} pairs, {same} with identical stdout, {exits} exit-code "
          f"changes, {verdicts} verdict changes")
    return {"machine": machine(), "repeat": repeat, "pairs": records,
            "largest_drift_per_leaf": {name: {"drift": d, "where": where}
                                       for name, (d, where) in ranked},
            "tally": tally}


if __name__ == "__main__":
    sys.exit(main())
