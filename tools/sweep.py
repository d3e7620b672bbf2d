"""Compare every command on every bundled config between two source trees.

    python tools/sweep.py PARENT_TREE [--tree TREE] [--config PATH ...]
        [--generated WORKLOAD:SEED ...]

Runs ``python -m confmass <command> <config>`` for the 7 commands and the
bundled configs of TREE (default: the checkout this script sits in),
plus each config file given by a repeated ``--config`` and every config
that TREE/benchmark/gen.py writes for a repeated ``--generated
WORKLOAD:SEED`` (into a temporary directory, removed at the end), once
with TREE/src and once with PARENT_TREE/src on PYTHONPATH, one process
at a time.  For each pair it prints both exit codes and both wall times,
``stdout identical`` when the two outputs match byte for byte, and otherwise every ``pass``
verdict that changed, report keys added or removed, and the largest
relative drift of any float leaf with its JSON path; at the end, the
largest drift per leaf name (``limit``, ``error``, ...) over all pairs,
where a leaf of a named list item goes by that name as well
(``clifford-wedge-contract.value``).  It sets no bounds and always exits
0 once both sweeps have run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

COMMANDS = ("check", "curvature", "identities", "mass", "weyl-mass", "laws", "witten")


def bundled_configs(tree: str) -> list:
    data = os.path.join(tree, "src", "confmass", "data")
    return sorted(os.path.splitext(f)[0] for f in os.listdir(data)
                  if f.endswith((".chart", ".ends")))


def generated_configs(tree: str, spec: str, outdir: str) -> list:
    """Paths of the configs TREE/benchmark/gen.py writes for ``WORKLOAD:SEED``
    into a fresh directory under ``outdir``, in name order."""
    workload, _, seed = spec.rpartition(":")
    path = os.path.join(tree, "benchmark", "gen.py")
    mod_spec = importlib.util.spec_from_file_location("confmass_bench_gen", path)
    gen = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(gen)
    where = os.path.join(outdir, f"{workload}-{seed}")
    gen.generate(workload, int(seed), where)
    return [os.path.join(where, f) for f in sorted(os.listdir(where))]


def run(tree: str, command: str, config: str) -> tuple:
    """Exit code, stdout, parsed JSON report (None when stdout is not one)
    and wall time in seconds."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "confmass", command, config],
                          capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc.returncode, proc.stdout, report, wall


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


def compare(old: dict, new: dict, worst_by_name: dict, label: str) -> list:
    """Lines describing the differences between two reports."""
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
    if worst[1] is not None:
        d, p, x, y = worst
        lines.append(f"  largest drift {d:.3g} at {p} ({x!r} -> {y!r})")
    return lines


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
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="confmass-sweep-") as tmp:
        configs = bundled_configs(args.tree) + args.config
        for spec in args.generated:
            configs += generated_configs(args.tree, spec, tmp)
        sweep(args.parent, args.tree, configs)
    return 0


def sweep(parent: str, tree: str, configs: list) -> None:
    """Run and compare every command on every config; print the summary."""
    worst_by_name: dict = {}
    for config in configs:
        for command in COMMANDS:
            label = f"{command} {config}"
            code_old, out_old, old, t_old = run(parent, command, config)
            code_new, out_new, new, t_new = run(tree, command, config)
            print(f"{label}: exit {code_old} -> {code_new}, {t_old:.2f} s -> {t_new:.2f} s")
            if out_old == out_new:
                print("  stdout identical")
                continue
            if old is None or new is None:
                print(f"  report: {'none' if old is None else 'json'} -> "
                      f"{'none' if new is None else 'json'}")
                continue
            for line in compare(old, new, worst_by_name, label):
                print(line)
            sys.stdout.flush()
    print("largest drift per leaf name:")
    for name, (d, where) in sorted(worst_by_name.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name}: {d:.3g} ({where})")


if __name__ == "__main__":
    sys.exit(main())
