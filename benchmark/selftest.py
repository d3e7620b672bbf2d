"""Self-tests of the benchmark's own parts, and the known-defect ledger.

    python3 benchmark/run.py --selftest   # about 20 s
    python3 benchmark/run.py --ledger     # about 1 min

The self-tests check that the generator is deterministic and that its
closed forms reproduce the bundled ``expected.json``; that the verifier
rejects tampered outcomes; that the tracer refuses a missing target;
and that a traced op prints the same bytes as the plain op.  Tracer
coverage (every target called on the workload that names it) is
checked by every ``--trace 1`` run.
"""

from __future__ import annotations

import filecmp
import json
import math
import os

import gen
import tracer
import verify

__all__ = ["main", "ledger"]


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        self.failed += not ok


def _generator(check: Checks, work: str) -> None:
    for wl in gen.WORKLOADS:
        a, b, c = (os.path.join(work, wl, k) for k in ("a", "b", "c"))
        ops_a = gen.generate(wl, 7, a)
        ops_b = gen.generate(wl, 7, b)
        gen.generate(wl, 8, c)
        files = sorted(os.listdir(a))
        same = filecmp.cmpfiles(a, b, files, shallow=False)[0] == files
        swap = lambda ops, d: json.dumps(ops).replace(d, "<dir>")  # noqa: E731
        check(same and swap(ops_a, a) == swap(ops_b, b),
              f"generator: {wl} configs and ops are byte-identical for one seed")
        differs = filecmp.cmpfiles(a, c, files, shallow=False)[1]
        check(bool(differs), f"generator: {wl} configs change with the seed")


def _closed_forms(check: Checks) -> None:
    from confmass.config import bundled_text, load_expected

    exp = load_expected()
    pi = math.pi
    pairs = [
        ("schwarzschild raw 16pi", gen.raw_mass(3, 1.0),
         exp["schwarzschild.chart"]["riemannian_mass_raw"], 16 * pi),
        ("schwarzschild-lee Weyl 20pi", gen.weyl_mass(3, 1.0, "radial", 0.25),
         exp["schwarzschild-lee.chart"]["weyl_mass_raw"], 20 * pi),
        ("schwarzschild-rot-lee Weyl 16pi", gen.weyl_mass(3, 1.0, "rot", 0.25),
         exp["schwarzschild-rot-lee.chart"]["weyl_mass_raw"], 16 * pi),
        ("twoends aggregate 48pi",
         gen.weyl_mass(3, 1.0) + math.sqrt(4.0) * gen.weyl_mass(3, 1.0),
         exp["twoends.ends"]["weyl_mass_raw"], 48 * pi),
        ("schwarzschild-lee Witten 5pi", 0.25 * gen.weyl_mass(3, 1.0, "radial", 0.25),
         exp["schwarzschild-lee.chart"]["witten_limit_unit"], 5 * pi),
    ]
    for what, ours, frozen, exact in pairs:
        check(math.isclose(ours, frozen, rel_tol=1e-12)
              and math.isclose(ours, exact, rel_tol=1e-12),
              f"closed form: {what} = {ours:.12g} (expected.json {frozen:.12g})")
    bundled = json.loads(bundled_text("schwarzschild-lee"))
    ours = gen.chart_doc("schwarzschild-lee", 3, 1.0, lee="radial", b=0.25)
    keys = ("metric", "lee", "params", "n", "tau", "r_min")
    check(all(ours[k] == bundled[k] for k in keys),
          "generator: the radial family at m=1, b=0.25 is the bundled schwarzschild-lee")


def _tampered(check: Checks, bench, work: str) -> None:
    ops = gen.generate("metric-flux", 3, os.path.join(work, "verify"))
    mass_op = ops[0]
    bad_op = next(op for op in ops if op["expect"]["exit"] == 2)
    o = bench.op(mass_op["argv"])
    check(verify.verify(mass_op["expect"], o.code, o.out, o.err).ok,
          "verifier: accepts a genuine mass report")
    off = json.loads(o.out)
    off["results"]["limit"] *= 1.01
    ident = {"command": "identities", "pass": True, "results": {"batteries": [
        {"battery": "identities", "checks": [
            {"name": "lichnerowicz-first", "value": 2e-8, "tolerance": 1e-8}]}]}}
    expect = mass_op["expect"]
    cases = [
        ("a limit off by 1%", expect, 0, json.dumps(off).encode(), b""),
        ("a traceback with exit 1", expect, 1, o.out,
         b"Traceback (most recent call last):\nValueError: boom\n"),
        ("a wrong exit code", expect, 1, o.out, b""),
        ("an identity value over tolerance", {"exit": 0}, 0,
         json.dumps(ident).encode(), b""),
    ]
    for what, exp, code, out, err in cases:
        check(not verify.verify(exp, code, out, err).ok, f"verifier: rejects {what}")
    o = bench.op(bad_op["argv"])
    check(verify.verify(bad_op["expect"], o.code, o.out, o.err).ok,
          "verifier: accepts an invalid request that exits 2 with one line")
    check(not verify.verify(bad_op["expect"], 1, b"",
                            b"Traceback (most recent call last):\nX\n").ok,
          "verifier: rejects an invalid request that ends in a traceback")


def _tracer(check: Checks, bench, work: str) -> None:
    try:
        tracer.install(tracer.Tracer(), {"mass.no_such_function": ()})
        check(False, "tracer: a missing target raises")
    except LookupError as e:
        check("mass.no_such_function" in str(e), "tracer: a missing target raises")
    ops = gen.generate("metric-flux", 4, os.path.join(work, "trace"))
    for op in ops[:2] + [next(op for op in ops if op["expect"]["exit"] == 2)]:
        plain = bench.op(op["argv"])
        traced = bench.traced(op["argv"], os.path.join(work, "spans.json"))
        check(plain.out == traced.out and plain.code == traced.code,
              f"tracer: '{op['argv'][0]}' prints the same bytes traced and plain")


def main(bench) -> int:
    check = Checks()
    work = os.path.join(bench.work, "selftest")
    _generator(check, work)
    _closed_forms(check)
    _tampered(check, bench, work)
    _tracer(check, bench, work)
    print(f"selftest: {check.failed} failed")
    return 1 if check.failed else 0


# Known defects of the program at the commit that added this benchmark.
# The workloads leave these inputs out, so that every op they run can
# pass; this ledger re-runs them and says which are still present.
LEDGER = [
    ("witten on a config without named spinors: AttributeError "
     "clifford.rep_dim (suites.witten_battery)", ["witten", "twoends"],
     lambda o, rep: o.code == 1 and b"rep_dim" in o.err),
    ("mass with a radius below 2 r_min ends in a traceback, exit 1",
     ["mass", "schwarzschild", "--radii", "1,2,4,8"],
     lambda o, rep: b"Traceback" in o.err),
    ("mass with radius ratios below 1.5 ends in a traceback, exit 1",
     ["mass", "schwarzschild", "--radii", "20,25,30,35"],
     lambda o, rep: b"Traceback" in o.err),
    ("identities --points 0 ends in a traceback, exit 1",
     ["identities", "flat", "--points", "0"],
     lambda o, rep: b"Traceback" in o.err),
    ("n = 4 isotropic chart, m = 1: the ADM mass 1.0 lies outside the "
     "reported error bar (not reproduced when this ledger was written)",
     ["mass", "<n4>", "--normalize", "adm"],
     lambda o, rep: rep is not None
     and abs(rep["results"]["limit"] - 1.0) > rep["results"]["error"]),
]


def ledger(bench) -> int:
    path = os.path.join(bench.work, "n4.json")
    with open(path, "w") as f:
        json.dump(dict(gen.chart_doc("n4", 4, 1.0), schema_version=1, kind="chart"), f)
    for what, argv, present in LEDGER:
        argv = [path if a == "<n4>" else a for a in argv]
        o = bench.op(argv)
        try:
            rep = json.loads(o.out)
        except ValueError:
            rep = None
        status = "present" if present(o, rep) else "absent"
        tail = o.err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        print(f"{status:17s} {what}\n{'':17s} exit {o.code}, {o.wall:.1f} s: {tail[0][:120]}")
        if rep is not None and argv[0] == "mass":
            r = rep["results"]
            print(f"{'':17s} limit {r['limit']!r}, error {r['error']!r}")
    return 0
