"""Generate the bundled data corpus under src/confmass/data/."""
import json
import math
import os

ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "confmass", "data")
os.makedirs(ROOT, exist_ok=True)

PI = math.pi


def expr(s):
    return {"expr": s}


def const_spinors(n_comp):
    """Three constant unit-scale spinor fields (the third mixed complex)."""
    def comp(re, im):
        return {"re": expr(re), "im": expr(im)}

    zeros = [comp("0", "0") for _ in range(n_comp)]
    s1 = [comp("1", "0")] + zeros[1:]
    s2 = zeros[:1] + [comp("1", "0")] + zeros[2:]
    s3 = [comp("0.6", "0"), comp("0", "0.8")] + zeros[2:]
    return [
        {"name": "const-plus", "weight": -0.5, "components": s1},
        {"name": "const-minus", "weight": -0.5, "components": s2},
        {"name": "const-mixed", "weight": -0.5, "components": s3},
    ]


iso_metric = {k: expr("(1 + m/(2*r))^4") for k in ("11", "22", "33")}

docs = {}

docs["flat.chart"] = {
    "schema_version": 1,
    "kind": "chart",
    "name": "flat",
    "n": 3, "tau": 0.75, "r_min": 1.0,
    "metric": {},
    "spinors": const_spinors(2),
}

docs["schwarzschild.chart"] = {
    "schema_version": 1,
    "kind": "chart",
    "name": "schwarzschild",
    "n": 3, "tau": 0.99, "r_min": 1.0,
    "params": {"m": 1.0},
    "metric": iso_metric,
    "spinors": const_spinors(2),
}

docs["schwarzschild-lee.chart"] = {
    "schema_version": 1,
    "kind": "chart",
    "name": "schwarzschild-lee",
    "n": 3, "tau": 0.99, "r_min": 1.0,
    "params": {"m": 1.0, "b": 0.25},
    "metric": iso_metric,
    "lee": [expr("-b*x1/r^3"), expr("-b*x2/r^3"), expr("-b*x3/r^3")],
    "spinors": const_spinors(2),
}

docs["schwarzschild-rot-lee.chart"] = {
    "schema_version": 1,
    "kind": "chart",
    "name": "schwarzschild-rot-lee",
    "n": 3, "tau": 0.99, "r_min": 1.0,
    "params": {"m": 1.0, "b": 0.3},
    "metric": iso_metric,
    "lee": [expr("-b*x2/r^3"), expr("b*x1/r^3"), expr("0")],
    "spinors": const_spinors(2),
}

docs["perturbed4.chart"] = {
    "schema_version": 1,
    "kind": "chart",
    "name": "perturbed4",
    "n": 4, "tau": 1.45, "r_min": 1.0,
    "metric": {
        "11": expr("1 + 0.3/(r*sqrt(r))"),
        "22": expr("1 + 0.2/(r*sqrt(r))"),
        "33": expr("1"),
        "44": expr("1 + 0.1/(r*sqrt(r))"),
        "12": expr("0.15*x1*x2/(r^3*sqrt(r))"),
        "34": expr("0.1*(x1 - x2)/(r^2*sqrt(r))"),
    },
    "lee": [expr("-0.6*x1/(r^3*sqrt(r))"), expr("-0.6*x2/(r^3*sqrt(r))"),
            expr("-0.6*x3/(r^3*sqrt(r))"), expr("-0.6*x4/(r^3*sqrt(r))")],
}

iso_chart_inline = {
    "name": "schwarzschild",
    "n": 3, "tau": 0.99, "r_min": 1.0,
    "params": {"m": 1.0},
    "metric": iso_metric,
}
docs["twoends.ends"] = {
    "schema_version": 1,
    "kind": "end_system",
    "name": "twoends",
    "ends": [
        {"a": 1.0, "chart": dict(iso_chart_inline)},
        {"a": 4.0, "chart": dict(iso_chart_inline, name="schwarzschild-far")},
    ],
}

# ---------------------------------------------------------------------
# expected values (frozen; closed forms where available)
radii = [20.0, 40.0, 80.0, 160.0]


def iso_flux(r):
    # closed form for the isotropic chart, Euclidean measure
    return 16.0 * PI * (1.0 + 1.0 / (2.0 * r)) ** 3


# iso_flux to 12 decimals, as frozen when the corpus was first written
frozen_euclid = [54.130426819516, 52.174098169263, 51.213863011585, 50.738195511012]
for r, e in zip(radii, frozen_euclid):
    assert abs(iso_flux(r) - e) < 5e-12, (r, iso_flux(r), e)

expected = {
    "radii": radii,
    "flat.chart": {
        "riemannian_mass_raw": 0.0,
        "weyl_mass_raw": 0.0,
    },
    "schwarzschild.chart": {
        "adm_flux_euclidean": [iso_flux(r) for r in radii],
        # the g measure multiplies the flux by u^2: 16 pi (1 + 1/(2r))^5,
        # to 12 decimals
        "adm_flux_g": [56.870779677254, 53.486602826333,
                       51.856036840754, 51.055804723147],
        "riemannian_mass_raw": 16.0 * PI,
        "adm_normalized": 1.0,
        "lee_flux_limit": 0.0,
        "weyl_mass_raw": 16.0 * PI,
        "witten_limit_unit": 4.0 * PI,
    },
    "schwarzschild-lee.chart": {
        "lee_flux_each_radius": -PI,  # -4*pi*b with b = 0.25
        "riemannian_mass_raw": 16.0 * PI,
        "weyl_mass_raw": 20.0 * PI,
        "witten_limit_unit": 5.0 * PI,
    },
    "schwarzschild-rot-lee.chart": {
        "lee_flux_each_radius": 0.0,
        "riemannian_mass_raw": 16.0 * PI,
        "weyl_mass_raw": 16.0 * PI,
        "witten_limit_unit": 4.0 * PI,
    },
    "twoends.ends": {
        "weyl_mass_raw": 48.0 * PI,
        "per_end_raw": [16.0 * PI, 16.0 * PI],
    },
}

for fname, doc in docs.items():
    with open(os.path.join(ROOT, fname), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
with open(os.path.join(ROOT, "expected.json"), "w") as f:
    json.dump(expected, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote", sorted(os.listdir(ROOT)))
