"""Symbolic curvature oracles for the closed forms in tests/test_curvature.py
(its round-sphere, conformally flat and Weyl-scalar classes).

Checks, all with sympy so they are independent of the package code:
  1. Christoffel symbols of g = diag(1, x1^2) on n=2 (polar-style chart).
  2. Scalar curvature of a conformally flat metric g = u^4 delta on n=3
     equals -8 u^-5 * (flat Laplacian of u)  [so u harmonic => scalar-flat].
  3. The isotropic 1/r-type profile u = 1 + m/(2r) is flat-harmonic away
     from r=0, hence the chart is scalar-flat.
  4. Ricci convention fixed by Ric_ij = sum_l R^l_{j l i} with
     R^l_{kij} = coeff of d_l in R(d_i,d_j) d_k, R = [D_i,D_j] - D_[i,j];
     check on the round 2-sphere factor diag(1, sin(x1)^2): Scal = 2.

Run: python tools/oracles/oracle_curvature.py
"""
import sympy as sp


def christoffel(g, xs):
    n = len(xs)
    ginv = g.inv()
    Gam = [[[sp.S(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = sp.S(0)
                for l in range(n):
                    s += ginv[k, l] * (sp.diff(g[j, l], xs[i]) + sp.diff(g[i, l], xs[j]) - sp.diff(g[i, j], xs[l]))
                Gam[k][i][j] = sp.simplify(s / 2)
    return Gam


def riemann(Gam, xs):
    # R[l][k][i][j] = coeff of d_l in R(d_i,d_j)d_k
    n = len(xs)
    R = [[[[sp.S(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    s = sp.diff(Gam[l][j][k], xs[i]) - sp.diff(Gam[l][i][k], xs[j])
                    for m in range(n):
                        s += Gam[l][i][m] * Gam[m][j][k] - Gam[l][j][m] * Gam[m][i][k]
                    R[l][k][i][j] = sp.simplify(s)
    return R


def ricci_scal(g, xs):
    n = len(xs)
    Gam = christoffel(g, xs)
    R = riemann(Gam, xs)
    Ric = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            Ric[i, j] = sp.simplify(sum(R[l][j][l][i] for l in range(n)))
    ginv = g.inv()
    scal = sp.simplify(sum(ginv[i, j] * Ric[i, j] for i in range(n) for j in range(n)))
    return Ric, scal


def main():
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)

    # 1. diag(1, x1^2)
    g = sp.diag(1, x1 ** 2)
    Gam = christoffel(g, [x1, x2])
    print("diag(1, x1^2): Gamma^1_22 =", Gam[0][1][1], " Gamma^2_12 =", Gam[1][0][1])
    print("  at x1=2: Gamma^1_22 =", Gam[0][1][1].subs(x1, 2), " Gamma^2_12 =", Gam[1][0][1].subs(x1, 2))

    # 4. round-sphere factor: diag(1, sin(x1)^2) has Scal = +2 in this convention
    gs = sp.diag(1, sp.sin(x1) ** 2)
    _, scal = ricci_scal(gs, [x1, x2])
    print("diag(1, sin^2 x1): Scal =", sp.simplify(scal), " (plus sign pins the convention)")

    # 2. conformally flat n=3: Scal(u^4 delta) = -8 u^-5 lap(u)
    u = sp.Function("u")(x1, x2, x3)
    guu = sp.diag(u ** 4, u ** 4, u ** 4)
    _, scal3 = ricci_scal(guu, [x1, x2, x3])
    lap = sum(sp.diff(u, v, 2) for v in (x1, x2, x3))
    print("Scal(u^4 delta) + 8 u^-5 lap(u) simplifies to:",
          sp.simplify(scal3 + 8 * lap / u ** 5))

    # 3. isotropic profile is flat-harmonic
    m = sp.symbols("m", positive=True)
    r = sp.sqrt(x1 ** 2 + x2 ** 2 + x3 ** 2)
    uiso = 1 + m / (2 * r)
    print("lap(1 + m/(2r)) =", sp.simplify(sum(sp.diff(uiso, v, 2) for v in (x1, x2, x3))))

    # spot values to compare by hand: isotropic chart m=1 at (1.5, -0.5, 2.0)
    vals = {x1: sp.Rational(3, 2), x2: sp.Rational(-1, 2), x3: 2, m: 1}
    uu = uiso.subs(vals)
    print("isotropic m=1 at (1.5,-0.5,2.0): g11 = u^4 =", float((uu ** 4)))
    GamI = christoffel(sp.diag(uiso ** 4, uiso ** 4, uiso ** 4), [x1, x2, x3])
    print("  Gamma^1_11 =", float(GamI[0][0][0].subs(vals)))
    print("  Gamma^1_23 =", float(GamI[0][1][2].subs(vals)))
    print("  Gamma^3_12 =", float(GamI[2][0][1].subs(vals)))


if __name__ == "__main__":
    main()
