"""Tests for sphere quadrature, boundary fluxes, tail extrapolation, and the
mass functionals."""

import itertools
import math
import warnings

import numpy as np
import pytest

from confmass import exprdsl, jetlinalg, mass, util
from confmass.chart import ChartError, End, EndSystem, conformal_rescale, make_chart
from confmass.config import bundled_names, load_config
from confmass.mass import (
    DIVERGENCE_WARNING,
    QUAD_ATOL,
    QUAD_MAX_NODES,
    QUAD_ORDERS,
    QUAD_RTOL,
    MassReport,
    adm_flux,
    default_radii,
    extrapolate,
    gradient_flux,
    lee_flux,
    probe_radius,
    riemannian_mass,
    sphere_area,
    two_path_mass_delta,
    weyl_flux,
    weyl_mass,
    witten_flux,
)
from confmass.mass import (P_XTOL, _best_exponent, _flux, _measure_factors, _polar_rule,
                           _unit_rule)
from confmass.spinor import make_spinor_spec

ISO = "(1 + 1/(2*r))^4"


def flat_chart(n=3, **kw):
    args = dict(n=n, tau=(n - 2) / 2 + 0.25, r_min=1.0, metric={})
    args.update(kw)
    return make_chart(**args)


def iso_chart():
    return make_chart(n=3, tau=0.99, r_min=1.0, metric={"11": ISO, "22": ISO, "33": ISO})


def stress_chart():
    """A non-axisymmetric n = 3 chart with high multipole content.

    At r = 20 its order-12 fluxes are off by up to 6e-4 relative (2e-3
    absolute), so the first pair of the order ladder must disagree and
    the ladder must climb.
    """
    e = 0.1
    return make_chart(
        n=3,
        tau=0.99,
        r_min=1.0,
        metric={
            "11": f"1 + {e}*exp(4*x1/r)*cos(6*x2/r)/r",
            "22": f"1 + {e}*sin(5*x3/r)*cos(4*x1/r)/r",
            "33": "1",
            "12": f"{e}*exp(3*x3/r)*x1*x2/r^3",
        },
        lee=["exp(2*x1/r)*cos(5*x2/r)/r^2", "sin(4*x3/r)*x1/r^3", "x3/r^3"],
    )


def rot_lee_chart():
    return make_chart(
        n=3,
        tau=0.99,
        r_min=1.0,
        metric={"11": ISO, "22": ISO, "33": ISO},
        lee=["-0.3*x2/r^3", "0.3*x1/r^3", "0"],
    )


def lee_chart(b=0.25):
    return make_chart(
        n=3,
        tau=0.99,
        r_min=1.0,
        metric={"11": ISO, "22": ISO, "33": ISO},
        lee=[f"-{b}*x{i}/r^3" for i in (1, 2, 3)],
    )


def reference_unit_rule(n, N):
    """Unit-sphere nodes and weights built from scratch, without the cache:
    Gauss-Jacobi in t_k = cos(theta_k) by Golub-Welsch for every polar
    angle (Gauss-Legendre for the last one) times 2N uniform azimuth
    nodes."""
    M = 2 * N
    phi = 2.0 * math.pi * np.arange(M) / M
    ts, ws = [], []
    for k in range(1, n - 1):
        a = 0.5 * (n - 2 - k)
        j = np.arange(1.0, N)
        b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
        jac = np.zeros((N, N))
        jac[j.astype(int) - 1, j.astype(int)] = b
        jac[j.astype(int), j.astype(int) - 1] = b
        t, v = np.linalg.eigh(jac)
        wt = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5) * v[0] ** 2
        ts.append(t)
        ws.append(wt)
    mesh = np.meshgrid(*(ts + [phi]), indexing="ij")
    w = np.ones_like(mesh[0])
    for wm in np.meshgrid(*(ws + [np.full(M, 2.0 * math.pi / M)]), indexing="ij"):
        w = w * wm
    x = np.empty((n,) + mesh[0].shape)
    sin_prod = np.ones_like(mesh[0])
    for k in range(1, n - 1):
        x[n - k] = sin_prod * mesh[k - 1]
        sin_prod = sin_prod * np.sqrt(1.0 - mesh[k - 1] ** 2)
    x[0] = sin_prod * np.cos(mesh[n - 2])
    x[1] = sin_prod * np.sin(mesh[n - 2])
    return x.reshape(n, -1), w.ravel()


def theta_unit_rule(n, N):
    """The earlier n >= 4 rule, kept as a mutation: Gauss-Legendre nodes in
    the polar angles theta_k with sin^(n-1-k) theta_k folded into the
    weights.  It is not matched to the measure, so it is not exact."""
    M = 2 * N
    phi = 2.0 * math.pi * np.arange(M) / M
    xi, wxi = np.polynomial.legendre.leggauss(N)
    theta = 0.5 * math.pi * (xi + 1.0)
    wtheta = 0.5 * math.pi * wxi
    mesh = np.meshgrid(*([theta] * (n - 2) + [phi]), indexing="ij")
    wlist = [wtheta * np.sin(theta) ** (n - 2 - k) for k in range(n - 2)]
    w = np.ones_like(mesh[0])
    for wm in np.meshgrid(*(wlist + [np.full(M, 2.0 * math.pi / M)]), indexing="ij"):
        w = w * wm
    x = np.empty((n,) + mesh[0].shape)
    sin_prod = np.ones_like(mesh[0])
    for k in range(n - 2):
        x[k] = sin_prod * np.cos(mesh[k])
        sin_prod = sin_prod * np.sin(mesh[k])
    x[n - 2] = sin_prod * np.cos(mesh[n - 2])
    x[n - 1] = sin_prod * np.sin(mesh[n - 2])
    return x.reshape(n, -1), w.ravel()


def moment_error(x, w, degree):
    """Largest error of the rule (x, w) on the unit sphere S^(n-1) over every
    monomial x^alpha of degree <= ``degree``, against the closed form

        integral of x^alpha = 2 prod Gamma((alpha_i + 1)/2) / Gamma((|alpha| + n)/2)

    for even alpha, and 0 otherwise.  The monomials split into a head in
    the first three coordinates and a tail in the rest, so every moment
    comes out of one weighted product of the two power tables."""
    n = x.shape[0]
    powers = x[:, None, :] ** np.arange(degree + 1)[:, None]

    def table(coords):
        alphas = [a for a in itertools.product(range(degree + 1), repeat=len(coords))
                  if sum(a) <= degree]
        alphas = np.array(alphas, dtype=int).reshape(len(alphas), len(coords))
        rows = np.ones((len(alphas), x.shape[1]))
        for c, e in zip(coords, alphas.T):
            rows = rows * powers[c, e]
        return alphas, rows

    (head, U), (tail, V) = table(range(3)), table(range(3, n))
    got = (U * w) @ V.T
    shape = (len(head), len(tail))
    alpha = np.concatenate([np.broadcast_to(head[:, None, :], shape + head.shape[1:]),
                            np.broadcast_to(tail[None, :, :], shape + tail.shape[1:])], axis=2)
    g = np.array([math.gamma(0.5 * (e + 1)) for e in range(degree + 1)])
    G = np.array([math.gamma(0.5 * (d + n)) for d in range(n * degree + 1)])
    want = np.where(np.all(alpha % 2 == 0, axis=2),
                    2.0 * np.prod(g[alpha], axis=2) / G[alpha.sum(axis=2)], 0.0)
    return float(np.max(np.abs(got - want)[alpha.sum(axis=2) <= degree]))


# (n, N) pairs of at most half a million nodes
RULE_SIZES = [(n, N) for n in range(3, 7) for N in (2, 3, 6, 7, 12, 24, 48)
              if N ** (n - 2) * 2 * N <= 5 * 10 ** 5]

# the top rung of the order ladder in each dimension
TOP = {n: max(N for N in QUAD_ORDERS if 2 * N ** (n - 1) <= QUAD_MAX_NODES)
       for n in range(3, 7)}
# the first pair of the ladder, which every radius of a flux series runs
PAIR = list(QUAD_ORDERS[:2])

# (n, N) pairs for the moment oracle, whose power tables at degree 2N grow
# as the node count times the monomials in three coordinates: (6, 8) would
# take about half a gigabyte
EXACT_SIZES = [(n, N) for n in range(3, 7) for N in (2, 3, 4, 6, 8)
               if 2 * N ** (n - 1) <= 20_000]


def rungs_through(last):
    """The ladder's rungs from its first up to ``last``."""
    return list(QUAD_ORDERS[:QUAD_ORDERS.index(last) + 1])


def record_rules(monkeypatch):
    """List of (orders, flux, sum of absolute node terms) for every sphere
    rule a flux runs, in sample order."""
    runs = []
    inner = mass._sample

    def spy(chart, rules, integrand, measure):
        out = inner(chart, rules, integrand, measure)
        runs.extend((N,) + sums for (_, N), sums in zip(rules, out))
        return out

    monkeypatch.setattr(mass, "_sample", spy)
    return runs


def bundled_charts_n3():
    charts = []
    for name in bundled_names():
        cfg = load_config(name)
        charts += [cfg.chart] if cfg.chart is not None else [
            e.chart for e in cfg.system.ends]
    return [c for c in charts if c.n == 3]


class TestSphereRule:
    @pytest.mark.parametrize(
        "n,area",
        [
            (3, 4 * math.pi),
            (4, 2 * math.pi**2),
            (5, 8 * math.pi**2 / 3),
            (6, math.pi**3),
        ],
    )
    def test_unit_sphere_areas(self, n, area):
        _, w = _unit_rule(n, TOP[n])
        assert float(np.sum(w)) == pytest.approx(area, rel=1e-12)
        assert sphere_area(n, 1.0) == pytest.approx(area, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_flux_scales_the_unit_rule_by_its_radius(self, n):
        # the flux sample scales the unit rule itself: 1 integrates to the
        # area of S_r and |x|^2 to r^2 times it, on the ladder and on the
        # top rung alike
        r = 7.5
        c = flat_chart(n=n)

        def ones(Xc, nu):
            return np.stack([np.ones(Xc.shape[1]), np.sum(Xc * Xc, axis=0)])

        for orders in (None, TOP[n]):
            area, second = _flux(c, [r], ones, "euclidean", orders)[0]
            assert area == pytest.approx(sphere_area(n, r), rel=1e-12)
            assert second == pytest.approx(r ** 2 * sphere_area(n, r), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_polynomial_moments(self, n):
        # odd moments vanish, quadratic moments are area / n
        x, w = _unit_rule(n, TOP[n])
        area = sphere_area(n)
        for i in range(n):
            assert float(np.sum(w * x[i])) == pytest.approx(0.0, abs=1e-12 * area)
            assert float(np.sum(w * x[i] ** 2)) == pytest.approx(area / n, rel=1e-12)
        assert float(np.sum(w * x[0] * x[-1])) == pytest.approx(0.0, abs=1e-12 * area)

    @pytest.mark.parametrize("n,N", EXACT_SIZES, ids=[f"{N}-{n}" for n, N in EXACT_SIZES])
    def test_order_N_is_exact_through_degree_2N_minus_1(self, n, N):
        # exact through degree 2N - 1, and no further: x_n^(2N) is missed
        x, w = _unit_rule(n, N)
        assert moment_error(x, w, 2 * N - 1) <= 1e-13 * sphere_area(n)
        assert moment_error(x, w, 2 * N) > 1e-6 * sphere_area(n)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_theta_legendre_rule_fails_the_moment_oracle(self, n):
        # mutation: the earlier rule in the polar angles themselves
        x, w = theta_unit_rule(n, 6)
        assert moment_error(x, w, 11) > 1e-3

    @pytest.mark.parametrize("N", [2, 3, 6, 7, 12, 24, 48])
    def test_n3_rule_is_gauss_legendre_in_cos_theta_bitwise(self, N):
        # the n = 3 rule is composed bitwise from the a = 0 polar rule, and
        # that Golub-Welsch rule is Gauss-Legendre to rounding, not bitwise:
        # at N = 48, against 40-digit roots, its nodes are off by 4.4e-16
        # (leggauss, which takes a Newton step, 1.1e-16) and its weights by
        # 1.2e-13 relative (leggauss 1.3e-12)
        M = 2 * N
        phi = 2.0 * math.pi * np.arange(M) / M
        t, wt = _polar_rule(N, 0.0)
        st = np.sqrt(1.0 - t ** 2)
        x, w = _unit_rule(3, N)
        assert np.array_equal(x[0], (st[:, None] * np.cos(phi)[None, :]).ravel())
        assert np.array_equal(x[1], (st[:, None] * np.sin(phi)[None, :]).ravel())
        assert np.array_equal(x[2], np.repeat(t, M))
        assert np.array_equal(w, (wt[:, None] * np.full(M, 2.0 * math.pi / M)[None, :]).ravel())
        t_ref, wt_ref = np.polynomial.legendre.leggauss(N)
        np.testing.assert_allclose(t, t_ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wt, wt_ref, rtol=2e-12, atol=0.0)

    @pytest.mark.parametrize("n,N", RULE_SIZES)
    def test_node_count_is_2_N_to_the_n_minus_1(self, n, N):
        x, w = _unit_rule(n, N)
        assert x.shape == (n, 2 * N ** (n - 1)) and w.shape == (2 * N ** (n - 1),)

    @pytest.mark.parametrize("n,N", [(3, 1), (3, 0), (2, 4), (mass.FLUX_MAX_DIM + 1, 2)])
    def test_refuses_an_order_below_two_and_a_dimension_without_a_rule(self, n, N):
        # a refusal is not cached: it raises on every call
        for _ in range(2):
            with pytest.raises(ValueError):
                _unit_rule(n, N)

    @pytest.mark.parametrize("n,N", RULE_SIZES)
    def test_cached_rule_is_bitwise_the_rule_built_from_scratch(self, n, N):
        x_ref, w_ref = reference_unit_rule(n, N)
        x, w = _unit_rule(n, N)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert not x.flags.writeable and not w.flags.writeable


class TestFluxes:
    @pytest.mark.parametrize("flux", [adm_flux, lee_flux])
    @pytest.mark.parametrize("measure", ["euclidean", "g"])
    def test_non_finite_node_terms_name_their_radius(self, flux, measure):
        # log|r - 40| is -inf at the nodes of S_40 where r rounds to 40
        # exactly: the sample refuses that radius, not the series
        sing = "log(sqrt((r - 40)^2))/r^3"
        c = make_chart(n=3, tau=0.99, r_min=1.0, metric={"11": f"{ISO} + {sing}", "22": ISO,
                                                         "33": ISO},
                       lee=[f"-0.25*x1/r^3 + {sing}", "0", "0"])
        with pytest.raises(ChartError) as err:
            flux(c, [20.0, 40.0, 80.0, 160.0], measure)
        assert str(err.value) == ("radius 40.0 is singular: the chart evaluates "
                                  "to a non-finite value on that sphere")

    def test_probe_refuses_a_singular_sphere(self):
        # the axis points of S_30 lie exactly on the sphere where the Lee
        # form is singular; the metric alone is finite there
        c = make_chart(n=3, tau=0.99, r_min=1.0,
                       lee=["-0.25*x1/r^3 + log(sqrt((r - 30)^2))/r^3", "0", "0"])
        probe_radius(c, 30.0, lee=False)
        with pytest.raises(ChartError, match="radius 30.0 is singular"):
            probe_radius(c, 30.0, lee=True)

    def test_flat_fluxes_vanish_identically(self):
        c = flat_chart()
        for r in (5.0, 50.0):
            assert adm_flux(c, [r])[0] == 0.0
            assert lee_flux(c, [r])[0] == 0.0
            assert weyl_flux(c, [r])[0] == 0.0

    @pytest.mark.parametrize("r", [10.0, 40.0, 160.0])
    def test_isotropic_adm_closed_form(self, r):
        # the coordinate-sphere flux is 16 pi (1 + 1/(2r))^3 at every radius
        got = adm_flux(iso_chart(), [r], measure="euclidean")[0]
        want = 16 * math.pi * (1 + 1 / (2 * r)) ** 3
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [5.0, 20.0, 100.0])
    def test_radial_lee_flux_closed_form(self, r):
        # theta = -b x / r^3 integrates to -4 pi b on every sphere
        b = 0.25
        got = lee_flux(lee_chart(b), [r], measure="euclidean")[0]
        assert got == pytest.approx(-4 * math.pi * b, rel=1e-12)

    def test_rotational_lee_flux_vanishes(self):
        assert lee_flux(rot_lee_chart(), [25.0])[0] == pytest.approx(0.0, abs=1e-14)

    def test_weyl_flux_combines_both_terms(self):
        c = lee_chart(0.25)
        r = 30.0
        want = adm_flux(c, [r])[0] - 2 * 2 * lee_flux(c, [r])[0]  # 2 (n - 1) = 4
        assert weyl_flux(c, [r])[0] == pytest.approx(want, rel=1e-14)

    def test_measure_changes_the_answer(self):
        c = iso_chart()
        e = adm_flux(c, [20.0], measure="euclidean")[0]
        g = adm_flux(c, [20.0], measure="g")[0]
        assert g > e  # the metric sphere area element is larger here

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            adm_flux(iso_chart(), [20.0], measure="spherical")

    def test_adm_flux_reads_only_the_metric_derivatives(self, monkeypatch):
        # the integrand needs d_k g_ij alone: no jet inverse or determinant
        c = iso_chart()
        want = adm_flux(c, [20.0], measure="g")[0]

        def forbidden(*args):
            raise AssertionError("adm_flux built a jet inverse or determinant")

        monkeypatch.setattr(jetlinalg, "mat_inv", forbidden)
        monkeypatch.setattr(jetlinalg, "mat_det", forbidden)
        assert adm_flux(c, [20.0], measure="g")[0] == want

    def test_radius_below_validity_rejected(self):
        c = flat_chart(r_min=4.0)
        with pytest.raises(ValueError):
            adm_flux(c, [7.9])

    def test_gradient_flux_closed_form(self):
        # f = 1 + 1/r on the flat chart: df(nu) = -1/r^2, flux = -4 pi, and
        # (df/f)(nu) = -1/(r^2 f), flux = -4 pi / f(r)
        c = flat_chart()
        df, df_over_f = gradient_flux(c, exprdsl.parse("1 + 1/r"), [12.0])
        assert df[0] == pytest.approx(-4 * math.pi, rel=1e-12)
        assert df_over_f[0] == pytest.approx(-4 * math.pi / (1 + 1 / 12), rel=1e-12)

    def test_witten_flux_flat_exact_lee(self):
        # flat metric, theta = -x/r^3 (so m_riem = 0, lee limit = -4 pi):
        # the spinor flux for a unit constant spinor is exactly
        # (1/4) (0 - 2 (n-1) (-4 pi)) = 4 pi at every radius
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={},
            lee=["-x1/r^3", "-x2/r^3", "-x3/r^3"],
        )
        spec = make_spinor_spec([("1", "0"), ("0", "0")])
        for r in (6.0, 24.0, 96.0):
            w = witten_flux(c, [spec], [r])[0, 0]
            assert w.real == pytest.approx(4 * math.pi, rel=1e-12)
            assert abs(w.imag) <= 1e-12


    def test_witten_flux_of_several_specs_matches_single_calls_bitwise(self):
        c = lee_chart()
        specs = [
            make_spinor_spec([("1", "0"), ("0", "0")]),
            make_spinor_spec([("0.6", "0"), ("0", "0.8")]),
            make_spinor_spec([("1 + x1/r", "x2/r^2"), ("0.5", "-x3/r")]),
        ]
        # 16 Gauss nodes give 512 sphere nodes: two chunks
        together = list(witten_flux(c, specs, [20.0], orders=16)[0])
        alone = [witten_flux(c, [s], [20.0], orders=16)[0, 0] for s in specs]
        assert isinstance(together, list) and isinstance(alone[0], complex)
        assert [(w.real, w.imag) for w in together] == [(w.real, w.imag) for w in alone]


class TestAreaFactor:
    """The g-measure area factor sqrt(det G * x^t G^-1 x^)."""

    @staticmethod
    def mixed_chart(n):
        """A chart whose metric is far from isotropic and couples every axis."""
        metric = {f"{i}{i}": f"1 + 2*(1 + 0.5*x{i}/r)/r^{n - 2}" for i in range(1, n + 1)}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            metric[f"{i}{j}"] = f"0.8*x{i}*x{j}/r^{n}"
        return make_chart(n=n, tau=n - 2.1, r_min=1.0, metric=metric)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_column_of_a_chunk_equals_the_column_alone(self, n):
        c = self.mixed_chart(n)
        rng = np.random.Generator(np.random.PCG64(n))
        d = rng.normal(size=(n, util.CHUNK))
        X = d / np.sqrt(np.sum(d * d, axis=0)) * rng.uniform(2.0, 40.0, size=util.CHUNK)
        nu, fac = mass._measure_factors(c, X, "g")
        for b in range(util.CHUNK):
            nu_b, fac_b = mass._measure_factors(c, X[:, b:b + 1], "g")
            assert np.array_equal(bits(nu[:, b:b + 1]), bits(nu_b))
            assert np.array_equal(bits(fac[b:b + 1]), bits(fac_b))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_factor_equals_the_induced_density_on_a_tangent_basis(self, n):
        # a constant random SPD metric; the reference takes det(T^t G T)
        # over an orthonormal basis T of the complement of x^ from QR
        rng = np.random.Generator(np.random.PCG64(10 + n))
        for _ in range(4):
            A = rng.normal(size=(n, n))
            G = A @ A.T + 0.5 * np.eye(n)
            c = make_chart(n=n, tau=n - 2.1, r_min=1.0,
                           metric={f"{i + 1}{j + 1}": repr(float(G[i, j]))
                                   for i in range(n) for j in range(i, n)})
            d = rng.normal(size=(n, 32))
            X = 7.0 * d / np.sqrt(np.sum(d * d, axis=0))
            _, fac = mass._measure_factors(c, X, "g")
            for b in range(X.shape[1]):
                xhat = X[:, b] / 7.0
                Q, _ = np.linalg.qr(np.column_stack([xhat, rng.normal(size=(n, n - 1))]))
                T = Q[:, 1:]
                want = math.sqrt(np.linalg.det(T.T @ G @ T))
                assert fac[b] == pytest.approx(want, rel=1e-14)


class TestCoarsePair:
    """The first pair of the order ladder, (4, 6), and what follows it."""

    def test_stress_chart_runs_the_top_order_bitwise(self, monkeypatch):
        # the first pair fails; the euclidean fluxes climb to the first pair
        # that agrees, (16, 24), and the g fluxes to the top rung, 48, where
        # no pair agrees; each returns the value of its last rule bitwise
        c = stress_chart()
        got = {}
        with monkeypatch.context() as m:
            runs = record_rules(m)
            for measure, last in (("euclidean", 24), ("g", 48)):
                for fn in (adm_flux, lee_flux):
                    del runs[:]
                    got[fn, measure, last] = value = fn(c, [20.0], measure)[0]
                    assert [o for o, *_ in runs] == rungs_through(last)
                    assert abs(runs[1][1] - value) > QUAD_RTOL * abs(value)
        for (fn, measure, last), value in got.items():
            assert value == fn(c, [20.0], measure, orders=last)[0]

    def test_one_failing_column_sends_every_spinor_to_the_top_order(self, monkeypatch):
        # the zero spinor's flux agrees at the first pair; the constant
        # one's does not, and the whole shared sample climbs the ladder
        c = stress_chart()
        specs = [make_spinor_spec([("0", "0"), ("0", "0")]),
                 make_spinor_spec([("1", "0"), ("0", "0")])]
        with monkeypatch.context() as m:
            runs = record_rules(m)
            witten_flux(c, specs[:1], [20.0])
            assert [o for o, *_ in runs] == PAIR
            del runs[:]
            got = witten_flux(c, specs, [20.0])[0].tolist()
            orders = [o for o, *_ in runs]
            assert orders == list(QUAD_ORDERS[:len(orders)]) and len(orders) > 2
        assert got == witten_flux(c, specs, [20.0], orders=orders[-1])[0].tolist()

    @pytest.mark.parametrize("measure", ["euclidean", "g"])
    def test_bundled_charts_pass_within_the_stated_tolerance(self, monkeypatch, measure):
        charts = bundled_charts_n3()
        got = []
        with monkeypatch.context() as m:
            runs = record_rules(m)
            for c in charts:
                r = default_radii(c)[0]
                for fn in (adm_flux, lee_flux):
                    del runs[:]
                    value = fn(c, [r], measure)[0]
                    assert [o for o, *_ in runs] == PAIR
                    got.append((value, float(runs[1][2])))
        want = [fn(c, default_radii(c)[:1], measure, orders=48)[0]
                for c in charts for fn in (adm_flux, lee_flux)]
        for (value, scale), top in zip(got, want):
            assert abs(value - top) <= QUAD_RTOL * scale + QUAD_ATOL

    def test_bundled_witten_fluxes_pass_within_the_stated_tolerance(self, monkeypatch):
        cfg = load_config("schwarzschild-lee")
        specs = [spec for _, spec in cfg.spinors]
        with monkeypatch.context() as m:
            runs = record_rules(m)
            got = witten_flux(cfg.chart, specs, [20.0])[0]
            assert [o for o, *_ in runs] == PAIR
            scale = runs[1][2]
        want = witten_flux(cfg.chart, specs, [20.0], orders=48)[0]
        for value, top, sc in zip(got, want, scale):
            assert abs(value - top) <= QUAD_RTOL * sc + QUAD_ATOL

    def test_vanishing_integrand_passes_on_the_absolute_floor(self, monkeypatch):
        # theta(nu) is zero at every node up to rounding, so no relative
        # test can pass; the absolute floor accepts the pair
        runs = record_rules(monkeypatch)
        value = lee_flux(rot_lee_chart(), [20.0])[0]
        assert [o for o, *_ in runs] == PAIR
        (_, lo, _), (_, hi, scale) = runs
        assert abs(hi - lo) > QUAD_RTOL * float(scale)
        assert abs(value) <= QUAD_ATOL

    @pytest.mark.parametrize("orders", [2, 6, 9, 12])
    def test_orders_up_to_the_pair_run_alone(self, monkeypatch, orders):
        c = stress_chart()
        runs = record_rules(monkeypatch)
        got = adm_flux(c, [20.0], "g", orders=orders)[0]
        assert [o for o, *_ in runs] == [orders]
        assert got == runs[0][1]

    @pytest.mark.parametrize("orders", [16, 48])
    def test_orders_above_the_pair_run_alone(self, monkeypatch, orders):
        c = stress_chart()
        runs = record_rules(monkeypatch)
        got = lee_flux(c, [20.0], "g", orders=orders)[0]
        assert [o for o, *_ in runs] == [orders]
        assert got == runs[0][1]

    def test_n5_and_n6_fluxes_check_the_coarse_pair(self, monkeypatch):
        # n = 5 and 6 once ran order 12 alone; the radial Lee flux, a
        # constant on the sphere, now stops at the agreeing first pair
        runs = record_rules(monkeypatch)
        for n in (5, 6):
            del runs[:]
            c = flat_chart(n=n, lee=[f"-x{i}/r^{n}" for i in range(1, n + 1)])
            assert lee_flux(c, [20.0])[0] == pytest.approx(-sphere_area(n), rel=1e-14)
            assert [o for o, *_ in runs] == PAIR

    @pytest.mark.parametrize("width", [32, 4096])
    def test_flux_bits_do_not_depend_on_the_chunk_width(self, monkeypatch, width):
        stress, lee = stress_chart(), lee_chart()
        spec = make_spinor_spec([("0.6", "0"), ("0", "0.8")])

        def fluxes():
            return [adm_flux(stress, [20.0], "g", orders=24)[0],
                    lee_flux(stress, [20.0], orders=24)[0],
                    adm_flux(lee, [20.0], "g")[0], lee_flux(lee, [20.0])[0],
                    witten_flux(lee, [spec], [20.0])[0, 0]]

        want = fluxes()
        monkeypatch.setattr(util, "CHUNK", width)
        assert fluxes() == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_flux_bits_do_not_depend_on_the_chunk_width_in_higher_dimensions(
            self, monkeypatch, n):
        # the spinor layer sums indices inside np.einsum, whose grouping may
        # follow the batch shape; the nodes of one rule in chunks of 1, 7
        # and all at once must give the same bits
        base = f"1 + 1/(2*r^{n - 2})"
        iso = f"pow({base}, 4/{n - 2})"
        metric = {f"{i}{i}": iso for i in range(1, n + 1)}
        metric["12"] = f"0.3*x1*x2/r^{n + 2}"
        c = flat_chart(n=n, metric=metric,
                       lee=[f"-0.2*x1/r^{n} - 0.1*x2/r^{n}", f"0.1*x1/r^{n}"]
                       + [f"-0.2*x{i}/r^{n}" for i in range(3, n + 1)])
        N = 2 ** (n // 2)
        comps = [(f"{0.1 * (a + 1)} + x{a % n + 1}/r", f"x{(a + 1) % n + 1}*x1/r^2")
                 for a in range(N)]
        specs = [make_spinor_spec(comps),
                 make_spinor_spec([("0.6", "0")] + [("0", "0.8")] * (N - 1))]

        def fluxes():
            return [adm_flux(c, [20.0], "g", orders=3)[0],
                    witten_flux(c, specs, [20.0], orders=3).tolist()]

        got = []
        for width in (4096, 7, 1):
            monkeypatch.setattr(util, "CHUNK", width)
            got.append(fluxes())
        assert got[1] == got[0]
        assert got[2] == got[0]


class TestLadder:
    def test_the_node_budget_sets_the_top_rung(self):
        assert TOP == {3: 48, 4: 48, 5: 24, 6: 12}

    def test_n5_climbs_past_the_second_pair(self, monkeypatch):
        # a degree-30 monomial is exact from order 16 on: every pair up to
        # (12, 16) disagrees, (16, 24) agrees, and order 24 is returned
        c = flat_chart(n=5)
        alpha = (10, 0, 10, 0, 10)

        def integrand(Xc, nu):
            return np.prod(nu ** np.array(alpha)[:, None], axis=0)

        runs = record_rules(monkeypatch)
        got = _flux(c, [2.0], integrand, "euclidean", None)[0]
        assert [o for o, *_ in runs] == rungs_through(24)
        for (_, lo, _), (_, hi, scale) in zip(runs[:-2], runs[1:-1]):
            assert abs(hi - lo) > QUAD_RTOL * float(scale) + QUAD_ATOL
        assert got == runs[-1][1]
        want = 2.0 ** 4 * 2.0 * math.gamma(5.5) ** 3 * math.gamma(0.5) ** 2 / math.gamma(17.5)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_no_agreeing_pair_returns_the_top_rung(self, monkeypatch, n):
        # |x_n| has a kink on the equator, so no pair agrees
        c = flat_chart(n=n)
        runs = record_rules(monkeypatch)
        got = _flux(c, [2.0], lambda Xc, nu: np.abs(nu[n - 1]), "euclidean", None)[0]
        assert [o for o, *_ in runs] == [N for N in QUAD_ORDERS if N <= TOP[n]]
        assert got == runs[-1][1]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_harmonic_aliased_by_both_coarse_azimuth_grids_climbs(self, monkeypatch, n):
        # Re((x1 + i x2)/r)^24 = S^24 cos(24 phi) integrates to 0 on every
        # sphere (a harmonic of degree 24), and cos 24 phi reads 1 at every
        # node of the 8- and the 12-node azimuth grids of (4, 6); only
        # their polar rules tell them apart, and they must.  Orders from 13
        # on are exact, so n = 3..5 stop at (16, 24) with 0; n = 6 tops out
        # at order 12, which still aliases, and returns that rung unchecked.
        c = flat_chart(n=n)
        runs = record_rules(monkeypatch)
        got = _flux(c, [2.0], lambda Xc, nu: ((nu[0] + 1j * nu[1]) ** 24).real,
                    "euclidean", None)[0]
        (_, lo, _), (_, hi, scale) = runs[:2]
        assert PAIR == [4, 6]
        assert abs(hi - lo) > QUAD_RTOL * float(scale) + QUAD_ATOL
        assert got == runs[-1][1]
        if TOP[n] > 12:
            assert [o for o, *_ in runs] == rungs_through(24)
            assert abs(got) <= QUAD_RTOL * float(runs[-1][2]) + QUAD_ATOL
        else:
            assert [o for o, *_ in runs] == rungs_through(TOP[n])
            assert abs(got) > 1.0


def bits(values) -> np.ndarray:
    """The raw 64-bit words of a real or complex array, for bitwise checks."""
    a = np.asarray(values)
    return np.ascontiguousarray(a, dtype=np.result_type(a.dtype, np.float64)).view(np.uint64)


def two_spinors(n):
    N = 2 ** (n // 2)
    rest = [("0", "0")] * (N - 2)
    return [make_spinor_spec([("1 + x1/r", "x2/r^2"), ("0.5", "-x3/r")] + rest),
            make_spinor_spec([("0.6", "0"), ("0", "0.8")] + rest)]


# on perturbed4 in the g measure r = 20 climbs to order 12 and r = 1000
# stops at the first pair; on the stress chart both climb, to different
# rungs for the spinor flux
SERIES_RADII = (20.0, 1000.0)
SERIES_FLUXES = {
    "adm": lambda c, radii, m: adm_flux(c, radii, m),
    "lee": lambda c, radii, m: lee_flux(c, radii, m),
    "gradient": lambda c, radii, m: gradient_flux(c, "1 + 1/sqrt(r^2 + 1)", radii, m)[0],
    "gradient_over_f": lambda c, radii, m: gradient_flux(c, "1 + 1/sqrt(r^2 + 1)", radii, m)[1],
    "weyl": lambda c, radii, m: weyl_flux(c, radii, m),
    "witten": lambda c, radii, m: witten_flux(c, two_spinors(c.n), radii, m),
}


class TestChunks:
    @pytest.mark.parametrize("count, width, want", [
        (416, 256, [(0, 208), (208, 416)]),
        (10, 4, [(0, 4), (4, 8), (8, 10)]),
        (256, 256, [(0, 256)]),
        (257, 256, [(0, 129), (129, 257)]),
        (3, 1, [(0, 1), (1, 2), (2, 3)]),
    ])
    def test_fewest_chunks_of_equal_width_but_for_the_last(self, count, width, want):
        assert util.chunked_map(lambda a, b: (a, b), count, width) == want

    def test_every_count_and_width(self):
        for width in range(1, 30):
            for count in range(1, 200):
                cuts = util.chunked_map(lambda a, b: (a, b), count, width)
                sizes = [b - a for a, b in cuts]
                assert len(cuts) == -(-count // width)
                assert [a for a, _ in cuts] == [0] + [b for _, b in cuts[:-1]]
                assert cuts[-1][1] == count
                assert max(sizes) <= width
                assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]

    def test_a_count_of_zero_makes_no_call(self):
        def fn(a, b):
            raise AssertionError("called")

        assert util.chunked_map(fn, 0, 256) == []

    @pytest.mark.parametrize("measure", ["euclidean", "g"])
    def test_each_rule_sums_its_node_terms_with_numpy_bitwise(self, monkeypatch, measure):
        # one real and one complex row over 2 N^2 = 1152 nodes, five chunks
        # of at most util.CHUNK; the flux and its scale are numpy's sums of
        # the node terms of the whole rule, row by row
        c, N, r = stress_chart(), 24, 20.0

        def integrand(Xc, nu):
            return np.stack([nu[0] ** 2 * np.exp(nu[1]), (nu[2] + 1j * nu[0]) ** 3])

        runs = record_rules(monkeypatch)
        got = _flux(c, [r], integrand, measure, N)[0]
        x, w = _unit_rule(3, N)
        nu, fac = _measure_factors(c, r * x, measure)
        terms = integrand(r * x, nu) * fac * (r ** 2 * w)
        assert w.size > 4 * util.CHUNK
        assert np.array_equal(bits(got), bits([terms[0].sum(), terms[1].sum()]))
        assert np.array_equal(bits(runs[0][2]), bits(np.abs(terms).sum(axis=-1)))
        # and within a few roundings of the exactly rounded sum
        exact = [math.fsum(terms[0].real), complex(math.fsum(terms[1].real),
                                                   math.fsum(terms[1].imag))]
        assert np.all(np.abs(got - exact) <= 16 * np.finfo(float).eps * runs[0][2])


class TestFluxSeries:
    """A flux series runs one sample per ladder rung for all its radii."""

    @pytest.mark.parametrize("kind", sorted(SERIES_FLUXES))
    @pytest.mark.parametrize("measure", ["euclidean", "g"])
    @pytest.mark.parametrize("chart", ["perturbed4", "stress"])
    def test_series_equals_single_radius_calls_bitwise(self, chart, measure, kind):
        c = stress_chart() if chart == "stress" else load_config(chart).chart
        fn = SERIES_FLUXES[kind]
        series = fn(c, SERIES_RADII, measure)
        alone = [fn(c, [r], measure)[0] for r in SERIES_RADII]
        assert len(series) == len(SERIES_RADII)
        assert np.array_equal(bits(series), bits(alone))

    def test_first_sample_holds_the_pair_at_every_radius(self, monkeypatch):
        c = load_config("perturbed4").chart
        runs = record_rules(monkeypatch)
        got = lee_flux(c, SERIES_RADII, "g")
        # the pair at both radii, then the next rungs at r = 20 alone
        orders = [o for o, *_ in runs]
        assert orders == PAIR * 2 + rungs_through(orders[-1])[2:] and len(orders) > 4
        assert got == (runs[-1][1], runs[3][1])
        want = lee_flux(c, SERIES_RADII, "g", orders=48)
        for value, top, scale in zip(got, want, (runs[-1][2], runs[3][2])):
            assert abs(value - top) <= QUAD_RTOL * float(scale) + QUAD_ATOL

    def test_open_radii_share_each_later_sample(self, monkeypatch):
        c = stress_chart()
        samples = []
        inner = mass._sample

        def spy(chart, rules, integrand, measure):
            samples.append(list(rules))
            return inner(chart, rules, integrand, measure)

        monkeypatch.setattr(mass, "_sample", spy)
        adm_flux(c, SERIES_RADII, "euclidean")
        # both radii climb to (16, 24) in step
        assert samples == [[(r, N) for r in SERIES_RADII for N in PAIR]] + [
            [(r, N) for r in SERIES_RADII] for N in rungs_through(24)[2:]]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_stacked_spinors_equal_one_spinor_calls_bitwise(self, n):
        iso = f"pow(1 + 0.7/(2*r^{n - 2}), {4 / (n - 2)})"
        metric = {f"{i}{i}": iso for i in range(1, n + 1)}
        metric["12"] = f"0.3*x1*x2/r^{n + 2}"
        lee = [f"-0.2*x{i}/r^{n} + 0.1*x{i % n + 1}/r^{n}" for i in range(1, n + 1)]
        c = make_chart(n=n, tau=n - 2.1, r_min=1.0, metric=metric, lee=lee)
        specs = two_spinors(n) + [make_spinor_spec([("0", "x1/r")] * 2 ** (n // 2))]
        for measure in ("euclidean", "g"):
            together = witten_flux(c, specs, [20.0, 50.0], measure, orders=2)
            alone = np.stack([witten_flux(c, [s], [20.0, 50.0], measure, orders=2)[:, 0]
                              for s in specs], axis=1)
            assert together.shape == (2, len(specs))
            assert np.array_equal(bits(together), bits(alone))

    def test_four_radii_of_spinor_fluxes_share_the_chunks_of_one_sample(
            self, monkeypatch, lee_cfg):
        # 4 x (32 + 72) = 416 nodes of the pair in the fewest chunks of
        # at most 256, cut equal: [208, 208], where one call per radius
        # took one chunk each
        calls = []
        inner = mass._measure_factors

        def spy(chart, X, measure):
            calls.append(X.shape[1])
            return inner(chart, X, measure)

        monkeypatch.setattr(mass, "_measure_factors", spy)
        chart = lee_cfg.chart
        got = witten_flux(chart, [spec for _, spec in lee_cfg.spinors], default_radii(chart))
        assert got.shape == (4, len(lee_cfg.spinors))
        assert 4 * sum(2 * N ** (chart.n - 1) for N in PAIR) == 416
        assert util.CHUNK == 256
        assert calls == [208, 208]

    def test_peak_memory_does_not_grow_with_the_radius_count(self):
        import tracemalloc

        c = flat_chart(n=5, lee=[f"-x{i}/r^5" for i in range(1, 6)])
        lee_flux(c, [20.0], orders=16)  # warm the unit-rule cache

        def peak(radii):
            tracemalloc.start()
            try:
                lee_flux(c, radii, orders=16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([20.0])
        assert peak([20.0, 40.0, 80.0]) <= 1.1 * one


class TestExtrapolate:
    def test_exact_power_law_recovered(self):
        radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        vals = 5.0 + 3.0 * radii**-1.5
        out = extrapolate(radii, vals, 4)
        assert out.limit == pytest.approx(5.0, abs=1e-6)
        assert out.p == pytest.approx(1.5, abs=1e-3)
        assert abs(out.limit - 5.0) <= out.error + 1e-12

    def test_constant_series_short_circuits(self):
        radii = [10.0, 20.0, 40.0, 80.0]
        out = extrapolate(radii, [2.5] * 4, 4)
        assert out.limit == 2.5
        assert out.error == 0.0

    def test_error_covers_contaminated_series(self):
        # a two-term tail: the estimate must bracket the true limit
        radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        vals = 1.0 + 4.0 / radii + 25.0 / radii**2
        out = extrapolate(radii, vals, 4)
        assert abs(out.limit - 1.0) <= out.error

    @pytest.mark.parametrize("scale", [2.0 ** -664, 1.0, 2.0 ** 664])
    def test_limit_does_not_depend_on_the_length_unit(self, scale):
        # one series with its radii times 1e-30, 1 and 1e30 and its values
        # times about 1e-200, 1 and 1e200: raw r^-p would swamp the
        # constant column in the first unit and underflow to 0 in the
        # last, and squared raw values would underflow or overflow.  The
        # value scales are powers of two, which scale the fit exactly (a
        # decimal one rounds every value, and the error bar, a difference
        # of nearby limits, moves by about 5e-9 of itself)
        radii = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
        vals = 50.0 - 30.0 / radii + 40.0 / radii ** 2
        ref = extrapolate(radii, vals, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [extrapolate(unit * radii, scale * vals, 3) for unit in (1e-30, 1.0, 1e30)]
        assert got[1] == (scale * ref.limit, scale * ref.error, ref.p)
        for out in got:
            assert out.limit == pytest.approx(scale * ref.limit, rel=1e-12)
            assert out.error == pytest.approx(scale * ref.error, rel=1e-6)
        assert ref.limit == pytest.approx(50.0, abs=ref.error)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_series_is_refused(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            extrapolate([10.0, 20.0, 40.0, 80.0], [1.0, 1.1, bad, 1.2], 4)

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            extrapolate([10.0, 20.0, 40.0], [1.0, 1.1, 1.2], 4)

    def test_needs_spread_radii(self):
        with pytest.raises(ValueError):
            extrapolate([10.0, 11.0, 12.0, 13.0], [1.0, 1.1, 1.2, 1.25], 4)

    def test_degenerate_fit_carries_a_positive_bar(self):
        # alternating noise around a constant defeats the power fit: the
        # fit still ends, and its error bar says the limit is uncertain
        radii = [10.0, 20.0, 40.0, 80.0]
        vals = [1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-3]
        out = extrapolate(radii, vals, 4)
        assert out.error > 0.0


class TestGridPassSearch:
    def test_minimum_inside_the_bracket(self):
        best = _best_exponent(lambda ps: (np.reshape(ps, -1) - 1.2345) ** 2, 0.3, 8.0)
        assert best == pytest.approx(1.2345, abs=1e-9)

    @pytest.mark.parametrize("hi", [6.0, 12.0])
    def test_search_takes_at_most_eight_array_passes(self, hi):
        # the grid and its refining passes are whole arrays of p: a search
        # that evaluates one p at a time needs dozens of calls
        calls = []

        def resid(ps):
            calls.append(np.size(ps))
            return np.abs(np.reshape(ps, -1) - 3.3)

        best = _best_exponent(resid, 0.3, hi)
        assert abs(best - 3.3) <= P_XTOL
        assert len(calls) <= 8
        assert min(calls) > 1

    @pytest.mark.parametrize("slope, edge", [(1.0, 0.3), (-1.0, 8.0)])
    def test_minimum_at_a_bracket_edge_returns_the_edge(self, slope, edge):
        # a monotone residual: no interior point fits better than the edge
        best = _best_exponent(lambda ps: slope * np.reshape(ps, -1), 0.3, 8.0)
        assert best == edge

    def test_non_finite_residuals_fall_back_to_the_grid(self):
        grid = np.linspace(0.3, 8.0, 64)

        def grid_only(ps):
            ps = np.reshape(ps, -1)
            finite = np.isin(ps, grid)
            return np.where(finite, (ps - 2.0) ** 2, np.nan)

        best = _best_exponent(grid_only, 0.3, 8.0)
        assert best == grid[np.argmin((grid - 2.0) ** 2)]
        assert _best_exponent(lambda ps: np.full(np.size(ps), np.nan), 0.3, 8.0) == 0.3

    def test_repeated_calls_are_bitwise_equal(self):
        radii = [20.0, 40.0, 80.0, 160.0]
        vals = [50.27 + 77.0 / r + 30.0 / r ** 2 for r in radii]
        a = extrapolate(radii, vals, 3)
        b = extrapolate(radii, vals, 3)
        assert a == b
        assert type(a.p) is float


class TestMassFunctionals:
    def test_flat_mass_is_exactly_zero(self):
        rep = riemannian_mass(flat_chart())
        assert rep.limit == 0.0
        assert rep.error == 0.0
        assert not rep.warnings

    def test_isotropic_mass(self):
        rep = riemannian_mass(iso_chart())
        assert rep.limit == pytest.approx(16 * math.pi, rel=1e-3)
        assert abs(rep.limit - 16 * math.pi) <= rep.error  # honest bar
        assert rep.kind == "riemannian"

    def test_converging_series_carries_no_warning(self):
        assert riemannian_mass(iso_chart()).warnings == ()
        assert weyl_mass(lee_chart()).warnings == ()

    def test_growing_flux_series_is_flagged(self):
        # g = (1 + r^-0.75) delta: the ADM flux grows like r^0.25
        g = "1 + pow(r, -0.75)"
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": g, "22": g, "33": g})
        for rep in (riemannian_mass(c), weyl_mass(c)):
            assert np.all(np.diff(rep.flux) > 0)
            assert DIVERGENCE_WARNING in rep.warnings

    def test_isotropic_mass_normalized(self):
        rep = riemannian_mass(iso_chart(), normalize="adm")
        assert rep.limit == pytest.approx(1.0, rel=1e-3)
        assert rep.normalize == "adm"

    def test_default_radii_scale_with_r_min(self):
        c = flat_chart(r_min=2.0)
        radii = default_radii(c)
        assert len(radii) >= 4
        assert radii[0] == pytest.approx(40.0)
        assert radii[1] / radii[0] == pytest.approx(2.0)

    def test_weyl_mass_flat_chart(self):
        rep = weyl_mass(flat_chart())
        assert rep.limit == 0.0
        assert rep.kind == "weyl"

    def test_weyl_mass_adds_lee_contribution(self):
        # m(D) = m_riem - 2 (n-1) lim lee flux = 16 pi + 4 * 4 pi b
        b = 0.25
        rep = weyl_mass(lee_chart(b))
        want = 16 * math.pi * (1 + b)
        assert rep.limit == pytest.approx(want, rel=1e-3)
        assert rep.components["riemannian"] == pytest.approx(16 * math.pi, rel=1e-3)
        # the stored lee component is its mass contribution -2 (n-1) * limit
        assert rep.components["lee"] == pytest.approx(16 * math.pi * b, rel=1e-6)

    def test_weyl_mass_accepts_end_systems(self):
        c = iso_chart()
        sys = EndSystem(ends=(End(chart=c, a=1.0), End(chart=c, a=4.0)))
        rep = weyl_mass(sys)
        # total = sum_l a_l^{(n-2)/2} m_l = (1 + 2) * 16 pi
        assert rep.limit == pytest.approx(48 * math.pi, rel=1e-3)
        ends = rep.components["ends"]
        assert len(ends) == 2
        assert ends[1]["a"] == 4.0
        assert ends[0]["total"] == pytest.approx(16 * math.pi, rel=1e-3)

    def test_csv_rows(self):
        rep = riemannian_mass(iso_chart())
        rows = rep.csv_rows(iso_chart())
        assert len(rows) == len(rep.radii)
        r0, flux0, cum0 = rows[0]
        assert r0 == rep.radii[0]
        # once four samples are in, the running column extrapolates through
        # the report's own fit, so on the whole raw series it is the limit
        assert rows[-1][2] == rep.limit


class TestTwoPathMassAgreement:
    @staticmethod
    def masses(chart, f, **kw):
        """The raw metric masses of ``chart`` and of its rescaling by f."""
        return (riemannian_mass(chart, **kw),
                riemannian_mass(conformal_rescale(chart, f), **kw))

    def test_conformal_change_moves_mass_by_gradient_flux(self):
        # path A: mass of the rescaled chart; path B: base mass plus the
        # first-order correction through the gradient flux limit
        chart = iso_chart()
        f = exprdsl.parse("1 + 1/sqrt(r^2 + 1)")
        out = two_path_mass_delta(chart, f, *self.masses(chart, f))
        assert out["rel_delta"] <= 5e-3
        fe = out["flux_equality"]
        assert abs(fe["diff"]) <= fe["budget"]

    def test_flat_chart_rescaling(self):
        chart = flat_chart()
        f = exprdsl.parse("1 + 0.3/sqrt(r^2 + 1)")
        out = two_path_mass_delta(chart, f, *self.masses(chart, f))
        assert out["rel_delta"] <= 5e-3


class TestReusedMetricMass:
    @pytest.mark.parametrize("kw", [
        {"radii": (30.0, 60.0, 120.0, 240.0)},
        {"measure": "g"},
    ])
    def test_mismatched_metric_mass_is_rejected(self, kw):
        # two_path_mass_delta reuses the metric masses it is handed; one
        # taken off the radii or measure of the other is refused
        chart = flat_chart()
        f = "1 + 0.3/sqrt(r^2 + 1)"
        base = riemannian_mass(chart)
        path_a = riemannian_mass(conformal_rescale(chart, f), **kw)
        with pytest.raises(ValueError):
            two_path_mass_delta(chart, f, base, path_a)
        with pytest.raises(ValueError):
            two_path_mass_delta(chart, f, riemannian_mass(chart, **kw),
                                riemannian_mass(conformal_rescale(chart, f)))


class TestMetricMassOfWeylMass:
    def test_chart_report_carries_its_metric_mass_bitwise(self):
        chart = lee_chart()
        rep = weyl_mass(chart, radii=(20.0, 40.0, 80.0, 160.0), measure="g")
        assert rep.metric == (riemannian_mass(chart, radii=(20.0, 40.0, 80.0, 160.0),
                                              measure="g"),)

    def test_end_system_report_carries_one_metric_mass_per_end(self):
        system = load_config("twoends").system
        rep = weyl_mass(system, normalize="adm")
        assert len(rep.metric) == len(system.ends) == 2
        for k, end in enumerate(system.ends):
            assert rep.metric[k] == riemannian_mass(end.chart)
            assert rep.metric[k].normalize == "raw"
