"""J_0, its zeros, and the disk eigenpairs, against independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import tmb
from tmb import bessel
from tmb.bessel import Eigenpair, _j01, eigenpairs, j0, j0_zero

T1 = 2.404825557695773
T2 = 5.520078110286311
LAMBDA1 = 5.783185962946785
J0_AT_1 = 0.7651976865579666


def series_j0_oracle(x, dps=40):
    """Independent power-series evaluation in extended precision."""
    with mp.workdps(dps):
        q = mp.mpf(x) / 2
        total = mp.mpf(1)
        term = mp.mpf(1)
        j = 0
        while True:
            j += 1
            term *= -(q * q) / (j * j)
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) and j > 5:
                return total


def bisect_series_zero(lo, hi, iters=120):
    with mp.workdps(40):
        flo = series_j0_oracle(lo)
        for _ in range(iters):
            mid = (lo + hi) / 2
            fm = series_j0_oracle(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return float((lo + hi) / 2)


class TestJ0:
    def test_at_zero(self):
        assert j0(0.0) == 1.0

    def test_frozen_unit_value(self):
        assert j0(1.0) == pytest.approx(J0_AT_1, abs=1e-15)

    @pytest.mark.parametrize("r", [0.5, 2.0, 4.0, 7.9, 8.1, 12.0, 25.0, 50.0])
    def test_against_mpmath(self, r):
        with mp.workdps(30):
            ref = float(mp.besselj(0, r))
        assert j0(r) == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("r", [0.7, 3.3, 9.5])
    def test_even(self, r):
        assert j0(-r) == j0(r)

    @pytest.mark.parametrize("r", [0.5, 3.0, 7.0, 11.0, 30.0])
    def test_derivative(self, r):
        # J_0' = -J_1, with J_1 the value j0_zero's Newton step reads
        with mp.workdps(30):
            ref = float(mp.besselj(1, r))
        assert _j01(r)[1] == pytest.approx(ref, abs=1e-13)

    def test_dense_against_mpmath(self):
        # every 0.1 on [0, 70] (past t_20 ~ 62), plus the x < 1e-8 short form
        xs = [j * 0.1 for j in range(701)] + [1e-300, 1e-20]
        with mp.workdps(30):
            for x in xs:
                assert abs(j0(x) - float(mp.besselj(0, x))) <= 1e-15, x
                assert abs(_j01(x)[1] - float(mp.besselj(1, x))) <= 1e-15, x

    def test_unscaled_recurrence_at_its_peak(self):
        # x = 1e-8 is the smallest argument the recurrence sees, where its
        # unnormalised values peak (1.4e146): nothing overflows or underflows
        x = 1e-8
        with mp.workdps(30):
            j0_ref, j1_ref = float(mp.besselj(0, x)), float(mp.besselj(1, x))
        assert j0(x) == pytest.approx(j0_ref, rel=1e-15)
        assert _j01(x)[1] == pytest.approx(j1_ref, rel=1e-15)


class TestZeros:
    def test_first_zero_vs_series_bisection(self):
        assert j0_zero(1).t_k == pytest.approx(bisect_series_zero(2.0, 3.0),
                                               abs=1e-12)
        assert j0_zero(1).t_k == pytest.approx(T1, abs=1e-12)

    def test_second_zero(self):
        assert j0_zero(2).t_k == pytest.approx(bisect_series_zero(5.0, 6.0),
                                               abs=1e-12)
        assert j0_zero(2).t_k == pytest.approx(T2, abs=1e-12)

    def test_zeros_to_binary64(self):
        with mp.workdps(30):
            for k in range(1, 21):
                ref = float(mp.besseljzero(0, k))
                assert abs(j0_zero(k).t_k - ref) <= 1e-15 * ref, k

    def test_first_eigenvalue(self):
        assert j0_zero(1).lambda_k == pytest.approx(LAMBDA1, abs=1e-11)

    def test_interlacing_through_20(self):
        pairs = eigenpairs(20)
        for a, b in zip(pairs, pairs[1:]):
            assert a.t_k < b.t_k
        for ep in pairs:
            assert abs(j0(ep.t_k)) <= 1e-12

    def test_eigenpairs_solve_each_zero_once(self, monkeypatch):
        # the n-th first, so that an out-of-range n is the one named
        calls = []
        solve = bessel.j0_zero
        monkeypatch.setattr(bessel, "j0_zero", lambda k: calls.append(k) or solve(k))
        assert eigenpairs(5) == [solve(k) for k in range(1, 6)]
        assert calls == [5, 1, 2, 3, 4]
        with pytest.raises(ValueError, match="got 21"):
            eigenpairs(21)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            j0_zero(0)
        with pytest.raises(ValueError):
            j0_zero(21)

    def test_eigenpair_fields(self):
        ep = j0_zero(3)
        assert isinstance(ep, Eigenpair)
        assert ep.lambda_k == ep.t_k ** 2


def eigenfunction(k, r):
    """phi_k(r) = J_0(t_k r): the k-th radial eigenfunction, phi_k(0) = 1."""
    return j0(j0_zero(k).t_k * r)


class TestEigenfunctions:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_boundary_values(self, k):
        assert eigenfunction(k, 0.0) == 1.0
        assert abs(eigenfunction(k, 1.0)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interior_zero_count(self, k):
        vals = [eigenfunction(k, j / 2000.0) for j in range(1, 2000)]
        crossings = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
        assert crossings == k - 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ode_residual(self, k):
        # fourth-order stencils: second-order ones cannot reach 1e-6
        # against the roundoff/truncation tradeoff at lambda_3 ~ 75
        ep = j0_zero(k)
        h = 5e-4
        for j in range(1, 11):
            r = j / 11.0
            f = lambda x: eigenfunction(k, x)
            d1 = (-f(r + 2*h) + 8*f(r + h) - 8*f(r - h) + f(r - 2*h)) / (12*h)
            d2 = (-f(r + 2*h) + 16*f(r + h) - 30*f(r)
                  + 16*f(r - h) - f(r - 2*h)) / (12*h*h)
            assert abs(d2 + d1 / r + ep.lambda_k * f(r)) <= 1e-6

    @pytest.mark.parametrize("k", [8, 14, 20])
    def test_ode_residual_scaled_high_index(self, k):
        ep = j0_zero(k)
        h = 1e-4 / ep.t_k
        for j in range(1, 11):
            r = j / 11.0
            phi = eigenfunction(k, r)
            d1 = (eigenfunction(k, r + h) - eigenfunction(k, r - h)) / (2 * h)
            d2 = (eigenfunction(k, r + h) - 2 * phi
                  + eigenfunction(k, r - h)) / (h * h)
            assert abs(d2 + d1 / r + ep.lambda_k * phi) <= 1e-6 * (1 + ep.lambda_k)


def test_import_does_not_load_scipy():
    # the package needs only the standard library: importing it and
    # computing the eigenpairs and J_0 at large x load no scipy or numpy
    env = dict(os.environ)
    src = str(Path(tmb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, tmb, tmb.cli; tmb.eigenpairs(20); tmb.j0(50.0); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
