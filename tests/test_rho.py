import hashlib
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cpoch
from cpoch.core import EULER_GAMMA, ConvergenceError, LogScaled, reduced_argument
from cpoch.quadrature import QuadratureError
from cpoch.rho import (
    E_deriv_z,
    E_quadrature,
    E_series,
    _series_state,
    mu_function,
    nu,
    nu_cutoff,
    rho,
)
from cpoch.verify import E_SERIES_X, E_SERIES_Z

E_GAMMA = math.exp(EULER_GAMMA)

# Exact outputs of E_series (value, terms, tail, converged) and of rho, as
# float.hex: z <= 3, integer z past 3 (only full unit segments) and
# non-integer z (a final partial segment), at x = 1 and on both sides of it.
# terms counts the coefficients evaluated: N + 1 of x's head cut order N for
# the head, then M + 1 of its node cut order M for each of the 24 full nodes
# once a full segment runs and each of the 24 partial nodes.
E_SERIES_PINNED = [
    (0.3, 1.7, "0x1.80e7c019a8814p-1", 60, "0x1.d3caa70029224p-49", True),
    (2.0, 3.0, "0x1.55a924232272bp+2", 47, "0x1.87fba95e40c3ap-47", True),
    (1.0, 2.5, "0x1.046a669f7ef3cp+1", 49, "0x1.b54086325f5c1p-48", True),
    (120.0, 3.4, "0x1.42c1e5d7dcf81p+18", 916, "0x1.ff6303446cf5dp-32", True),
    (7.5, 4.0, "0x1.4de2b1140c469p+7", 738, "0x1.f28cc0b6d2a39p-43", True),
    (0.05, 12.0, "0x1.6c5823c422bc4p-2", 1132, "0x1.722e7ad10b34dp-39", True),
    (1.0, 10.0, "0x1.221dcc8942622p+1", 865, "0x1.e6c47a058a922p-46", True),
    (500.0, 25.0, "0x1.d83df2022b63fp+138", 1116, "0x1.d83df2022b63fp+89", True),
    (2.0, 30.0, "0x1.bfd8583a9dc81p+2", 791, "0x1.16455baeb7831p-44", True),
    (0.2, 5.25, "0x1.4142688a7f17ap-1", 1936, "0x1.4b3fd6e96f99dp-43", True),
    (1.0, 17.3, "0x1.221dcd80e9c43p+1", 1681, "0x1.73623d21ba356p-45", True),
    (50.0, 8.75, "0x1.e27ac6c1a77f2p+30", 1488, "0x1.e27a64fc667f8p-19", True),
    (0.01, 20.6, "0x1.da9ae6e420779p-3", 2538, "0x1.01ac9f72919bap-33", False),
    (2.0, 29.5, "0x1.bfd8583a9dc81p+2", 1535, "0x1.16455baeb7831p-44", True),
]
# Test ids keep the terms figure of the per-segment count E_series first
# reported (111 head terms plus 24 x 111 for each unit segment past z = 3),
# so each point keeps its id while terms_used follows the work done.
E_SERIES_PINNED_IDS = [
    "-".join(map(str, (x, z, value, 111 + 2664 * max(0, math.ceil(z - 3)), tail, converged)))
    for x, z, value, _, tail, converged in E_SERIES_PINNED
]
# sha256 of E_series's (value, tail, converged) over this grid.  Every z
# lies before nu's cutoff (>= 30), where the cutoff rule moves no bit.
E_SERIES_GRID_X = (1e-3, 0.0033, 0.011, 0.036, 0.12, 0.39, 1.28, 4.2, 14.0, 46.0, 150.0, 500.0)
E_SERIES_GRID_Z = (0.4, 1.7, 2.9, 3.0, 3.2, 4.0, 5.5, 9.0, 14.25, 20.0, 27.7, 30.0)
E_SERIES_GRID_SHA256 = "ea032edc3a4ca755e8576f577319cd5d4201d627330bcc81e7c761bd676bca8e"
RHO_PINNED = [
    (1.0, 1.0, 2.0, "0x1.90dcccb6c92a1p-1"),
    (2.0, 0.5, 4.5, "0x1.5e80f0635dbfbp+6"),
    (1.0, 1.0, 12.0, "0x1.0edd2939653ccp+39"),
    (0.5, 0.3, 7.2, "0x1.0cc21601acc25p+5"),
    (3.0, 2.0, 20.0, "0x1.49acf8e782c64p+105"),
    (10.0, 1.0, 31.0, "0x1.1d71c83fa37fcp+161"),
]


def _per_x_caches(state: str, x: float, z: float) -> None:
    """Clear the per-x cache; with ``warm``, fill it by an E_series call at another z.

    The warming z lies past the series window with full segments, so every
    part of the cached state (coefficients, window head, full-node values)
    is in place before the pinned call.
    """
    _series_state.cache_clear()
    if state == "warm":
        E_series(x, z + 7.25)


def _fields(result):
    return (result.value.hex(), result.terms_used, result.tail_estimate.hex(), result.converged)


def _bits(result):
    """E_series's fields apart from terms_used, which follows the cut order."""
    return (result.value.hex(), result.tail_estimate.hex(), result.converged)


def _outcome(x, z, tol):
    """E_series's fields at (x, z, tol), or the name of the error it raises."""
    try:
        return _fields(E_series(x, z, tol))
    except OverflowError as exc:  # x^t0 leaves binary64 before the cutoff (x above ~28)
        return type(exc).__name__


class TestESeries:
    def test_empty_interval(self):
        result = E_series(1.7, 0.0)
        assert result.value == 0.0 and result.converged

    @pytest.mark.parametrize("x", E_SERIES_X)
    @pytest.mark.parametrize("z", E_SERIES_Z)
    def test_against_quadrature(self, verify_cases, x, z):
        verify_cases.check("analogue2/series_vs_quadrature", x=x, z=z)

    def test_deep_interval(self):
        series = E_series(1.0, 29.0, 1e-10)
        assert series.converged
        assert abs(series.value - E_quadrature(1.0, 29.0, 1e-12)) <= 1e-10 * series.value

    @pytest.mark.parametrize("x, z, value, terms, tail, converged", E_SERIES_PINNED,
                             ids=E_SERIES_PINNED_IDS)
    def test_pinned_bits(self, x, z, value, terms, tail, converged):
        # the cache-miss and cache-hit paths give the same bits in every field
        for state in ("cold", "warm"):
            _per_x_caches(state, x, z)
            assert _fields(E_series(x, z)) == (value, terms, tail, converged), state

    def test_grid_bits(self):
        _series_state.cache_clear()
        digest = hashlib.sha256()
        for x in E_SERIES_GRID_X:
            for z in E_SERIES_GRID_Z:
                digest.update(repr(_bits(E_series(x, z))).encode())
        assert digest.hexdigest() == E_SERIES_GRID_SHA256

    def test_domain(self):
        with pytest.raises(ValueError):
            E_series(0.0, 1.0)
        with pytest.raises(ValueError):
            E_series(1.0, -1.0)

    @pytest.mark.parametrize("engine", [E_series, E_quadrature, lambda x, z: nu(x)])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_refused(self, engine, x):
        # refused before any per-x state is built or cached
        _series_state.cache_clear()
        with pytest.raises(ValueError, match=f"requires a finite x > 0, got {x}"):
            engine(x, 5.0)
        assert _series_state.cache_info().currsize == 0

    def test_concurrent_sweeps_match_cold_calls(self):
        # threads that fill one x's running sums and the shared denominator
        # rows at once return the cold fields and hold only cold entries
        rho_module = sys.modules["cpoch.rho"]
        x, zs = 0.7, (29.5, 4.0, 17.25, 30.0, 8.0, 23.5)
        cold = []
        for z in zs:
            _series_state.cache_clear()
            cold.append(_outcome(x, z, 1e-10))
        _series_state.cache_clear()
        _outcome(x, max(zs), 1e-10)
        cold_running = _series_state(x).running  # the window head and t0 = 3 .. 29
        results = []

        def sweep(k):  # the zs rotated by k, so the threads grow the sums in turn
            got = {z: _outcome(x, z, 1e-10) for z in zs[k:] + zs[:k]}
            results.append([got[z] for z in zs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _series_state.cache_clear()
                rho_module._full_denoms.cache_clear()  # rebuilt, bit for bit, by the sweeps
                threads = [threading.Thread(target=sweep, args=(k,)) for k in range(len(zs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                # z = 30 reaches the full segments t0 = 3 .. 29: rows 0..29.  A
                # thread may assign a shorter prefix after a longer one, so the
                # held running sums are some prefix of the cold ones
                assert rho_module._full_denoms.cache_info().currsize == 30
                assert _series_state.cache_info().currsize == 1
                running = _series_state(x).running
                assert running == cold_running[:len(running)]
        finally:
            sys.setswitchinterval(interval)
        assert results == [cold] * (5 * len(zs))

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_running_sums_match_cold_calls(self, tol):
        # every z reads the same fields from the per-x running sums as a
        # call on a cold cache, however the sums were filled: step by step
        # (ascending), all at once (descending from inf) or by one call at
        # the cutoff; at x above ~28 the fills stop at an OverflowError
        zs = E_SERIES_GRID_Z + (math.inf,)
        for x in E_SERIES_GRID_X:
            cold = []
            for z in zs:
                _series_state.cache_clear()
                cold.append(_outcome(x, z, tol))
            for fill in ("ascending", "descending", "cutoff"):
                _series_state.cache_clear()
                if fill == "cutoff":
                    _outcome(x, nu_cutoff(x, tol), tol)
                order = zs[::-1] if fill == "descending" else zs
                got = {z: _outcome(x, z, tol) for z in order}
                assert [got[z] for z in zs] == cold, (x, fill)

    def test_infinite_z(self):
        # E_series integrates one segment per unit of z up to nu's cutoff, so
        # z = inf is nu; rho still refuses it.  Run in a child with a timeout
        # so that a regression to a segment per unit of an infinite z fails
        # instead of hanging the session
        code = ("import math\n"
                "from cpoch.rho import E_series, nu, rho\n"
                "result = E_series(0.5, math.inf)\n"
                "print(result.converged, abs(result.value - nu(0.5)) <= 1e-12 * nu(0.5))\n"
                "try:\n"
                "    rho(1.0, 1.0, math.inf)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        src = str(Path(cpoch.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.splitlines() == ["True True", "rho requires a finite z >= 1, got inf"]

    @pytest.mark.parametrize("x, z", [(0.5, 1e5), (2.0, 1e9)])
    def test_past_the_cutoff_is_nu(self, x, z):
        # the segments stop at the cutoff and the tail is charged the
        # cutoff's bound e^-cutoff on the rest
        tol = 1e-10
        result = E_series(x, z, tol)
        assert result.converged
        assert abs(result.value - nu(x)) <= 1e-12 * nu(x)
        cutoff = nu_cutoff(x, tol)
        at_cutoff = E_series(x, cutoff, tol)
        assert result.value == at_cutoff.value
        assert result.tail_estimate == at_cutoff.tail_estimate + math.exp(-cutoff)

    def test_nan_z_is_refused(self):
        # refused by the domain check, before any per-x state is built
        _series_state.cache_clear()
        with pytest.raises(ValueError, match="E_series requires z >= 0, got nan"):
            E_series(0.5, math.nan)
        with pytest.raises(ValueError, match="rho requires a finite z >= 1, got nan"):
            rho(1.0, 1.0, math.nan)
        assert _series_state.cache_info().currsize == 0


class TestCutOrder:
    """The per-x state evaluates c_0(x) .. c_N(x) in the head and c_0(x) .. c_M(x)
    in the node series only, with the full table's bits."""

    @staticmethod
    def _outcomes():
        """Seeded E_series (value, tail, converged), cold and warm, and rho
        values, or the name of the error raised."""
        def attempt(f, *args):
            try:
                return f(*args)
            except (ConvergenceError, OverflowError) as exc:
                return type(exc).__name__

        rng = random.Random(2207)
        got = []
        for i in range(120):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            z = (float(rng.randint(1, 30)), rng.uniform(0.0, 30.0), math.inf)[i % 3]
            _series_state.cache_clear()
            got.append(attempt(lambda: _bits(E_series(x, z))))
            attempt(E_series, x, 30.0 - i % 7)  # warm: another z fills the state
            got.append(attempt(lambda: _bits(E_series(x, z))))
        _series_state.cache_clear()
        for _ in range(120):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            y = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            got.append(attempt(lambda: repr(rho(x, y, rng.uniform(1.0, 40.0)))))
        return got

    def test_cut_keeps_the_full_tables_bits(self, monkeypatch):
        # with both cuts at TABLE_ORDER the head and every node series run
        # over the whole table, the uncut reference; every value, tail and
        # flag and every rho value or error must match it
        cut = self._outcomes()
        recip_gamma = sys.modules["cpoch.recip_gamma"]
        monkeypatch.setattr(recip_gamma, "_head_cut", lambda x, log_powers: recip_gamma.TABLE_ORDER)
        monkeypatch.setattr(recip_gamma, "_node_cut", lambda x, coeffs: recip_gamma.TABLE_ORDER)
        try:
            full = self._outcomes()
        finally:
            _series_state.cache_clear()
        assert cut == full


class TestEQuadrature:
    def test_zero(self):
        assert E_quadrature(2.0, 0.0) == 0.0

    def test_truncation_consistency(self):
        # tail beyond 20 is below 1/Gamma(21) / ln(20)
        assert abs(E_quadrature(1.0, 20.0, 1e-13) - nu(1.0, 1e-13)) <= 1e-12

    def test_mutual(self):
        assert abs(E_quadrature(2.0, 4.0, 1e-12) - E_series(2.0, 4.0, 1e-10).value) <= 1e-8

    @pytest.mark.parametrize("x, z", [(2.0, 1e5), (0.5, 1e9), (2.0, math.inf)])
    def test_past_the_cutoff_is_nu(self, x, z):
        # QAGS's first node on [0, z] lies at 0.002 z, past the integrand's
        # mass, so integrating all of [0, z] would certify 0
        assert E_quadrature(x, z) == nu(x)


class TestNu:
    def test_reference_value(self):
        assert abs(nu(1.0, 1e-10) - 2.2665) <= 5e-4

    def test_lower_bound_large_base(self, verify_cases):
        verify_cases.check("analogue2/nu_lower_bound")

    def test_bracket_small_base(self, verify_cases):
        verify_cases.check("analogue2/nu_bracket")

    def test_domain(self):
        with pytest.raises(ValueError):
            nu(0.0)

    def test_is_E_at_infinity(self):
        # bit for bit on a seeded log grid of x in [1e-3, 800]; nu(800)
        # overflows, and then both raise the same error
        rng = random.Random(2401)
        for x in [1e-3, 800.0] + [10.0 ** rng.uniform(-3.0, math.log10(800.0)) for _ in range(38)]:
            tol = 10.0 ** rng.uniform(-13.0, -6.0)
            outcomes = []
            for call in (lambda: nu(x, tol), lambda: E_quadrature(x, math.inf, tol)):
                try:
                    outcomes.append(call().hex())
                except (OverflowError, ConvergenceError, QuadratureError) as exc:
                    outcomes.append(type(exc).__name__)
            assert outcomes[0] == outcomes[1], (x, tol)


class TestMu:
    def test_reduces_to_nu(self, verify_cases):
        verify_cases.check("analogue2/mu_reduces_to_nu")

    def test_is_tail_integral(self, verify_cases):
        verify_cases.check("analogue2/mu_is_tail_of_nu")

    def test_weighted_variant_is_finite_and_stable(self):
        a = mu_function(1.0, 1.0, 0.0, 1e-10)
        assert a > 0.0
        # self-consistency: pushing the certified cutoff out changes nothing
        b = mu_function(1.0, 1.0, 0.0, 1e-12)
        assert a == pytest.approx(b, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            mu_function(1.0, -0.5, 0.0)


class TestRho:
    def test_boundary_value(self):
        assert rho(1.3, 0.7, 1.0) == 0.0

    def test_argument_map(self):
        assert rho(1.0, 1.0, 2.0, 1e-12) == pytest.approx(
            E_quadrature(0.5, 1.0, 1e-13), rel=1e-10
        )

    def test_limit_to_nu(self):
        n = 30
        got = rho(1.0, 2.0 / (n - 1) ** 2, float(n), 1e-12)
        assert abs(got - nu(1.0, 1e-12)) <= 1e-10

    def test_methods_agree(self):
        # the series path against the argument map with E by quadrature
        for x, y, z in ((0.5, 2.0, 3.5), (2.0, 1.0, 6.0), (1.0, 3.0, 2.2)):
            w = y * (z - 1.0) ** 2 / (2.0 * x)
            expected = x**z * E_quadrature(w, z - 1.0, 1e-11)
            assert rho(x, y, z, 1e-11) == pytest.approx(expected, rel=1e-8)

    def test_log_scaled(self):
        # x^z = e^736.8 leaves binary64; rho comes back log-scaled
        x, y, z = 1e4, 3.2, 80.0
        scaled = rho(x, y, z, 1e-11)
        assert isinstance(scaled, LogScaled) and scaled.sign == 1
        w = y * (z - 1.0) ** 2 / (2.0 * x)
        expected = z * math.log(x) + math.log(E_quadrature(w, z - 1.0, 1e-12))
        assert scaled.log_magnitude == pytest.approx(expected, rel=1e-13)

    def test_overflowing_reduced_argument(self):
        # y (z-1)^2 overflows although w = 5e11 does not; E's segments then
        # leave binary64, an OverflowError the CLI reports as exit 3
        with pytest.raises(OverflowError):
            rho(1e300, 1e300, 1e6)

    @pytest.mark.parametrize("x, y, z", [(1e-300, 1e308, 50.0), (2.0, 1e308, 1e200)])
    def test_reduced_argument_past_binary64(self, x, y, z):
        assert reduced_argument(x, y, z) == math.inf
        with pytest.raises(OverflowError, match=r"w = y \(z-1\)\^2 / 2x overflows"):
            rho(x, y, z)

    @pytest.mark.parametrize("x, y, z", [(1e300, 1e-300, 2.0), (1.0, 5e-324, 1.5)])
    def test_reduced_argument_underflowing_to_zero(self, x, y, z):
        # in the domain, but E(w, z - 1) has no series at w = 0: a numerical
        # failure naming rho's w, not E_series refusing its argument
        assert reduced_argument(x, y, z) == 0.0
        with pytest.raises(ConvergenceError, match=r"w = y \(z-1\)\^2 / 2x underflows to 0"):
            rho(x, y, z)

    # z - 1 past nu's cutoff (30 here), x > 1 and a small w: x^z scales E's
    # tail, so charging the rest more than its bound e^-cutoff would refuse
    # these; values as recorded before E_series stopped at the cutoff
    @pytest.mark.parametrize("x, y, z, value", [
        (2.0, 1e-4, 40.0, "0x1.4e7542aa9e5a3p+38"),
        (1.0, 3e-6, 93.0, "0x1.f4ec2a5fd8f57p-3"),
        (3.0, 4e-4, 32.5, "0x1.1d705caacf1adp+50"),
        (5.0, 2e-5, 130.0, "0x1.21e96c91be905p+300"),
    ])
    def test_past_nu_cutoff_stays_certified(self, x, y, z, value):
        assert z - 1.0 > nu_cutoff(reduced_argument(x, y, z), 1e-10)
        assert rho(x, y, z) == pytest.approx(float.fromhex(value), rel=1e-12)

    @pytest.mark.parametrize("x, y, z, value", RHO_PINNED)
    def test_pinned_bits(self, x, y, z, value):
        for state in ("cold", "warm"):
            _per_x_caches(state, reduced_argument(x, y, z), z - 1.0)
            assert rho(x, y, z).hex() == value, state

    def test_certificate_is_relative_to_rho(self):
        # E = 0.2577 carries an absolute tail of 3.77e-11, within tol for E,
        # but 1.46e-10 relative to E and so to rho = x^z E (1.18e-10 off a
        # 30-digit quadrature oracle)
        with pytest.raises(ConvergenceError):
            rho(23681.166079424744, 1.1231528383600349, 26.82961228779542, 1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            rho(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            rho(1.0, 1.0, 0.5)


class TestDerivatives:
    def test_first_derivative_is_integrand(self, verify_cases):
        verify_cases.check("analogue2/integrand_derivative")
        assert E_deriv_z(1.0, 0.0, 1) == 1.0

    def test_second_derivative_fd(self, verify_cases):
        verify_cases.check("analogue2/second_derivative_fd")

    def test_window_guard(self):
        with pytest.raises(ValueError):
            E_deriv_z(1.0, 3.5, 1)
        with pytest.raises(ValueError):
            E_deriv_z(1.0, 1.0, 4)

    def test_euler_identity(self, verify_cases):
        verify_cases.check("analogue2/euler_identity")

    def test_y_derivative_series(self, verify_cases):
        verify_cases.check("analogue2/y_derivative_series")

    def test_z_derivative_identity(self, verify_cases):
        verify_cases.check("analogue2/z_derivative_identity")


class TestBounds:
    """Envelope bounds derived from exponential bounds on 1/Gamma(t+1).

    The published orientation uses Gamma(t+1) >= e^(gamma t), which is false
    for t below 2.9097 (Gamma(1.5) = 0.886 < e^(gamma/2) = 1.335); the
    acceptance module checks it as refuted against an independent oracle.
    Here the convexity-backed orientation Gamma(t+1) >= e^(-gamma t) is
    verified, along with the sandwich bounds that do not involve the flipped
    sign; the checks that ``cpoch.verify`` defines are looked up there.
    """

    def test_reciprocal_gamma_exponential_bound(self):
        # ln Gamma(t+1) + gamma t is convex with a double zero at t = 0
        for t in (0.0, 0.1, 0.5, 1.0, 2.5, 7.0, 25.0):
            assert math.lgamma(t + 1.0) + EULER_GAMMA * t >= -1e-15

    def test_published_orientation_fails_below_three(self):
        # the counterexample that sinks the as-stated bounds
        assert math.gamma(1.5) < math.exp(EULER_GAMMA * 0.5)
        assert E_quadrature(E_GAMMA, 1.0, 1e-12) > 1.0

    def test_linear_envelope_sign_corrected(self, verify_cases):
        verify_cases.check("analogue2/linear_envelope_sign_corrected")

    def test_ratio_envelope_sign_corrected(self):
        for x in (0.5, 1.0, 2.0, 4.0):
            if x == math.exp(-EULER_GAMMA):
                continue
            for z in (0.5, 1.0, 2.0, 5.0):
                bound = (x**z * math.exp(EULER_GAMMA * z) - 1.0) / (math.log(x) + EULER_GAMMA)
                assert E_quadrature(x, z, 1e-12) <= bound * (1 + 1e-12)

    def test_rho_envelope_sign_corrected(self, verify_cases):
        verify_cases.check("analogue2/rho_envelope_sign_corrected")

    def test_rho_ratio_envelope_sign_corrected(self, verify_cases):
        verify_cases.check("analogue2/rho_ratio_envelope_sign_corrected")

    def test_sandwich(self, verify_cases):
        verify_cases.check("analogue2/sandwich_bounds")

    def test_limit_bounds(self, verify_cases):
        verify_cases.check("analogue2/limit_bounds")

    def test_cross_bound_with_first_analogue(self, verify_cases):
        verify_cases.check("analogue2/cross_bound_rho_rtilde")

    def test_asymptotic_envelopes(self, verify_cases):
        verify_cases.check("analogue2/asymptotic_envelopes")

    def test_laplace_monotonicity(self, verify_cases):
        verify_cases.check("analogue2/laplace_monotonicity")
