import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_recursion import KERNEL_DRIVERS, dual_psi

from drlab import recursion
from drlab.drivers import (ZSpecContinuous, ZSpecDiscrete, driver_from_spec,
                           make_clf_psi, make_lf_psi)
from drlab.errors import ConfigError, DomainError
from drlab.recursion import V_STOP


def all_builtins(lf_model, clf_model, affine, fig1, fig1_clamped):
    return {
        "affine": affine,
        "fig1": fig1,
        "fig1-clamped": fig1_clamped,
        "lf": lf_model.psi,
        "clf": clf_model.psi,
    }


# sampling windows that stay clear of domain edges and the clamp kink
_WINDOWS = {
    "affine": (-0.9, 10.0),
    "fig1": (-0.48, 10.0),
    "fig1-clamped": (-0.48, 0.44),
    "lf": (-0.45, 10.0),
    "clf": (-0.6, 10.0),
}


def test_normalization_at_zero(lf_model, clf_model, affine, fig1, fig1_clamped):
    for name, psi in all_builtins(lf_model, clf_model, affine, fig1, fig1_clamped).items():
        assert abs(psi(0.0) - 1.0) < 1e-12, name
        assert abs(psi.deriv(0.0) - 1.0) < 1e-8, name


def test_affine_values(affine):
    assert affine(0.0) == 1.0
    assert affine(0.5) == 1.5
    assert affine.deriv(-0.3) == 1.0
    assert not affine.bounded


def test_fig1_closed_form_values(fig1):
    assert fig1(0.0) == 1.0
    assert abs(fig1(0.5) - (1.5 + math.sqrt(2.0)) / 2.0) < 1e-15
    assert abs(fig1(0.5) - 1.457107) < 1e-6
    assert fig1(-0.5) == 0.25
    assert fig1.domain_min == -0.5


def test_fig1_matches_quotient_form_away_from_zero(fig1):
    xs = np.linspace(-0.49, 3.0, 500)
    xs = xs[np.abs(xs) > 1e-3]
    quotient = xs ** 2 / (2.0 * (1.0 + xs - np.sqrt(1.0 + 2.0 * xs)))
    assert np.max(np.abs(fig1(xs) - quotient) / quotient) < 1e-9


def test_fig1_domain_error(fig1):
    with pytest.raises(DomainError):
        fig1(-0.5000001)
    with pytest.raises(DomainError):
        fig1(np.array([-0.3, -0.7]))


def test_lf_reference_constants(lf_model):
    c = lf_model.constants
    assert abs(c.root - 1.0) < 1e-12
    assert abs(c.slope - 0.5) < 1e-12
    assert lf_model.psi.psi_inf == 2.0
    assert abs(lf_model.psi.domain_min + 0.5) < 1e-12


def test_lf_driver_is_the_rational_map(lf_model):
    psi = lf_model.psi
    xs = np.linspace(-0.49, 50.0, 700)
    expected = (1.0 + 2.0 * xs) / (1.0 + xs)
    assert np.max(np.abs(psi(xs) - expected)) < 1e-12


def test_lf_root_residual_and_monotonicity(lf_model):
    # psi_base(root) = 1 to root-finder tolerance
    z = lf_model.zspec
    p = lf_model.p
    root = lf_model.constants.root
    assert abs(z.pgf(root / (root + 1.0)) / p - 1.0) < 1e-12
    psi = lf_model.psi
    xs = np.linspace(psi.domain_min + 1e-6, 1e3, 1001)
    vals = psi(xs)
    assert np.all(np.diff(vals) >= -1e-15)


def test_clf_reference_constants(clf_model):
    c = clf_model.constants
    assert abs(c.root - 1.0 / math.log(2.0)) < 1e-12
    assert abs(c.slope - math.log(2.0) ** 2) < 1e-12
    assert abs(c.slope - 0.480453) < 1e-6
    assert clf_model.psi(0.0) == pytest.approx(1.0, abs=1e-12)


def test_driver_monotone_on_grid(lf_model, clf_model, affine, fig1, fig1_clamped):
    for name, psi in all_builtins(lf_model, clf_model, affine, fig1, fig1_clamped).items():
        lo = psi.domain_min + 1e-6 if math.isfinite(psi.domain_min) else -3.0
        xs = np.linspace(lo, 1e3, 1000)
        assert np.all(np.diff(psi(xs)) >= -1e-12), name


def test_scalar_and_array_paths_agree(lf_model, clf_model, affine, fig1, fig1_clamped):
    rng = np.random.default_rng(7)
    for name, psi in all_builtins(lf_model, clf_model, affine, fig1, fig1_clamped).items():
        lo, hi = _WINDOWS[name]
        xs = rng.uniform(lo, hi, size=64)
        arr = psi(xs)
        sca = np.array([psi(float(x)) for x in xs])
        assert np.max(np.abs(arr - sca)) < 1e-15, name
        arr_d = psi.deriv(xs)
        sca_d = np.array([psi.deriv(float(x)) for x in xs])
        assert np.max(np.abs(arr_d - sca_d)) < 1e-15, name


def _bad_points(psi):
    """A NaN and the floats just outside each finite end of the domain."""
    ends = [np.nextafter(psi.domain_min, -math.inf),
            np.nextafter(psi.domain_max, math.inf)]
    return [math.nan] + [x for x in ends if math.isfinite(x)]


def _array_outcomes(psi, xs):
    """The bytes of psi and psi.deriv on xs, then the DomainError message of
    each on xs with each bad point appended."""
    out = [psi(xs).tobytes(), psi.deriv(xs).tobytes()]
    for x in _bad_points(psi):
        for f in (psi, psi.deriv):
            with pytest.raises(DomainError) as err:
                f(np.append(xs, x))
            out.append(str(err.value))
    return out


@settings(max_examples=300, deadline=None)
@example(name="clf:p=0.5,z=1", xs=[])
@example(name="lf:p=0.3,z=3", xs=[-math.inf, 0.0, 2 * V_STOP, math.inf])
@given(name=st.sampled_from(sorted(KERNEL_DRIVERS)),
       xs=st.lists(st.one_of(st.floats(-1.5, 1e3),
                             st.sampled_from([-math.inf, 0.0, 2 * V_STOP,
                                              math.inf])), max_size=50))
def test_array_path_is_the_scalar_function(name, xs):
    # the array path evaluates fn itself, bit for bit, in C for the built-in
    # drivers and by mapping fn without the library; points are clipped to
    # the domain, so -inf stands for domain_min
    psi = KERNEL_DRIVERS[name]
    xs = np.clip(np.array(xs, dtype=float), psi.domain_min, psi.domain_max)
    got = _array_outcomes(psi, xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "_native", False)
        assert _array_outcomes(psi, xs) == got
    points = xs.tolist()
    want = [np.array([psi.fn(x) for x in points], float).tobytes(),
            np.array([psi.deriv_fn(x) for x in points], float).tobytes()]
    for x in _bad_points(psi):
        arr = np.append(xs, x)
        message = (f"{psi.name}: nan input" if x != x else
                   f"{psi.name}: input range [{float(np.min(arr))}, "
                   f"{float(np.max(arr))}] outside domain "
                   f"[{psi.domain_min}, {psi.domain_max}]")
        want += [message, message]
    assert got == want


@pytest.mark.parametrize("name", sorted(KERNEL_DRIVERS))
def test_scalar_checks_of_psi_and_its_derivative(name):
    # a number outside the domain (NaN too) raises the same message from psi
    # and psi', +inf gives the stated limits, and an int or a numpy scalar
    # is its float
    psi = KERNEL_DRIVERS[name]
    ints = ([math.floor(psi.domain_min) - 1]
            if math.isfinite(psi.domain_min) else [])
    for x in _bad_points(psi) + ints + [np.int64(i) for i in ints]:
        for f in (psi, psi.deriv):
            with pytest.raises(DomainError) as err:
                f(x)
            assert str(err.value) == (
                f"{psi.name}: x={float(x)!r} outside domain "
                f"[{psi.domain_min}, {psi.domain_max}]")
    if psi.domain_max == math.inf:
        assert repr(psi(math.inf)) == repr(psi.psi_inf)
        assert repr(psi.deriv(math.inf)) == repr(
            0.0 if psi.bounded else psi.deriv_fn(math.inf))
    for f in (psi, psi.deriv):
        for x in (0, np.int64(0), np.float32(0.5)):
            assert repr(f(x)) == repr(f(float(x)))
            assert type(f(x)) is float


def _digest_grid(psi) -> list:
    """Points for the model-driver digest: the floats around the domain's
    lower end, points below it, both zeros, ±1e300 and ±inf, and a dense
    sweep from the lower end out to large values."""
    lo = psi.domain_min
    near = [lo]
    for direction in (-math.inf, math.inf):
        x = lo
        for _ in range(8):
            x = float(np.nextafter(x, direction))
            near.append(x)
    special = [lo - 1e-12, lo - 0.1, lo - 1.0, -1e300, -math.inf, -0.0, 0.0,
               5e-324, -5e-324, 1e-300, 1e300, math.inf]
    return (near + special + np.linspace(lo, 4.0, 4001).tolist()
            + np.geomspace(1e-12, 1e12, 1001).tolist()
            + (-np.geomspace(1e-12, -lo, 501)).tolist())


# sha256 of each model driver's name, constants, limit, domain, native
# description and the bytes of fn and deriv_fn on _digest_grid: a rewrite
# of the lf/clf constructors must keep every one of these bits
_DRIVER_DIGESTS = {
    "lf:p=0.5,z=1":
        "7ecb528f89df960a5caa9946f57efbbef0c70f6514895cd3c682345860e384b6",
    "lf:p=0.4,z=1@0.5+2@0.5":
        "f28eca830efa821e23d48bc8715838c0fde913098907efd45494c6a9d22fd8de",
    "lf:p=0.3,z=3":
        "8bfea88eeaea99ce510eada955f367dbc0d0b93ceca3a4c9f9ef07451bec8b34",
    "lf:p=0.4,z=3@0.6+1@0.4":
        "4bd08f9b6c7a7fea4dfa034ae4e6357010021a68952d5c2b794a373ae67f6add",
    "lf:p=0.2,z=1@0.2+2@0.3+7@0.5":
        "c415f4513fa226988f2f3249cacdabe42a2cf9e7ad2534c433076f9263a65133",
    "clf:p=0.5,z=1":
        "7394e213d18f806ac8df3fe23eb4cee1b300077e458f8d2c035595bf12a396c1",
    "clf:p=0.4,z=0.5@0.3+2@0.7":
        "e0d63b9626253b0c18651af7bceb5175d9d52ff0e6d2e3424fe100bc4dcc0f3c",
    "clf:p=0.3,z=3":
        "7694f0545fd34f605c2e0c484a8020feccddb2a94c6d8202a13e737c63881a89",
}


def _outcome_bytes(f, x) -> bytes:
    """The bytes of f(x), or the name of the arithmetic error it raises
    (none does on the grid)."""
    try:
        return struct.pack("<d", f(x))
    except ArithmeticError as exc:
        return type(exc).__name__.encode()


@pytest.mark.parametrize("spec", sorted(s for s in _DRIVER_DIGESTS
                                         if s.startswith("lf")))
@pytest.mark.parametrize("x", [7e153, 1e300])
def test_lf_derivative_is_finite_where_its_square_overflows(spec, x):
    # (y + 1)^2 passes the float range once y + 1 > ~1.3e154
    d = driver_from_spec(spec)[0].deriv(x)
    assert math.isfinite(d) and d >= 0.0


@pytest.mark.parametrize("spec", sorted(_DRIVER_DIGESTS))
def test_model_driver_bits_are_pinned(spec):
    psi, constants = driver_from_spec(spec)
    points = _digest_grid(psi)
    h = hashlib.sha256(repr((psi.name, constants, psi.psi_inf,
                             psi.domain_min, psi.fn.native)).encode())
    for f in (psi.fn, psi.deriv_fn):
        for x in points:
            h.update(_outcome_bytes(f, x))
    assert h.hexdigest() == _DRIVER_DIGESTS[spec]


def test_analytic_derivative_matches_central_difference(
        lf_model, clf_model, affine, fig1, fig1_clamped):
    rng = np.random.default_rng(11)
    for name, psi in all_builtins(lf_model, clf_model, affine, fig1, fig1_clamped).items():
        lo, hi = _WINDOWS[name]
        xs = rng.uniform(lo, hi, size=100)
        for x in xs:
            x = float(x)
            num = (psi(x + 1e-6) - psi(x - 1e-6)) / 2e-6
            ana = psi.deriv(x)
            assert abs(num - ana) <= 1e-6 * max(abs(ana), 1e-3), (name, x)


def test_psi_at_infinity(lf_model, clf_model, fig1_clamped):
    assert lf_model.psi(math.inf) == 2.0
    assert clf_model.psi(math.inf) == 2.0
    assert fig1_clamped(math.inf) == fig1_clamped(1.0) == fig1_clamped.psi_inf
    arr = lf_model.psi(np.array([1.0, math.inf]))
    assert arr[1] == 2.0


def test_bounded_drivers_stay_below_their_limit(lf_model, clf_model,
                                                fig1_clamped):
    for psi in (lf_model.psi, clf_model.psi, fig1_clamped):
        xs = np.linspace(psi.domain_min + 1e-9, 1e6, 2000)
        assert np.all(psi(xs) <= psi.psi_inf + 1e-12), psi.name


def test_condition_b_decay_heuristic(lf_model, clf_model, fig1_clamped):
    # (log x)^2 (psi_inf - psi(x)) should decrease to ~0 along powers of 10
    for psi in (lf_model.psi, clf_model.psi, fig1_clamped):
        xs = [10.0 ** k for k in range(1, 7)]
        vals = [math.log(x) ** 2 * (psi.psi_inf - psi(x)) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), psi.name
        assert vals[-1] < 0.05 * max(vals[0], 1e-30) + 1e-12, psi.name


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_dual_of_affine(affine):
    d = dual_psi(affine)
    assert d(0.5) == 2.0
    assert abs(d(0.0) - 1.0) < 1e-15
    assert abs(d.deriv(0.0) - 1.0) < 1e-12
    assert d.domain_max == 1.0


def test_dual_of_lf_value(lf_model):
    d = dual_psi(lf_model.psi)
    # 1/psi(-x) with psi = (1+2x)/(1+x): at x = 0.25 this is 0.75/0.5
    assert abs(d(0.25) - 1.5) < 1e-12
    assert abs(d.domain_max - 0.5) < 1e-12


def test_dual_is_involution(lf_model, clf_model, affine, fig1):
    for psi in (affine, fig1, lf_model.psi, clf_model.psi):
        dd = dual_psi(dual_psi(psi))
        lo = psi.domain_min + 1e-6 if math.isfinite(psi.domain_min) else -3.0
        xs = np.linspace(lo, 5.0, 257)
        assert np.max(np.abs(dd(xs) - psi(xs))) < 1e-14, psi.name
        assert dd.domain_min == psi.domain_min


def test_dual_domain_error(lf_model):
    d = dual_psi(lf_model.psi)
    with pytest.raises(DomainError):
        d(0.7)  # -0.7 lies below the base domain


# ---------------------------------------------------------------------------
# Z specifications
# ---------------------------------------------------------------------------

def test_zspec_validation_errors():
    with pytest.raises(ConfigError):
        ZSpecDiscrete(((1, 0.5), (2, 0.4)))  # probs sum to 0.9
    with pytest.raises(ConfigError):
        ZSpecDiscrete(((0, 1.0),))  # value below 1
    with pytest.raises(ConfigError):
        ZSpecDiscrete(((1.5, 1.0),))  # not an integer
    with pytest.raises(ConfigError):
        ZSpecDiscrete(((1, 0.5), (1, 0.5)))  # duplicates
    with pytest.raises(ConfigError):
        ZSpecContinuous(((-1.0, 1.0),))
    ZSpecContinuous(((0.5, 0.25), (2.0, 0.75)))  # valid


def test_zspec_transforms():
    z = ZSpecDiscrete(((1, 0.25), (3, 0.75)))
    s = 0.4
    assert abs(z.pgf(s) - (0.25 * s + 0.75 * s ** 3)) < 1e-15
    assert abs(z.pgf_prime(s) - (0.25 + 2.25 * s ** 2)) < 1e-15
    zc = ZSpecContinuous(((0.5, 0.5), (2.0, 0.5)))
    mu = 1.3
    want = 0.5 * math.exp(-0.65) + 0.5 * math.exp(-2.6)
    assert abs(zc.laplace(mu) - want) < 1e-15


def test_general_z_lf_driver():
    psi, c = make_lf_psi(0.4, ZSpecDiscrete(((1, 0.5), (2, 0.5))))
    assert abs(psi(0.0) - 1.0) < 1e-12
    assert abs(psi.deriv(0.0) - 1.0) < 1e-8
    assert psi.psi_inf == 2.5
    xs = np.linspace(psi.domain_min + 1e-9, 100.0, 500)
    assert np.all(np.diff(psi(xs)) >= -1e-15)


# ---------------------------------------------------------------------------
# driver specs
# ---------------------------------------------------------------------------

def test_parse_driver_strings():
    psi, consts = driver_from_spec("fig1")
    assert psi.name == "fig1" and consts is None
    # a model driver's name carries its p and its atoms
    for spec, built in (
            ("lf:p=0.5,z=1", make_lf_psi(0.5, ZSpecDiscrete(((1.0, 1.0),)))),
            ("clf:p=0.4,z=0.5@0.3+2@0.7",
             make_clf_psi(0.4, ZSpecContinuous(((0.5, 0.3), (2.0, 0.7)))))):
        psi, consts = driver_from_spec(spec)
        assert (psi.name, consts) == (built[0].name, built[1])


def test_driver_from_spec_roundtrip(lf_model):
    psi, consts = driver_from_spec("lf:p=0.5,z=1")
    assert abs(psi(1.0) - lf_model.psi(1.0)) < 1e-15
    assert consts is not None and abs(consts.root - 1.0) < 1e-12
    psi2, c2 = driver_from_spec("affine")
    assert c2 is None and psi2(1.0) == 2.0


def test_driver_from_spec_rejects_garbage():
    for spec in ("nonsense",  # unknown kind
                 "lf:p=0.5",  # missing atoms
                 "clf:z=1",  # missing p
                 "lf:p=0.5,z=1,frob=2",  # unknown key
                 "lf:p=0.5,z",  # an option without a value
                 "fig1:p=0.3,z=2",  # fixed drivers read no option
                 "fig1-clamped:p=0.5",
                 "affine:z=0.5@0.5"):
        with pytest.raises(ConfigError):
            driver_from_spec(spec)


# the error type and message of each malformed spec
_SPEC_ERRORS = {
    "lf:p": (ConfigError, "malformed driver option 'p'"),
    "lf:q=1,z=1": (ConfigError, "unknown driver option 'q'"),
    "lf:p=0.5,p=0.4,z=1": (ConfigError, "driver option 'p' given twice"),
    "lf:p=0.5,z=1,z=2": (ConfigError, "driver option 'z' given twice"),
    "bogus": (ConfigError, "unknown driver kind 'bogus'; expected one of "
                           "('affine', 'fig1', 'fig1-clamped', 'lf', 'clf')"),
    "fig1:p=0.5": (ConfigError, "driver kind 'fig1' takes no options"),
    "lf:p=0.5": (ConfigError, "driver kind 'lf' requires p and z atoms"),
    "lf:p=abc,z=1": (ValueError, "could not convert string to float: 'abc'"),
    # the options are read before the kind is checked
    "bogus:q=1": (ConfigError, "unknown driver option 'q'"),
}


@pytest.mark.parametrize("spec", list(_SPEC_ERRORS))
def test_driver_spec_errors_are_pinned(spec):
    with pytest.raises(Exception) as err:
        driver_from_spec(spec)
    assert (type(err.value), str(err.value)) == _SPEC_ERRORS[spec]
