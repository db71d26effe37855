import itertools

import numpy as np
import pytest

from cronlab.errors import ParameterError, PreconditionError, StructuralError
from cronlab.grid import (GridSpec, ScalarField, apply_multiplier, constant_field,
                          lebesgue_norm, mode_field, plane_wave, relative_l2_difference, sobolev_norm, to_physical)
from cronlab.lp import (BandRange, DEFAULT_BUMP, SpacetimeField, bernstein_ratio,
                        _commutator, besov_norm, besov_norms, commutator_ratios, fit_loglog,
                        project_band, restrict_annulus,
                        spacetime_norm, spacetime_product_ratio)
from cronlab.random_fields import (flat_spectrum_field, packet_field,
                                   random_field, stream)


# ---------------------------------------------------------------------------
# bump profile

def test_bump_profile_shape():
    b = DEFAULT_BUMP
    assert b(0.3) == 1.0 and b(1.0) == 1.0
    assert b(2.0) == 0.0 and b(2.7) == 0.0
    rs = np.linspace(0.0, 3.0, 601)
    vals = b(rs)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert np.all(np.diff(vals) <= 1e-12)


def test_bump_monotone_on_lattice_radii():
    g = GridSpec(2, 64, 1.0)
    radii = np.unique(g.xi_norm.ravel())
    vals = DEFAULT_BUMP(radii)
    assert np.all(np.diff(vals) <= 1e-12)


# ---------------------------------------------------------------------------
# band range and projections

def test_band_range_constraints():
    g = GridSpec(2, 64, 1.0)
    BandRange(0, 3).validate(g)
    with pytest.raises(ParameterError):
        BandRange(0, 5).validate(g)       # 2^6 = 64 >= N/(2L) = 32
    with pytest.raises(ParameterError):
        BandRange(-1, 3).validate(g)      # 2^-1 < one lattice shell
    with pytest.raises(ParameterError):
        BandRange(3, 1)


def test_widest_band_range_when_log2_rounds_onto_an_integer():
    # 1/L lies an ulp above 2^-5, and log2(1/L) rounds to -5.0
    g = GridSpec(2, 8, 31.999999999999993)
    assert BandRange.widest(g).k_min == -4


def test_band_symbol_is_one_on_its_sphere():
    g = GridSpec(2, 64, 1.0)
    k = 3
    pw = plane_wave(g, (2 ** k, 0))
    assert relative_l2_difference(project_band(pw, k), pw) < 1e-13


def test_band_symbol_value_off_sphere():
    # at |xi| = 1.5 * 2^k the spec's symbol m(2^-k xi) - m(2^-k+1 xi) equals m(1.5)
    g = GridSpec(2, 64, 1.0)
    pw = plane_wave(g, (12, 0))  # 1.5 * 2^3
    out = project_band(pw, 3)
    got = np.abs(out.freq_values).max() / np.abs(pw.freq_values).max()
    assert abs(got - DEFAULT_BUMP(1.5)) < 1e-13


def test_disjoint_bands_annihilate():
    g = GridSpec(2, 64, 1.0)
    f = random_field(g, stream(10, 0))
    for k, k2 in ((0, 2), (1, 3), (0, 3)):
        out = project_band(project_band(f, k2), k)
        assert lebesgue_norm(out, 2) == 0.0


def test_partition_of_unity_on_annulus():
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    f = restrict_annulus(random_field(g, stream(10, 1)), *br.annulus())
    total = project_band(f, br.k_min)
    for k in range(br.k_min + 1, br.k_max + 1):
        total = total + project_band(f, k)
    assert relative_l2_difference(total, f) < 1e-12


@pytest.mark.parametrize("real", [False, True])
def test_default_annulus_is_one_registry_entry(real):
    g = GridSpec(2, 32, 4.0)
    f = ScalarField(g, np.asarray(stream(12, 0).standard_normal(g.shape)), real_valued=real)
    disk = restrict_annulus(f, 0.0, g.nyquist)
    random_field(g, stream(12, 1), real=real)
    assert [key for key in g._registry if key[0] == "nyquist_disk"] == [("nyquist_disk",)]
    # the kept indicator is float64 and restricts bit for bit as a complex128
    # one built for the call
    kept = g._registry[("nyquist_disk",)]
    indicator = (g.xi_norm <= g.nyquist).astype(np.complex128)
    assert kept.dtype == np.float64 and np.array_equal(kept, indicator)
    plain = apply_multiplier(f, indicator)
    assert disk.real_valued == plain.real_valued == real
    assert np.array_equal(disk.values.view(np.uint64), plain.values.view(np.uint64))
    # an annulus with other radii is not kept
    kept = len(g._registry)
    restrict_annulus(f, 0.0, g.nyquist / 2.0)
    restrict_annulus(f, 1.0, g.nyquist)
    assert len(g._registry) == kept


def test_out_of_range_band_errors():
    g = GridSpec(2, 64, 1.0)
    f = random_field(g, stream(10, 2))
    with pytest.raises(ParameterError):
        project_band(f, 9)


def test_projections_commute_with_multipliers():
    g = GridSpec(2, 64, 1.0)
    f = random_field(g, stream(10, 3))
    m = np.exp(1j * g.xi[0])
    a = project_band(apply_multiplier(f, m), 2)
    b = apply_multiplier(project_band(f, 2), m)
    assert relative_l2_difference(a, b) < 1e-13


# ---------------------------------------------------------------------------
# product trichotomy (single-mode exhaustive scan)

def test_product_trichotomy():
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    ks = list(br)
    sep = 2  # the O(1) constant fixed by the bump's support arithmetic
    for k, k1, k2 in itertools.product(ks, ks, ks):
        high_low = (abs(k1 - k) <= sep and k2 <= k + sep)
        low_high = (k1 <= k + sep and abs(k2 - k) <= sep)
        high_high = (k1 >= k - sep and abs(k2 - k1) <= sep)
        if high_low or low_high or high_high:
            continue
        f = to_physical(mode_field(g, (2 ** k1, 0)))
        h = to_physical(mode_field(g, (0, 2 ** k2)))
        prod = ScalarField(g, f.phys_values * h.phys_values)
        out = project_band(prod, k)
        assert lebesgue_norm(out, 2) < 1e-12 * lebesgue_norm(prod, 2), (k, k1, k2)


# ---------------------------------------------------------------------------
# Besov norms

def test_besov_single_shell():
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    k = 2
    f = restrict_annulus(random_field(g, stream(11, 0)), 2.0 ** k, 2.0 ** k * 1.999)
    f = project_band(f, k)  # inside one band footprint
    # rebuild as exactly-one-band content
    for q in (4, 8):
        expect = 0.0
        for kk in br:
            w = 2.0 ** ((g.n / 2 - g.n / q) * kk)
            expect += (w * lebesgue_norm(project_band(f, kk), 2)) ** 2
        got = besov_norm(f, 2, q, 2, br)
        assert abs(got - np.sqrt(expect)) < 1e-10 * got


def test_besov_matches_sobolev_up_to_constant():
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    q = 4
    s = g.n / 2 - g.n / q
    ratios = []
    for i in range(10):
        f = flat_spectrum_field(g, stream(11, 10 + i), br)
        ratios.append(sobolev_norm(f, s) / besov_norm(f, 2, q, 2, br))
    assert 0.25 <= min(ratios) and max(ratios) <= 4.0


def test_besov_l2_below_l1_on_random_fields():
    g = GridSpec(2, 32, 1.0)
    br = BandRange.widest(g)
    for i in range(100):
        f = random_field(g, stream(12, i), 2.0 ** br.k_min, 2.0 ** br.k_max)
        assert besov_norm(f, 2, 4, 2, br) <= besov_norm(f, 2, 4, 1, br) * (1 + 1e-12)


def test_besov_norm_of_physical_field_with_mean_is_norm_of_mean_free_part():
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    f = flat_spectrum_field(g, stream(12, 7), br).in_physical()
    shifted = f + constant_field(g, 4.0)
    assert abs(shifted.mean() - 4.0) < 1e-12
    expect = besov_norm(f, 2, 4, 2, br)
    got = besov_norm(shifted, 2, 4, 2, br, exclude_zero_mode=True)
    assert abs(got - expect) <= 1e-12 * expect
    with pytest.raises(PreconditionError):
        besov_norm(shifted, 2, 4, 2, br)


@pytest.mark.parametrize("real", [True, False])
def test_besov_norm_transform_count(count_transforms, real):
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    spectrum = flat_spectrum_field(g, stream(12, 8), br, real=real).in_frequency()
    forward, inverse = ("rfftn", "irfftn") if real else ("fftn", "ifftn")
    bands = len(range(br.k_min, br.k_max + 1))
    for physical, fwd in ((False, {}), (True, {forward: 1})):
        for p, back in ((2, {}), (4, {inverse: bands})):
            # a new field each time, which has not kept a transform
            f = ScalarField(g, spectrum.phys_values, real_valued=real) if physical else \
                spectrum.with_values(spectrum.values.copy())
            calls = count_transforms()
            besov_norm(f, p, 4, 2, br)
            # p = 2 transforms a physical field once and no band back; any
            # other p transforms each band back
            assert calls == {**fwd, **back}


@pytest.mark.parametrize("exclude_zero_mode", [False, True])
def test_besov_norms_is_besov_norm_per_spec_from_one_band_pass(count_transforms,
                                                              exclude_zero_mode):
    g = GridSpec(2, 64, 1.0)
    br = BandRange.widest(g)
    f = flat_spectrum_field(g, stream(12, 9), br)
    if exclude_zero_mode:
        F = f.values.copy()
        F.flat[0] = 3.0
        f = f.with_values(F)
    specs = [(p, 4, r) for p in (2, 3, 4, np.inf) for r in (1, 2)]
    opts = dict(allow_decreasing=True, exclude_zero_mode=exclude_zero_mode)
    want = [besov_norm(f, p, q, r, br, **opts) for p, q, r in specs]
    calls = count_transforms()
    got = besov_norms(f, specs, br, **opts)
    assert got == want      # bit for bit, spec by spec
    # each band piece is transformed back once, for all six specs with p != 2
    assert calls == {"ifftn": len(range(br.k_min, br.k_max + 1))}


def test_besov_rejects_p_above_q():
    g = GridSpec(2, 32, 1.0)
    f = random_field(g, stream(12, 0), 1.0, 8.0)
    with pytest.raises(ParameterError):
        besov_norm(f, 4, 2, 2)
    besov_norm(f, 4, 2, 2, allow_decreasing=True)


# ---------------------------------------------------------------------------
# spacetime norms

def test_spacetime_constant_slices():
    g = GridSpec(2, 16, 2.0)
    f = random_field(g, stream(13, 0))
    ts = np.linspace(0.0, 3.0, 7)
    F = SpacetimeField(ts, tuple(f for _ in ts))
    for q in (1, 2):
        expect = 3.0 ** (1.0 / q) * lebesgue_norm(f, 2)
        assert abs(spacetime_norm(F, q, lambda s: lebesgue_norm(s, 2)) - expect) < 1e-12


def test_spacetime_sup_of_monotone_growth():
    g = GridSpec(2, 16, 2.0)
    f = random_field(g, stream(13, 1))
    ts = np.linspace(0.0, 1.0, 5)
    F = SpacetimeField(ts, tuple(f * (1.0 + t) for t in ts))
    expect = 2.0 * lebesgue_norm(f, 2)
    assert abs(spacetime_norm(F, np.inf, lambda s: lebesgue_norm(s, 2)) - expect) < 1e-12


def test_spacetime_sin_modulation_closed_form():
    g = GridSpec(2, 16, 2.0)
    f = random_field(g, stream(13, 2))
    ts = np.linspace(0.0, np.pi, 41)
    F = SpacetimeField(ts, tuple(f * np.sin(t) for t in ts))
    got = spacetime_norm(F, 2, lambda s: lebesgue_norm(s, 2))
    expect = lebesgue_norm(f, 2) * np.sqrt(np.pi / 2.0)
    assert abs(got - expect) < 1e-3 * expect  # trapezoid at 41 nodes


def test_spacetime_needs_two_samples():
    g = GridSpec(2, 16, 2.0)
    f = random_field(g, stream(13, 3))
    F = SpacetimeField(np.array([0.0]), (f,))
    with pytest.raises(StructuralError):
        spacetime_norm(F, 2, lambda s: lebesgue_norm(s, 2))
    with pytest.raises(StructuralError):
        SpacetimeField(np.array([]), ())


# ---------------------------------------------------------------------------
# Bernstein

def test_bernstein_single_mode_and_identity_case():
    g = GridSpec(2, 64, 1.0)
    k = 3
    pw = project_band(plane_wave(g, (2 ** k, 0)), k)
    assert abs(bernstein_ratio(pw, k, 2, 2) - 1.0) < 1e-12  # p = q
    r = bernstein_ratio(pw, k, 2, np.inf)
    assert np.isfinite(r) and r > 0


def test_bernstein_support_precondition():
    g = GridSpec(2, 64, 1.0)
    f = random_field(g, stream(14, 0), 1.0, 16.0)
    with pytest.raises(PreconditionError):
        bernstein_ratio(f, 2, 2, 4)


def test_bernstein_scan_uniform_over_packets():
    g = GridSpec(2, 128, 1.0)
    ks = [2, 3, 4]
    means = []
    for k in ks:
        vals = [bernstein_ratio(packet_field(g, stream(14, 5 + 7 * k + s), k),
                                k, 2, 4) for s in range(4)]
        means.append(np.mean(vals))
    assert max(means) / min(means) < 10.0


# ---------------------------------------------------------------------------
# commutator

def commutator_field(f, g, k):
    """[P_k, f] g = P_k(f g) - f P_k(g), the product f g taken pointwise."""
    return _commutator(f, g, ScalarField(f.grid, f.phys_values * g.phys_values), k)


def test_commutator_vanishes_for_constant_f():
    g = GridSpec(2, 64, 1.0)
    f = constant_field(g, 2.5)
    h = random_field(g, stream(15, 0), 2.0, 16.0)
    c = commutator_field(f, h, 3)
    assert lebesgue_norm(c, 2) < 1e-13 * lebesgue_norm(h, 2)


def test_commutator_slope_and_ratio():
    g = GridSpec(2, 256, 1.0)
    br = BandRange.widest(g)
    f = flat_spectrum_field(g, stream(15, 1), BandRange(br.k_min, br.k_min), real=True)
    h = flat_spectrum_field(g, stream(15, 2), BandRange(br.k_min, br.k_max))
    ks = list(range(br.k_min + 2, br.k_max))
    norms = [lebesgue_norm(commutator_field(f, h, k), 2) for k in ks]
    slope = fit_loglog([2.0 ** k for k in ks], norms)
    assert -1.15 <= slope <= -0.85
    for k, (norm, ratio) in zip(ks, commutator_ratios(f, h, ks, np.inf, 2, 2)):
        assert norm == lebesgue_norm(commutator_field(f, h, k), 2)
        assert ratio <= 10.0


def test_commutator_ratios_transform_the_product_once(monkeypatch):
    g = GridSpec(2, 64, 1.0)
    forward = []
    for name in ("fftn", "rfftn"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            forward.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    counts = []
    for ks in ([3], [1, 2, 3]):
        f = random_field(g, stream(15, 5), 1.0, 2.0, real=True)
        h = random_field(g, stream(15, 6), 1.0, 16.0)
        del forward[:]
        commutator_ratios(f, h, ks, np.inf, 2, 2)
        counts.append(len(forward))
    # f and g are drawn as spectra; only f g goes forward, once for all bands
    assert counts == [1, 1]


def test_commutator_hoelder_validation():
    g = GridSpec(2, 32, 1.0)
    f = random_field(g, stream(15, 3), 1.0, 2.0, real=True)
    h = random_field(g, stream(15, 4), 1.0, 8.0)
    with pytest.raises(ParameterError):
        commutator_ratios(f, h, [2], 4, 4, 4)


# ---------------------------------------------------------------------------
# product estimates

def test_spacetime_product_needs_n_above_3():
    g = GridSpec(3, 16, 1.0)
    ts = np.linspace(0.0, 1.0, 3)
    f = random_field(g, stream(16, 4), 1.0, 4.0)
    F = SpacetimeField(ts, tuple(f for _ in ts))
    with pytest.raises(ParameterError):
        spacetime_product_ratio(F, F, 2, 2)


def test_spacetime_product_finite_at_n4():
    g = GridSpec(4, 16, 4.0)
    br = BandRange.widest(g)
    ts = np.linspace(0.0, 1.0, 3)
    rng = stream(16, 5)
    F = SpacetimeField(ts, tuple(flat_spectrum_field(g, rng, br) for _ in ts))
    G = SpacetimeField(ts, tuple(flat_spectrum_field(g, rng, br) for _ in ts))
    r = spacetime_product_ratio(F, G, 2, 2, band_range=br)
    assert np.isfinite(r) and 0 < r <= 100.0
