"""Walsh-Hadamard transforms of labeled repetitive profiles.

The transform of a labeled profile r assigns to each edge set H the signed
sum rhat(H) = sum over H' of (-1)^{|H and H'|} r(H').  It turns tensor
products of step models into pointwise products, so densities in large
tensor powers reduce to a handful of per-factor spectral values.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from . import masks
from .frozen import frozen
from .models import APPROX_TOL, is_exact
from .profiles import (
    LabeledProfile,
    ProfileVector,
    QuantumGraph,
    check_orbits,
    clear_denominators,
    divide,
    iso_table,
    labeled_repetitive,
)


def fwht_forward(values) -> list:
    """Unnormalized Walsh-Hadamard transform; length must be a power of two."""
    vec = list(values)
    n = len(vec)
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                x = vec[j]
                y = vec[j + h]
                vec[j] = x + y
                vec[j + h] = x - y
        h *= 2
    return vec


def fwht_inverse(values) -> list:
    return list(divide(fwht_forward(values), len(values)))


@frozen
class SpectralProfile:
    """Transform of a labeled repetitive profile, indexed by edge-slot mask.

    The empty mask always carries 1 (total mass) and every value lies in
    [-1, 1]; values are constant on isomorphism orbits.
    """

    t: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != 1 << masks.slot_count(self.t):
            raise ValueError("value count does not match the mask space")
        tol = 0 if self.exact else APPROX_TOL
        # exact values are compared as integers over one denominator d
        d, scaled = clear_denominators(self.values)
        if abs(scaled[0] - d) > tol:
            raise ValueError("spectrum of a unit-mass profile must start at one")
        if any(abs(v) > d + tol for v in scaled):
            raise ValueError("spectral values must lie in [-1, 1]")
        check_orbits(self.t, scaled, tol, "spectrum")

    @property
    def exact(self) -> bool:
        return is_exact(self.values)

    def entry(self, key):
        return self.values[iso_table(self.t).entries[iso_table(self.t).type_index(key)].rep_mask]

    def type_values(self) -> tuple:
        return tuple(self.values[e.rep_mask] for e in iso_table(self.t).entries)


def _as_labeled_r(profile) -> LabeledProfile:
    if isinstance(profile, ProfileVector):
        profile = profile.as_labeled()
    if not isinstance(profile, LabeledProfile):
        raise TypeError("expected a labeled or unlabeled profile")
    if profile.flavor != "r":
        raise ValueError("the transform applies to repetitive profiles")
    return profile


def _scaled_transform(values) -> tuple:
    """The lcm d of the denominators and the transform of the values times d,
    in integers; floats stay as they are under d = 1.0 (clear_denominators)."""
    d, scaled = clear_denominators(values)
    return d, fwht_forward(scaled)


def fourier(profile) -> SpectralProfile:
    """Transform of a repetitive profile (labeled or by-type), in integers."""
    lab = _as_labeled_r(profile)
    d, hat = _scaled_transform(lab.values)
    return SpectralProfile(t=lab.t, values=divide(hat, d))


def inverse_fourier(spectrum: SpectralProfile) -> LabeledProfile:
    vals = fwht_inverse(spectrum.values)
    return LabeledProfile(t=spectrum.t, flavor="r", values=tuple(vals))


def spectral_product(*spectra: SpectralProfile) -> SpectralProfile:
    """Pointwise product, the spectrum of the tensor product of models."""
    if not spectra:
        raise ValueError("need at least one spectrum")
    t = spectra[0].t
    if any(s.t != t for s in spectra):
        raise ValueError("order mismatch among spectra")
    out = list(spectra[0].values)
    for s in spectra[1:]:
        out = [a * b for a, b in zip(out, s.values)]
    return SpectralProfile(t=t, values=tuple(out))


def convolve(*profiles) -> LabeledProfile:
    """Labeled repetitive profile of the tensor product of the sources.

    Exact profiles are transformed as integers over their denominators:
    the transform of the pointwise product of their transforms is the xor
    convolution times the mask count, so one division ends it.  Floats
    stay as they are under denominator 1.0 (clear_denominators), so they
    round as the inverse transform of spectral_product rounds them."""
    labs = [_as_labeled_r(p) for p in profiles]
    if not labs:
        raise ValueError("need at least one spectrum")
    if any(lab.t != labs[0].t for lab in labs):
        raise ValueError("order mismatch among spectra")
    product, denominator = None, 1
    for lab in labs:
        d, hat = _scaled_transform(lab.values)
        product = hat if product is None else [a * b for a, b in zip(product, hat)]
        denominator *= d
    values = divide(fwht_forward(product), denominator * len(product))
    return LabeledProfile(t=labs[0].t, flavor="r", values=values)


def model_spectrum(source, t: int, budget: int | None = None) -> SpectralProfile:
    """Spectrum of a graph's blow-up limit or of a step model."""
    return fourier(labeled_repetitive(source, t, budget))


def quantum_functional(Q: QuantumGraph) -> tuple:
    """Per-type coefficients c with R(Q) = sum of c[type] * rhat[type].

    Writing the repetitive density of Q against a labeled profile as an
    inner product with an orbit indicator, Parseval turns it into an inner
    product of transforms; the transformed indicator is orbit-constant, so
    the functional collapses to one coefficient per type.
    """
    table = iso_table(Q.t)
    size = 1 << masks.slot_count(Q.t)
    indicator = [Fraction(0)] * size
    for idx, coeff in Q.coefficients:
        for mask in table.entries[idx].orbit:
            indicator[mask] += Fraction(coeff)
    d, hat = _scaled_transform(indicator)
    return tuple(Fraction(e.orbit_size * hat[e.rep_mask], size * d) for e in table.entries)


def product_limit_density(Q: QuantumGraph, *spectra: SpectralProfile):
    """Repetitive density of Q in the tensor product of the given limits."""
    spectrum = spectral_product(*spectra)
    if spectrum.t != Q.t:
        raise ValueError("order mismatch between quantum graph and spectrum")
    terms = [c * v for c, v in zip(quantum_functional(Q), spectrum.type_values()) if c != 0]
    return reduce(operator.add, terms)
