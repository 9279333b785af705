"""Walsh-Hadamard transforms of labeled repetitive profiles.

The transform of a labeled profile r assigns to each edge set H the signed
sum rhat(H) = sum over H' of (-1)^{|H and H'|} r(H').  It turns tensor
products of step models into pointwise products, so densities in large
tensor powers reduce to a handful of per-factor spectral values.  Each
factor is transformed once (model_spectrum), the spectra are multiplied
once, by spectral_product, the one product of factors, and inverse_fourier
runs only where a labeled profile of the product is needed (convolve).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from .frozen import frozen
from .profiles import (
    LabeledProfile,
    OverOneDenominator,
    ProfileVector,
    QuantumGraph,
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


@frozen(also_compared=("exact",))  # 1 == 1.0: an exact profile never equals a float one
class SpectralProfile(OverOneDenominator):
    """Transform of a labeled repetitive profile, indexed by edge-slot mask,
    as numerators over one denominator.

    The empty mask always carries 1 (total mass) and every value lies in
    [-1, 1]; values are constant on isomorphism orbits.
    """

    t: int
    numerators: tuple
    denominator: int = 1

    def __post_init__(self):
        tol = self._reduce("spectrum")
        if abs(self.numerators[0] - self.denominator) > tol:
            raise ValueError("spectrum of a unit-mass profile must start at one")
        if any(abs(v) > self.denominator + tol for v in self.numerators):
            raise ValueError("spectral values must lie in [-1, 1]")

    def entry(self, key):
        return self.type_values()[iso_table(self.t).type_index(key)]


def fourier(profile) -> SpectralProfile:
    """Transform of a repetitive profile (labeled or by-type): its
    numerators transformed, over its denominator."""
    if isinstance(profile, ProfileVector):
        profile = profile.as_labeled()
    if not isinstance(profile, LabeledProfile):
        raise TypeError("expected a labeled or unlabeled profile")
    if profile.flavor != "r":
        raise ValueError("the transform applies to repetitive profiles")
    return SpectralProfile(profile.t, fwht_forward(profile.numerators), profile.denominator)


def inverse_fourier(spectrum: SpectralProfile) -> LabeledProfile:
    nums = fwht_forward(spectrum.numerators)
    return LabeledProfile(spectrum.t, "r", nums, spectrum.denominator * len(nums))


def spectral_product(*spectra: SpectralProfile) -> SpectralProfile:
    """Pointwise product, the spectrum of the tensor product of models: of the
    numerators, over the product of the denominators, or of the values when
    one is a float, so that a Fraction times a float rounds once."""
    if not spectra:
        raise ValueError("need at least one spectrum")
    t = spectra[0].t
    if any(s.t != t for s in spectra):
        raise ValueError("order mismatch among spectra")
    exact = all(s.exact for s in spectra)
    out, denominator = [1] * len(spectra[0].numerators), 1
    for s in spectra:
        out = [a * b for a, b in zip(out, s.numerators if exact else s.values)]
        denominator *= s.denominator if exact else 1
    return SpectralProfile(t, out, denominator)


def convolve(*profiles) -> LabeledProfile:
    """Labeled repetitive profile of the tensor product of the sources: the
    inverse transform of the product of their transforms."""
    return inverse_fourier(spectral_product(*map(fourier, profiles)))


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
    d, scaled = clear_denominators([Fraction(coeff) for _, coeff in Q.coefficients])
    weight = {idx: c for (idx, _), c in zip(Q.coefficients, scaled)}
    # Q's orbit indicator in integers: each mask carries its type's cleared coefficient
    hat = fwht_forward([weight.get(idx, 0) for idx in table.index])
    return divide([e.orbit_size * hat[e.rep_mask] for e in table.entries], len(hat) * d)


def product_limit_density(Q: QuantumGraph, *spectra: SpectralProfile):
    """Repetitive density of Q in the tensor product of the given limits."""
    spectrum = spectral_product(*spectra)
    if spectrum.t != Q.t:
        raise ValueError("order mismatch between quantum graph and spectrum")
    terms = [c * v for c, v in zip(quantum_functional(Q), spectrum.type_values()) if c != 0]
    return reduce(operator.add, terms)
