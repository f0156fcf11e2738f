"""Shared instance generators for the test suite."""

import numpy as np
import pytest

from blackbox_lds import LinearSystem, certify_strong_stability, strong_controllability_check
from blackbox_lds.errors import CertificateError
from blackbox_lds.lds import spectral_norm


def random_controllable_system(rng, d_x_max=4, d_u_max=2, k_max=3,
                               kappa_cap=50.0, beta_cap=2.0):
    """Draw a (k, kappa)-strongly-controllable system with k <= k_max and a
    moderate conditioning cap; returns (sys, k, kappa_actual, beta)."""
    while True:
        d_x = int(rng.integers(1, d_x_max + 1))
        d_u = int(rng.integers(1, d_u_max + 1))
        A = rng.normal(size=(d_x, d_x))
        norm_A = spectral_norm(A)
        if norm_A > 0:
            A *= rng.uniform(0.2, 0.9 * beta_cap) / norm_A
        B = rng.normal(size=(d_x, d_u))
        norm_B = spectral_norm(B)
        if norm_B == 0:
            continue
        B *= rng.uniform(0.5, 1.2) / norm_B
        sys = LinearSystem(A, B)
        for k in range(1, min(k_max, d_x) + 1):
            ok, kappa = strong_controllability_check(sys, k)
            if ok and kappa <= kappa_cap:
                beta = max(1.0, spectral_norm(A), spectral_norm(B))
                return sys, k, float(kappa), float(beta)


def random_certified_pair(rng, d_x_max=3, d_u_max=2, rho_max=0.8,
                          kappa_cap=10.0, gamma_min=0.15):
    """Draw (sys, K, certificate) where K is certified strongly stable for
    sys, built by planting a stable closed loop: A = F - B K."""
    while True:
        d_x = int(rng.integers(1, d_x_max + 1))
        d_u = int(rng.integers(1, d_u_max + 1))
        F = rng.normal(size=(d_x, d_x))
        radius = max(abs(np.linalg.eigvals(F)))
        if radius == 0:
            continue
        F *= rng.uniform(0.3, rho_max) / radius
        B = rng.normal(size=(d_x, d_u))
        norm_B = spectral_norm(B)
        if norm_B == 0:
            continue
        B /= norm_B
        K = 0.4 * rng.normal(size=(d_u, d_x))
        sys = LinearSystem(F - B @ K, B)
        try:
            cert = certify_strong_stability(sys, K)
        except CertificateError:
            continue
        if cert.kappa <= kappa_cap and cert.gamma >= gamma_min:
            return sys, K, cert


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
