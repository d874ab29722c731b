import math

import numpy as np
import pytest

from spinboson_nrg import DomainError, build_chain


def test_xi0_closed_form_lambda_two():
    # (1 - 1/2) / sqrt((1 - 1/2)(1 - 1/8)) evaluated by hand
    chain = build_chain(2.0, 5)
    assert chain.xi[0] == pytest.approx(0.7559289460184544, rel=1e-12)
    assert chain.xi[0] == pytest.approx(0.755929, abs=1e-6)


def test_xi_approaches_one():
    chain = build_chain(2.0, 60)
    assert abs(chain.xi[50] - 1.0) < 1e-6
    assert np.all(chain.xi > 0.0)
    assert np.all(chain.xi <= 1.0)
    # strictly increasing until float saturation
    assert np.all(np.diff(chain.xi[:20]) > 0.0)
    assert np.all(np.diff(chain.xi) >= 0.0)


def test_band_edge_factor():
    assert build_chain(2.0, 2).band_edge == pytest.approx(0.75)
    assert build_chain(1.5, 2).band_edge == pytest.approx(5.0 / 6.0)


def test_hop_geometric_decay():
    chain = build_chain(2.0, 50)
    assert np.all(np.diff(chain.hop) < 0.0)
    ratio = chain.hop[41] / chain.hop[40]
    assert ratio == pytest.approx(2.0 ** -0.5, rel=1e-9)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_particle_hole_symmetric_spectrum(lam):
    # flat band: the single-particle chain spectrum is symmetric about zero
    chain = build_chain(lam, 30)
    tri = np.diag(chain.hop[:29], 1)
    tri = tri + tri.T
    w = np.linalg.eigvalsh(tri)
    assert np.max(np.abs(w + w[::-1])) < 1e-12


def test_coefficients_local_in_n():
    short = build_chain(1.8, 20)
    long = build_chain(1.8, 40)
    assert np.array_equal(short.xi, long.xi[:20])
    assert np.array_equal(short.hop, long.hop[:20])


def test_invalid_lambda():
    with pytest.raises(DomainError):
        build_chain(1.0, 10)
    with pytest.raises(DomainError):
        build_chain(0.5, 10)
    with pytest.raises(DomainError):
        build_chain(2.0, 0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_rejected(lam):
    with pytest.raises(DomainError):
        build_chain(lam, 10)


def test_arrays_immutable():
    chain = build_chain(2.0, 10)
    with pytest.raises(ValueError):
        chain.xi[0] = 0.5
