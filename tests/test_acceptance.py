"""Full verification suite, one test per criterion."""

import pytest

from gapcount import acceptance, floquet

_BY_NUMBER = {number: fn for number, _, fn in acceptance._CRITERIA}


@pytest.mark.parametrize("number", sorted(_BY_NUMBER))
def test_criterion(number):
    passed, detail = _BY_NUMBER[number]()
    assert passed, detail


def test_criterion_2_fails_on_a_perturbed_closed_form(monkeypatch):
    pair_eigvals = floquet._pair_eigvals

    def perturbed(*args):
        return tuple(E * (1.0 + 1e-9) for E in pair_eigvals(*args))

    monkeypatch.setattr(floquet, "_pair_eigvals", perturbed)
    passed, detail = acceptance.criterion_02_band_energies()
    assert not passed, detail


def test_criterion_2_fails_on_perturbed_lapack_bands(monkeypatch):
    band_energies = floquet._band_energies

    def perturbed(graph, phases, shape):
        E = band_energies(graph, phases, shape)
        return E * (1.0 + 1e-9) if graph.nu >= 3 else E

    monkeypatch.setattr(floquet, "_band_energies", perturbed)
    passed, detail = acceptance.criterion_02_band_energies()
    assert not passed, detail
