import pytest

from spindles import RationalAngle, build_space, spindle_number, sweep_families

CATALOG_CAP = 6


@pytest.fixture(scope="session")
def catalog6():
    """Full reports for every family with parameters <= 6, computed once.

    Keyed by str(family); values are (family, space, report).
    """
    out = {}
    for family in sweep_families(CATALOG_CAP):
        space = build_space(family)
        out[str(family)] = (family, space, spindle_number(space))
    return out


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per RationalAngle built. The benchmark's
    tracer counts constructions at the class, so this counter does too."""
    built = []
    init = RationalAngle.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalAngle, "__init__", counting)
    return built
