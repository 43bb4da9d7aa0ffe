import pytest

from qadconv import core, qadc


@pytest.fixture
def caps_checked(monkeypatch):
    """The cap of every qubit-cap check the library makes, in call order."""
    seen = []
    check = core.check_qubit_cap

    def spy(n_qubits, cap=core.DEFAULT_QUBIT_CAP):
        seen.append(cap)
        check(n_qubits, cap)

    monkeypatch.setattr(core, "check_qubit_cap", spy)
    return seen


@pytest.fixture(autouse=True)
def cold_readout_records():
    """Each test starts with no readout records built, so that no result
    depends on which tests ran before it in the process."""
    qadc._clear_shape_cache()
