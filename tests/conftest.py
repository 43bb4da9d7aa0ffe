import pytest

from qadconv import core


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
