import numpy as np
import pytest

from qig import linalg


@pytest.fixture
def qubit_state():
    """The worked 2x2 example used across modules."""
    return np.diag([0.75, 0.25]).astype(complex)


@pytest.fixture
def flip():
    """Off-diagonal Hermitian observable, centered for any diagonal state."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts of ``np.linalg.eigh`` / ``eigvalsh`` calls made during the test.

    ``linalg.state``'s memo starts empty, so no density remembered by an
    earlier test saves a decomposition here.
    """
    linalg._forget_states()
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
