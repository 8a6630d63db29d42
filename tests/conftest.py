import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from qeslab import spectral  # noqa: E402
from qeslab.weyl import DiffOp, MatOp  # noqa: E402


def y4_hook(spec):
    """Gauged form of an added quartic confining term.

    In x-space the extra term is multiplication by x^2 conjugated by
    the similarity transformation: [[x^2, 0], [-2 k0 x, x^2]].  It
    spoils both the doublet invariance and the parity pattern.
    """
    x2 = DiffOp.x(2)
    return MatOp(((x2, DiffOp.zero()), (DiffOp({(1, 0): spec.k0 * (-2)}), x2)))


@pytest.fixture
def add_quartic_hook(monkeypatch):
    """Calling it adds `y4_hook` to every operator that
    `spectral.build_hamiltonian_gauged` builds, until the test ends."""

    def install():
        build = spectral.build_hamiltonian_gauged
        monkeypatch.setattr(
            spectral,
            "build_hamiltonian_gauged",
            lambda spec: build(spec) + y4_hook(spec),
        )

    return install
