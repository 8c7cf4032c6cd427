import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))


@pytest.fixture
def tables(monkeypatch):
    """The N of every neg_power_table built."""
    from zetaval import functions as fn

    built = []
    table = fn.neg_power_table

    def counting(N, s, c):
        built.append(N)
        return table(N, s, c)

    monkeypatch.setattr(fn, "neg_power_table", counting)
    return built
