import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Install a recorder of every evaluation of nodes of a FuncExpr class."""

    def install(cls) -> list:
        calls = []
        original = cls.__call__

        def counted(self, blocks):
            calls.append(self)
            return original(self, blocks)

        monkeypatch.setattr(cls, "__call__", counted)
        return calls

    return install
