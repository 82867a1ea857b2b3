import pytest


@pytest.fixture
def compiled(monkeypatch):
    """The sources that ``expr`` compiles during the test, in order, from an
    empty memo of compiled sources: each distinct source appears once."""
    from psgroupoid import expr as ex

    sources = []
    ex._code.cache_clear()
    monkeypatch.setattr(ex, "compile", lambda source, *a: sources.append(source) or compile(source, *a),
                        raising=False)
    return sources
