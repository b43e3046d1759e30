import pytest

import wsadist as w
import wsadist.kernel as kernel

ALPHABET = "aA9(),$ "


@pytest.fixture(scope="session")
def unit():
    return w.unit_model()


@pytest.fixture(scope="session")
def appendix():
    return w.appendix_model()


@pytest.fixture(scope="session", autouse=True)
def warm_kernel():
    # the first call builds (into an empty cache) or loads the compiled
    # DP kernel; keep that cost out of individual tests (hypothesis
    # deadlines, criterion 6's timings)
    m = w.unit_model()
    w.levenshtein_standard("warm", "up", m)
    w.levenshtein_ws_agnostic("warm", "up", m)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """The kernel as a new process finds it, with an empty cache directory;
    the process's loaded kernel comes back afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_compiled", kernel._UNTRIED)
    return tmp_path / "cache" / "wsadist"
