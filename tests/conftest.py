import pytest

from wfr import engine
from wfr.harness import synth_corpus


@pytest.fixture(scope="session")
def sigma4_mib():
    """1 MiB uniform synthetic corpus over byte values 0..3, built once per session."""
    return synth_corpus(4, 1_048_576, seed=1)


@pytest.fixture(params=["native", "python"])
def backend(request, monkeypatch):
    """Run the test on each backend; the native one skips when the kernel did
    not build, and the pure-Python one runs with the kernel switched off."""
    if request.param == "native" and engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    if request.param == "python":
        monkeypatch.setattr(engine, "_native", None)
    return request.param
