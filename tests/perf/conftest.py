"""Fixtures for the campaign benchmark's own tests (``benchmarks/perf``)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perf_run():
    return _load("run")


@pytest.fixture(scope="session")
def perf_compare():
    return _load("compare")


@pytest.fixture(scope="session")
def perf_hostspeed():
    return _load("hostspeed")
