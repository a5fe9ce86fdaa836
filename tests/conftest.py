import pathlib

import numpy as np
import pytest

from bestpair import extract_best_pair, run_ashlwb, sets
from bestpair.cli import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def two_ball_parsed():
    return load_problem(str(PROBLEMS / "two_balls.json"))


@pytest.fixture(scope="session")
def lens_parsed():
    return load_problem(str(PROBLEMS / "lens.json"))


@pytest.fixture(scope="session")
def boxes_parsed():
    return load_problem(str(PROBLEMS / "boxes.json"))


@pytest.fixture(scope="session")
def two_ball_run(two_ball_parsed):
    problem = two_ball_parsed.problem
    trace = run_ashlwb(problem)
    return problem, trace, extract_best_pair(trace, problem)


@pytest.fixture(scope="session")
def lens_run(lens_parsed):
    problem = lens_parsed.problem
    trace = run_ashlwb(problem)
    return problem, trace, extract_best_pair(trace, problem)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230413)


@pytest.fixture()
def cold_kernels(monkeypatch):
    """An empty cache of kernel code for the test: every kernel shape it
    builds, and every helper that `sets` compiles and keeps in an
    `lru_cache`, writes and compiles its source afresh, whatever ran
    before."""
    monkeypatch.setattr(sets, "_shape_code", {})
    for kept in vars(sets).values():
        if callable(getattr(kept, "cache_clear", None)):
            kept.cache_clear()


@pytest.fixture()
def compiled_sources(cold_kernels, monkeypatch):
    """The generated sources `sets.compiled_function` compiles during the
    test, in order, from an empty cache of kernel code."""
    sources = []
    monkeypatch.setattr(sets, "compile",
                        lambda source, *args: sources.append(source) or compile(source, *args),
                        raising=False)
    return sources
