"""Shared fixtures: case-study programs and small tree scopes."""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.casestudies import css, cycletree, sizecount, treemutation
from repro.trees.generators import all_shapes


@pytest.fixture(autouse=True)
def repro_recursion_limit():
    """Honor ``REPRO_RECURSION_LIMIT`` around each test (not collection).

    CI's deep-tree smoke step sets it to 256 and re-runs the interpreter,
    replay, and n-ary suites: the explicit-stack machine must not recurse
    with tree depth, and a tight limit turns any regression into a hard
    ``RecursionError``.  Collection and pytest's own machinery still run
    at the default limit.
    """
    limit = os.environ.get("REPRO_RECURSION_LIMIT")
    if not limit:
        yield
        return
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(int(limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def small_trees():
    """Every tree shape with up to 3 internal nodes (9 trees)."""
    return [t for n in range(4) for t in all_shapes(n)]


@pytest.fixture(scope="session")
def tiny_trees():
    """Every tree shape with up to 2 internal nodes (4 trees)."""
    return [t for n in range(3) for t in all_shapes(n)]


@pytest.fixture(scope="session")
def sizecount_par():
    return sizecount.parallel_program()


@pytest.fixture(scope="session")
def racy_par():
    """The ``racy-parallel-write`` corpus program: two parallel calls that
    both write ``n.a`` at every node.  Unlike T1.3, its symbolic check
    reaches product exploration, so state budgets and the emptiness
    probe fire on it."""
    from repro.lang import parse_program

    entry = Path(__file__).parent / "corpus" / "racy-parallel-write.json"
    source = json.loads(entry.read_text())["source"]
    return parse_program(source, name="racy-parallel-write")


@pytest.fixture(scope="session")
def sizecount_seq():
    return sizecount.sequential_program()


@pytest.fixture(scope="session")
def sizecount_fused():
    return sizecount.fused_valid()


@pytest.fixture(scope="session")
def sizecount_fused_bad():
    return sizecount.fused_invalid()


@pytest.fixture(scope="session")
def treemutation_orig():
    return treemutation.original_program()


@pytest.fixture(scope="session")
def treemutation_fused():
    return treemutation.fused_program()


@pytest.fixture(scope="session")
def css_orig():
    return css.original_program()


@pytest.fixture(scope="session")
def css_fused():
    return css.fused_program()


@pytest.fixture(scope="session")
def cycletree_seq():
    return cycletree.sequential_program()


@pytest.fixture(scope="session")
def cycletree_par():
    return cycletree.parallel_program()


@pytest.fixture(scope="session")
def cycletree_fused():
    return cycletree.fused_program()
