"""Witness hygiene on the four case studies (PR 2 invariants).

Every ``race`` verdict from :func:`check_data_race` must carry a witness
that replays to a real dynamic conflict; every ``race-free`` or
``unknown`` verdict must carry no witness at all — an undecided engine
has nothing to point at, and a stale witness left over from an
exhausted rung is exactly the bug the conformance oracle's
``stale-witness`` mismatch kind exists to catch.
"""

import pytest

from repro.core.api import check_data_race

CASE_STUDIES = [
    "sizecount_par",
    "cycletree_par",
    "css_orig",
    "treemutation_orig",
]


@pytest.fixture(params=CASE_STUDIES)
def case_study(request):
    return request.param, request.getfixturevalue(request.param)


def test_witness_iff_race(case_study):
    name, prog = case_study
    res = check_data_race(prog)
    if res.verdict == "race":
        assert res.witness is not None, name
        assert res.witness_tree is not None, name
        assert res.replay is not None and res.replay.confirmed, (
            name,
            res.replay.detail if res.replay else None,
        )
    else:
        assert res.verdict in ("race-free", "unknown"), (name, res.verdict)
        assert res.witness is None, name
        assert res.witness_tree is None, name
        assert res.replay is None, name


def test_cycletree_parallel_witness_replays(cycletree_par):
    res = check_data_race(cycletree_par)
    assert res.verdict == "race"
    assert res.replay is not None and res.replay.confirmed


def test_sizecount_parallel_race_free(sizecount_par):
    res = check_data_race(sizecount_par)
    assert res.verdict == "race-free"
    assert res.witness is None and res.replay is None


def test_undecided_never_carries_witness(cycletree_par):
    """Starve the symbolic engine (mso only, tiny limits): the verdict
    must be ``unknown`` with no witness, and the attempt record must
    keep the rung's raw (absent) verdict.  The node ceiling starves it
    on any host: T1.7 now decides within the 2 s deadline alone."""
    res = check_data_race(
        cycletree_par, engine="mso", det_budget=1, mso_deadline_s=2.0,
        node_ceiling=2000,
    )
    assert res.verdict == "unknown"
    assert res.witness is None
    assert res.witness_tree is None
    assert res.replay is None
    attempts = res.details["attempts"]
    assert attempts and all("found" in a for a in attempts)
    assert all(a["found"] is None for a in attempts)


def test_attempts_record_raw_found_when_later_rung_decides(cycletree_par):
    """Degradation ladder: the starved mso rung records ``found=None``
    while the bounded rung that decided records its raw True (starved
    by the node ceiling, as above)."""
    res = check_data_race(
        cycletree_par, engine="auto", det_budget=1, mso_deadline_s=2.0,
        node_ceiling=2000, max_internal=2,
    )
    attempts = res.details["attempts"]
    by_rung = {a["rung"]: a for a in attempts}
    assert "found" in by_rung["mso"] and by_rung["mso"]["found"] is None
    bounded = [a for r, a in by_rung.items() if r.startswith("bounded")]
    assert bounded and bounded[0]["found"] is True
    assert res.verdict == "race"
    assert res.details["decided_by"].startswith("bounded")
