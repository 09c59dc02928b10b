"""Tests for the key-takeaway scorecard."""

import pytest

from repro.core.figures import Takeaway, render_takeaways, run_figure


@pytest.fixture(scope="module")
def takeaways():
    return run_figure("takeaways", iterations=5, seed=1)


@pytest.fixture(scope="module")
def ml_takeaways(takeaways):
    return [takeaway for takeaway in takeaways if takeaway.section == "V-A"]


@pytest.fixture(scope="module")
def video_takeaways(takeaways):
    return [takeaway for takeaway in takeaways if takeaway.section == "V-B"]


def test_ml_takeaways_all_hold(ml_takeaways):
    assert len(ml_takeaways) == 4
    for takeaway in ml_takeaways:
        assert takeaway.holds, f"{takeaway.claim}: {takeaway.evidence}"


def test_video_takeaways_all_hold(video_takeaways):
    assert len(video_takeaways) == 3
    for takeaway in video_takeaways:
        assert takeaway.holds, f"{takeaway.claim}: {takeaway.evidence}"


def test_takeaways_carry_evidence(ml_takeaways):
    for takeaway in ml_takeaways:
        assert takeaway.evidence
        assert takeaway.section == "V-A"


def test_render_takeaways_scorecard(ml_takeaways):
    text = render_takeaways(ml_takeaways)
    assert text.count("[ok]") == 4
    assert "4/4 key takeaways reproduced" in text


def test_render_marks_failures():
    text = render_takeaways([
        Takeaway("V-A", "claim", True, "yes"),
        Takeaway("V-B", "other claim", False, "nope"),
    ])
    assert "[ok]" in text and "[??]" in text
    assert "1/2 key takeaways reproduced" in text


def test_render_rejects_empty():
    with pytest.raises(ValueError):
        render_takeaways([])
