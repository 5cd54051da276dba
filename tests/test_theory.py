"""Evaluation metrics and the clash proxy on hand-computed inputs."""

import math

import numpy as np
import pytest

from dockinv import theory


def test_metric_aar_counts_positional_matches():
    assert theory.metric_aar(["ACD", "GG"], ["ABD", "GA"]) == pytest.approx(60.0)


@pytest.mark.parametrize("gen, ref, message", [
    (["AC"], ["AC", "GG"], "differ in size"),
    (["ACD"], ["AC"], "length mismatch"),
    ([""], [""], "empty sequences"),
])
def test_metric_aar_rejects_bad_input(gen, ref, message):
    with pytest.raises(ValueError, match=message):
        theory.metric_aar(gen, ref)


def test_metric_div_is_mean_pairwise_distance():
    # pairs (0,1), (0,3), (1,3) are 1, 3 and 2 apart
    assert theory.metric_div([0.0, 1.0, 3.0], lambda a, b: abs(a - b)) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="at least 2"):
        theory.metric_div([0.0], lambda a, b: abs(a - b))


def test_metric_nov_uses_best_reference_match():
    # "AB" matches a reference exactly, "CD" matches none
    assert theory.metric_nov(["AB", "CD"], ["AB", "AX"]) == pytest.approx(0.5)
    # the best of two partial matches counts: "ABC" shares 2/3 with "ABX", 1/3 with "AXX"
    assert theory.metric_nov(["ABC"], ["AXX", "ABX"]) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("gen, ref, message", [
    (["AB"], [], "non-empty reference"),
    ([], ["AB"], "generated items"),
])
def test_metric_nov_rejects_empty_sets(gen, ref, message):
    with pytest.raises(ValueError, match=message):
        theory.metric_nov(gen, ref)


def test_metric_sta_protein():
    ideal = {"scs": 0, "ssc": 0.5}                 # 0.4 * 1 + 0.6 * 1
    strained = {"scs": 10, "ssc": 2.0}             # 0.4 / e + 0.6 * 0
    assert theory.metric_sta_protein([ideal]) == pytest.approx(1.0)
    assert theory.metric_sta_protein([ideal, strained]) == pytest.approx(
        0.5 * (1.0 + 0.4 / math.e))
    with pytest.raises(ValueError, match="at least one"):
        theory.metric_sta_protein([])


def test_metric_sta_molecule():
    ideal = {"cse": 0.0, "sai": 3.0}               # 0.5 * 1 + 0.5 * 1
    strained = {"cse": 10.0, "sai": 4.5}           # 0.5 / e + 0.5 * 0
    assert theory.metric_sta_molecule([ideal]) == pytest.approx(1.0)
    assert theory.metric_sta_molecule([ideal, strained]) == pytest.approx(
        0.5 * (1.0 + 0.5 / math.e))
    with pytest.raises(ValueError, match="at least one"):
        theory.metric_sta_molecule([])


def test_clash_count_skips_bonded_pairs():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [5.5, 0, 0], [5.0, 1.7, 0]])
    # (0,1) and (2,3) clash; (2,4) sits exactly on the floor and does not
    assert theory.clash_count(pts, 1.7) == 2
    assert theory.clash_count(pts, 1.7, {(1, 0)}) == 1
    assert theory.clash_count(pts, 1.7, {(0, 1), (2, 3)}) == 0
    assert theory.clash_count(np.zeros((0, 3))) == 0


def test_clash_count_matches_pairwise_count():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 6.0, (30, 3))
    bonded = {(0, 1), (5, 2), (7, 9)}
    expected = sum(
        1 for i in range(30) for j in range(i + 1, 30)
        if (i, j) not in bonded and (j, i) not in bonded
        and np.linalg.norm(pts[i] - pts[j]) < 1.7
    )
    assert theory.clash_count(pts, 1.7, bonded) == expected
