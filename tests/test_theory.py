"""Evaluation metrics and the clash proxy on hand-computed inputs."""

import math

import numpy as np
import pytest

from dockinv import theory
from dockinv.structures import Atom, Bond, MolecularStructure


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


@pytest.mark.parametrize("phi, psi, favored", [
    (-60.0, -45.0, True),      # alpha helix
    (-120.0, 130.0, True),     # beta sheet
    (60.0, 60.0, False),       # left-handed region, outside both
    (-179.0, -170.0, False),
    # the bounds are exclusive on both sides of both boxes
    (-120.0, -45.0, False), (-30.0, -45.0, False), (-60.0, -80.0, False), (-60.0, 20.0, False),
    (-170.0, 130.0, False), (-70.0, 130.0, False), (-120.0, 90.0, False), (-120.0, 180.0, False),
    (-119.9, -79.9, True), (-30.1, 19.9, True), (-169.9, 179.9, True), (-69.9, 90.1, False),
])
def test_torsion_coherence_counts_helix_and_sheet_torsions(phi, psi, favored):
    assert theory.torsion_coherence(np.array([phi]), np.array([psi])) == float(favored)


def test_torsion_coherence_is_the_favored_fraction():
    phi = np.array([-60.0, -120.0, 60.0, 0.0])
    psi = np.array([-45.0, 130.0, 60.0, 0.0])
    assert theory.torsion_coherence(phi, psi) == 0.5
    assert theory.torsion_coherence(np.zeros(0), np.zeros(0)) == 0.0


def test_accessibility_proxy_counts_heavy_atoms_and_aromatic_rings():
    ring = [Atom("C", (math.cos(a), math.sin(a), 0.0), 1.7, "sp2")
            for a in np.linspace(0.0, 2 * math.pi, 6, endpoint=False)]
    hydrogens = [Atom("H", (2.0 * math.cos(a), 2.0 * math.sin(a), 0.0), 1.1)
                 for a in np.linspace(0.0, 2 * math.pi, 6, endpoint=False)]
    bonds = ([Bond(i, (i + 1) % 6, 1.5) for i in range(6)]
             + [Bond(i, 6 + i, 1.0) for i in range(6)])
    benzene = MolecularStructure(ring + hydrogens, bonds, molecule_type="small-molecule")
    # 6 heavy atoms and one aromatic ring: 1 + 0.05 * 6 + 0.8 * 1
    assert theory.accessibility_proxy(benzene) == pytest.approx(2.1)
    water = MolecularStructure([Atom("O", (0.0, 0.0, 0.0), 1.52, "sp3"),
                                Atom("H", (0.96, 0.0, 0.0), 1.1),
                                Atom("H", (-0.24, 0.93, 0.0), 1.1)],
                               [Bond(0, 1, 1.0), Bond(0, 2, 1.0)],
                               molecule_type="small-molecule")
    assert theory.accessibility_proxy(water) == pytest.approx(1.05)
