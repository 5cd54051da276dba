"""Stage 1: the distance field, projection, features, and patch partition."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dockinv import autodiff as ad
from dockinv import surface as sf
from dockinv.equivariant import random_rotation
from dockinv.structures import Atom, MolecularStructure, Residue
from dockinv.toydata import random_molecule, random_protein, toy_config


def single_atom(radius=1.5):
    return (np.zeros((1, 3)), np.array([radius]))


class TestSdf:
    def test_single_atom_collapses_to_distance(self):
        coords, radii = single_atom(1.5)
        val = sf.smoothed_sdf(np.array([3.0, 0.0, 0.0]), coords, radii)
        assert abs(val.item() - 3.0) < 1e-12

    def test_two_atom_closed_form(self):
        coords = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        radii = np.array([1.0, 1.0])
        val = sf.smoothed_sdf(np.zeros(3), coords, radii)
        assert abs(val.item() - (1.0 - np.log(2.0))) < 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        coords = rng.standard_normal((6, 3)) * 2
        radii = rng.uniform(1.2, 1.9, 6)
        for _ in range(5):
            x0 = rng.standard_normal(3) * 3

            def f(x):
                return sf.smoothed_sdf(x, coords, radii)

            report = ad.grad_check(f, x0, step=1e-5, tolerance=1e-6)
            assert report.passed, report

    def test_numpy_path_agrees_with_graph(self):
        rng = np.random.default_rng(8)
        coords = rng.standard_normal((5, 3))
        radii = rng.uniform(1.2, 1.9, 5)
        pts = rng.standard_normal((10, 3)) * 2
        sdf, grad = sf.sdf_value_grad(pts, coords, radii)
        for i in range(10):
            xt = ad.param(pts[i])
            out = sf.smoothed_sdf(xt, coords, radii)
            ad.backward(out)
            assert abs(out.item() - sdf[i]) < 1e-12
            np.testing.assert_allclose(xt.grad, grad[i], atol=1e-12)

    def test_empty_atoms_error(self):
        with pytest.raises((ad.DomainError, sf.SurfaceError)):
            sf.smoothed_sdf(np.zeros(3), np.zeros((0, 3)), np.zeros(0))


def sdf_case(n_points, n_atoms, seed):
    """Points scattered around random atoms, as projection candidates are."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n_atoms, 3)) * 6
    radii = rng.uniform(1.2, 2.0, n_atoms)
    pts = coords[rng.integers(0, n_atoms, n_points)] + rng.standard_normal((n_points, 3)) * 1.5
    return pts, coords, radii


class TestSdfKernel:
    """sdf_value_grad evaluates points in row blocks; blocking is invisible."""

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_rows_bitwise_equal_to_one_point_calls(self, blocks, extra):
        n_atoms = 60
        n = blocks * (sf._SDF_BLOCK_BYTES // (n_atoms * 3 * 8)) + extra
        pts, coords, radii = sdf_case(n, n_atoms, seed=n)
        sdf, grad = sf.sdf_value_grad(pts, coords, radii)
        for i in range(n):
            s1, g1 = sf.sdf_value_grad(pts[i], coords, radii)
            assert s1[0] == sdf[i]
            assert np.array_equal(g1[0], grad[i])

    def test_rows_agree_with_graph_across_blocks(self, monkeypatch):
        pts, coords, radii = sdf_case(23, 40, seed=3)
        monkeypatch.setattr(sf, "_SDF_BLOCK_BYTES", 7 * 40 * 3 * 8)   # 7-row blocks
        sdf, grad = sf.sdf_value_grad(pts, coords, radii)
        x = ad.param(pts)
        out = sf.smoothed_sdf(x, coords, radii)
        ad.backward(ad.reduce_sum(out))
        np.testing.assert_allclose(sdf, out.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, x.grad, rtol=0, atol=1e-12)

    def test_point_on_atom_centre_and_far_point_are_finite(self):
        _, coords, radii = sdf_case(1, 30, seed=4)
        far = coords[0] + np.array([1000.0, 0.0, 0.0])
        sdf, grad = sf.sdf_value_grad(np.stack([coords[5], far]), coords, radii)
        assert np.all(np.isfinite(sdf)) and np.all(np.isfinite(grad))
        assert abs(sdf[1] - sf.smoothed_sdf(far, coords, radii).item()) < 1e-9

    def test_peak_memory_is_bounded_by_the_block(self):
        pts, coords, radii = sdf_case(4000, 200, seed=5)
        tracemalloc.start()
        try:
            sf.sdf_value_grad(pts, coords, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (P, A, 3) float64 array would take 19.2 MB
        assert peak < 16e6


class TestSdfCallContract:
    """Stage 1 reaches the kernel through the module attribute, one call per
    evaluation over every point (the benchmark's span hooks rely on it)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        kernel = sf.sdf_value_grad

        def spy(points, coords, radii):
            seen.append(np.atleast_2d(points).shape[0])
            return kernel(points, coords, radii)

        monkeypatch.setattr(sf, "sdf_value_grad", spy)
        return seen

    def test_projection_calls_once_per_step_plus_acceptance(self, calls):
        structure = random_protein(5, n_residues=3)
        cands = sf.sample_candidates(structure, 4, 1.0, np.random.default_rng(0))
        sf.project_to_isosurface(cands, structure.coords, structure.radii, 1.4, 6, 0.1)
        assert calls == [len(cands)] * 7

    def test_normals_call_once(self, calls):
        coords, radii = single_atom(1.4)
        pts = np.array([[1.4, 0, 0], [0, 1.4, 0], [0, 0, -1.4]])
        sf.estimate_normals(pts, coords, radii)
        assert calls == [3]


class TestProjection:
    def test_single_atom_converges_to_probe_radius(self):
        coords, radii = single_atom(1.4)
        cands = np.array([[3.0, 0, 0], [0, 2.5, 0], [0, 0, -4.0]])
        pts = sf.project_to_isosurface(cands, coords, radii, 1.4, 60, 0.3)
        assert len(pts) == 3
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.4, atol=1e-3)

    def test_point_on_surface_is_fixed(self):
        coords, radii = single_atom(1.4)
        start = np.array([[1.4, 0.0, 0.0]])
        pts = sf.project_to_isosurface(start, coords, radii, 1.4, 50, 0.3)
        np.testing.assert_allclose(pts, start, atol=1e-9)

    def test_exact_sample_count_and_tolerance(self):
        structure = random_protein(5, n_residues=3)
        cfg = toy_config()
        rng = np.random.default_rng(0)
        cands = sf.sample_candidates(structure, 12, cfg.sigma_upsample, rng, minimum=200)
        pts = sf.project_to_isosurface(cands, structure.coords, structure.radii,
                                       cfg.r_probe, cfg.t_sdf, cfg.alpha_sdf,
                                       tol=1e-3, m=96, rng=rng)
        assert pts.shape == (96, 3)
        sdf, _ = sf.sdf_value_grad(pts, structure.coords, structure.radii)
        assert np.abs(sdf - cfg.r_probe).max() <= 1e-3

    def test_insufficient_survivors_reports_count(self):
        coords, radii = single_atom(1.4)
        cands = np.array([[3.0, 0, 0]])
        with pytest.raises(sf.InsufficientSurfaceError) as err:
            sf.project_to_isosurface(cands, coords, radii, 1.4, 50, 0.3, m=10,
                                     rng=np.random.default_rng(0))
        assert err.value.survivors == 1
        assert err.value.requested == 10


class TestNormals:
    def test_single_atom_radial_both_modes(self):
        coords, radii = single_atom(1.4)
        p = np.array([[0.0, 1.4, 0.0]])
        for mode in ("sdf-gradient", "weighted-pca"):
            n = sf.estimate_normals(p, coords, radii, mode)
            np.testing.assert_allclose(n, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_pca_agrees_with_sdf_gradient(self):
        structure = random_protein(3, n_residues=3)
        cfg = toy_config()
        cloud, _ = sf.build_surface(structure, cfg, seed=4)
        n_sdf = sf.estimate_normals(cloud.points, structure.coords, structure.radii,
                                    "sdf-gradient")
        n_pca = sf.estimate_normals(cloud.points, structure.coords, structure.radii,
                                    "weighted-pca")
        dots = (n_sdf * n_pca).sum(axis=1)
        assert np.mean(dots > 0.9) >= 0.95

    def test_inversion_flips_normals(self):
        structure = random_protein(9, n_residues=3)
        coords, radii = structure.coords, structure.radii
        rng = np.random.default_rng(1)
        pts = sf.project_to_isosurface(
            sf.sample_candidates(structure, 10, 1.0, rng), coords, radii, 1.4, 60, 0.3)
        n1 = sf.estimate_normals(pts, coords, radii, "sdf-gradient")
        n2 = sf.estimate_normals(-pts, -coords, radii, "sdf-gradient")
        np.testing.assert_allclose(n2, -n1, atol=1e-9)


def structure_of(elements, positions, hyb=None):
    atoms = [
        Atom(e, tuple(p), {"C": 1.7, "O": 1.52, "N": 1.55, "S": 1.8, "H": 1.2, "SE": 1.9}[e],
             (hyb or {}).get(i))
        for i, (e, p) in enumerate(zip(elements, positions))
    ]
    return MolecularStructure(atoms, [], [Residue("ALA", "A", tuple(range(len(atoms))))],
                              "protein")


class TestChemicalFeatures:
    def test_all_carbon_neighborhood(self):
        s = structure_of(["C", "C", "C"], [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        out, empty = sf.chemical_features(np.zeros((1, 3)), s)
        h_bond, charge, phob, aro = out[0]
        assert h_bond == 0.0
        assert abs(charge + 1.0) < 1e-12
        assert abs(phob - 1.0) < 1e-12
        assert abs(aro - 1.0 / 4.5) < 1e-12
        assert not empty[0]

    def test_all_oxygen_saturates(self):
        s = structure_of(["O", "O"], [[1.0, 0, 0], [0, 1.0, 0]])
        out, _ = sf.chemical_features(np.zeros((1, 3)), s)
        h_bond, charge, phob, aro = out[0]
        assert h_bond == 1.0 and charge == 1.0 and phob == 0.0 and aro == 0.0

    def test_empty_neighborhood_flagged(self):
        s = structure_of(["C"], [[50.0, 0, 0]])
        out, empty = sf.chemical_features(np.zeros((1, 3)), s, r_chem=5.0)
        np.testing.assert_array_equal(out[0], np.zeros(4))
        assert empty[0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_ranges_on_fuzzed_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        elems = [["C", "O", "N", "S", "H"][i] for i in rng.integers(0, 5, n)]
        s = structure_of(elems, rng.standard_normal((n, 3)) * 3)
        pts = rng.standard_normal((4, 3)) * 3
        chem, _ = sf.chemical_features(pts, s)
        atom, empty = sf.atomic_features(pts, s)
        assert np.all(chem[:, 0] >= 0) and np.all(chem[:, 0] <= 1)
        assert np.all(chem[:, 1] >= -1) and np.all(chem[:, 1] <= 1)
        assert np.all(chem[:, 2] >= 0) and np.all(chem[:, 2] <= 1)
        assert np.all(chem[:, 3] >= 0) and np.all(chem[:, 3] <= 1)
        sums = atom.sum(axis=1)
        assert np.all(np.abs(sums[~empty] - 1.0) < 1e-9)
        assert np.all(sums[empty] == 0.0)


class TestAtomicFeatures:
    def test_single_carbon_one_hot(self):
        s = structure_of(["C"], [[1.0, 0, 0]])
        out, _ = sf.atomic_features(np.zeros((1, 3)), s)
        np.testing.assert_allclose(out[0], [1, 0, 0, 0, 0, 0])

    def test_equidistant_pair_splits_evenly(self):
        s = structure_of(["C", "O"], [[1.0, 0, 0], [-1.0, 0, 0]])
        out, _ = sf.atomic_features(np.zeros((1, 3)), s)
        assert abs(out[0][0] - 0.5) < 1e-12  # C
        assert abs(out[0][2] - 0.5) < 1e-12  # O

    def test_probe_scaled_weighting(self):
        s = structure_of(["C", "O"], [[1.4, 0, 0], [-2.8, 0, 0]])
        out, _ = sf.atomic_features(np.zeros((1, 3)), s, r_probe=1.4, eps=1e-6)
        w1, w2 = 1.0 / (1.0 + 1e-6), 1.0 / (2.0 + 1e-6)
        np.testing.assert_allclose(out[0][0], w1 / (w1 + w2), atol=1e-12)
        np.testing.assert_allclose(out[0][2], w2 / (w1 + w2), atol=1e-12)


class TestGeometricFeatures:
    def test_identical_normals_zero_curvature(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 3))
        normals = np.tile([0.0, 0.0, 1.0], (12, 1))
        out = sf.geometric_features(pts, normals, k_geom=5)
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-15)

    def test_coplanar_neighborhood_zero_det(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.standard_normal((12, 2)), np.zeros((12, 1))], axis=1)
        normals = np.tile([0.0, 0.0, 1.0], (12, 1))
        out = sf.geometric_features(pts, normals, k_geom=6)
        np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-18)

    def test_isotropic_gaussian_unit_det(self):
        rng = np.random.default_rng(2)
        # sample-covariance oracle at 10^4 points pins the estimator
        sample = rng.standard_normal((10_000, 3))
        cov = np.cov(sample.T, bias=True)
        assert abs(np.linalg.det(cov) - 1.0) < 0.05
        # the feature path reproduces it on a (smaller) full-neighborhood cloud
        pts = rng.standard_normal((1200, 3))
        normals = np.tile([0.0, 0.0, 1.0], (1200, 1))
        out = sf.geometric_features(pts, normals, k_geom=1199)
        assert abs(out[0, 1] - 1.0) < 0.2

    def test_cloud_too_small(self):
        with pytest.raises(sf.SurfaceError):
            sf.geometric_features(np.zeros((4, 3)), np.zeros((4, 3)), k_geom=10)


class TestAssemble:
    def test_protein_layout_17(self, receptor_cloud):
        cloud, _ = receptor_cloud
        assert cloud.features.shape[1] == 17
        assert np.all(cloud.features[:, 13] == 0.0)  # type flag
        np.testing.assert_array_equal(cloud.features[:, 14:17], cloud.points)

    def test_molecule_layout_19(self, toy_cfg):
        mol = random_molecule(4)
        cloud, _ = sf.build_surface(mol, toy_cfg, seed=2)
        assert cloud.features.shape[1] == 19
        assert np.all(cloud.features[:, 15] == 1.0)


def brute_force_fps(points, count, start):
    chosen = [start]
    n = len(points)
    while len(chosen) < count:
        best_i, best_d = -1, -1.0
        for i in range(n):
            d = min(np.linalg.norm(points[i] - points[j]) for j in chosen)
            if d > best_d + 1e-15:
                best_d, best_i = d, i
        chosen.append(best_i)
    return np.array(chosen)


class TestFps:
    def test_collinear_forced_choice(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        idx = sf.fps(pts, 2, start=0)
        assert set(idx) == {0, 2}

    def test_select_all_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((20, 3))
        a = sf.fps(pts, 20)
        b = sf.fps(pts, 20)
        np.testing.assert_array_equal(a, b)
        assert sorted(a) == list(range(20))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((200, 3))
        centroid = pts.mean(axis=0)
        start = int(np.argmax(np.linalg.norm(pts - centroid, axis=1)))
        fast = sf.fps(pts, 40)
        slow = brute_force_fps(pts, 40, start)
        np.testing.assert_array_equal(fast, slow)

    def test_count_exceeds_n(self):
        with pytest.raises(sf.SurfaceError):
            sf.fps(np.zeros((3, 3)), 4)

    def test_ratio_argument(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 3))
        idx = sf.fps(pts, 0.25)
        assert len(idx) == 10


class TestKnn:
    def test_coincident_center(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        members, relaxed = sf.knn(pts[[0]], pts, 1)
        assert members[0, 0] == 0
        assert not relaxed[0]

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0]])
        members, _ = sf.knn(np.zeros((1, 3)), pts, 2)
        np.testing.assert_array_equal(members[0], [0, 1])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((500, 3))
        centers = pts[rng.choice(500, 20, replace=False)]
        members, _ = sf.knn(centers, pts, 12)
        for c in range(20):
            dists = np.linalg.norm(pts - centers[c], axis=1)
            expected = sorted(range(500), key=lambda i: (dists[i], i))[:12]
            np.testing.assert_array_equal(sorted(members[c]), sorted(expected))

    def test_radius_relaxation_flag(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [50.0, 0, 0]])
        members, relaxed = sf.knn(pts[[0]], pts, 3, r_patch=5.0)
        assert relaxed[0]
        assert members.shape == (1, 3)

    def test_too_few_points(self):
        with pytest.raises(sf.SurfaceError):
            sf.knn(np.zeros((1, 3)), np.zeros((2, 3)), 3)


class TestPooling:
    def test_constant_features_zero_variance(self):
        feats = np.ones((6, 4)) * 3.3
        members = np.array([[0, 1, 2], [3, 4, 5]])
        mean, var = sf.pool_patch_stats(feats, members)
        np.testing.assert_allclose(mean, 3.3)
        np.testing.assert_allclose(var, 0.0, atol=1e-25)

    def test_population_variance(self):
        feats = np.array([[0.0], [2.0]])
        members = np.array([[0, 1]])
        mean, var = sf.pool_patch_stats(feats, members)
        assert mean[0, 0] == 1.0
        assert var[0, 0] == 1.0

    def test_unlabeled_without_partner(self):
        labels, labeled = sf.interface_labels(np.zeros((4, 3)), np.array([[0, 1], [2, 3]]),
                                              None, 4.0)
        assert not labeled
        np.testing.assert_array_equal(labels, 0.0)

    def test_interface_cutoff(self):
        pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        members = np.array([[0], [1]])
        partner = np.array([[0.0, 3.0, 0.0]])
        labels, labeled = sf.interface_labels(pts, members, partner, 4.0)
        assert labeled
        np.testing.assert_array_equal(labels, [1.0, 0.0])


class TestConstructionEquivariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rigid_motion_commutes(self, seed, toy_cfg):
        structure = random_protein(100 + seed, n_residues=3)
        rng = np.random.default_rng(seed)
        rot = random_rotation(rng)
        shift = rng.standard_normal(3) * 8
        moved = structure.transformed(rot, shift)

        c1, p1 = sf.build_surface(structure, toy_cfg, seed=33)
        c2, p2 = sf.build_surface(moved, toy_cfg, seed=33)

        np.testing.assert_allclose(c2.points, c1.points @ rot.T + shift, atol=1e-6)
        np.testing.assert_allclose(c2.normals, c1.normals @ rot.T, atol=1e-9)
        # non-coordinate features are invariant; the coordinate block moves
        np.testing.assert_allclose(c2.features[:, :14], c1.features[:, :14], atol=1e-9)
        np.testing.assert_allclose(c2.features[:, 14:], c1.features[:, 14:] @ rot.T + shift,
                                   atol=1e-6)
        np.testing.assert_array_equal(p1.center_indices, p2.center_indices)
        np.testing.assert_array_equal(p1.member_indices, p2.member_indices)

    def test_build_residuals_within_tolerance(self, receptor_structure, receptor_cloud, toy_cfg):
        cloud, _ = receptor_cloud
        sdf, _ = sf.sdf_value_grad(cloud.points, receptor_structure.coords,
                                   receptor_structure.radii)
        assert np.abs(sdf - toy_cfg.r_probe).max() <= 1e-3

    def test_patch_invariants(self, receptor_cloud, toy_cfg):
        cloud, patches = receptor_cloud
        k = toy_cfg.patch_k
        assert patches.member_indices.shape[1] == k
        for row, center in zip(patches.member_indices, patches.center_indices):
            assert len(set(row.tolist())) == k
            assert center in row
