"""Stages 2-4 on real pipeline objects: the inversion objective's gradient,
repair invariants, decode and training determinism, checkpoint resume."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import write_pdb
import per_op

from dockinv import autodiff as ad
from dockinv import equivariant, fileio, finetune, inversion, neighbors, surface, theory, toydata
from dockinv.config import RunConfig
from dockinv.finetune import (ComplexSample, build_complex_sample, complex_terms, finetune_loss,
                              finetune_run, geometric_pseudolabels, load_complex_dir,
                              weighted_total)
from dockinv.model import HEAD_ORDERS, PipelineModel, as_tensors
from dockinv.pretrain import PretrainSample, pretrain_loss, pretrain_run
from dockinv.structures import AMINO_ACIDS, write_molecule
from dockinv.surface import PatchSet, SurfacePointCloud, build_surface


@pytest.fixture(scope="module")
def ctx(mdl, init_params, receptor_cloud):
    return inversion.prepare_receptor(mdl, init_params, receptor_cloud[0])


@pytest.fixture(scope="module")
def start(ctx, mdl, init_params, toy_cfg):
    return inversion.initial_state(ctx, mdl, init_params, toy_cfg, "small-molecule", seed=0)


def test_objective_gradient_matches_central_differences(toy_cfg, mdl, init_params, ctx, start):
    frozen = inversion.frozen_structure(start, ctx, mdl, toy_cfg)
    for seed, kind in enumerate(("x", "f")):
        fn = theory.objective_of(kind, start, ctx, mdl, init_params, toy_cfg, frozen)
        report = ad.grad_check(fn, getattr(start, kind), step=1e-5, tolerance=1e-5, sample=8,
                               rng=np.random.default_rng(seed))
        assert report.passed, (kind, report)
        assert np.abs(report.analytic).max() > 1e-4, kind  # not a vacuous match


def _objective_tensors(start, ctx, mdl, params, cfg, need_grad=True):
    """(parts, gx, gf, tensors created) of one composite_objective call."""
    before = ad.constant(0.0).node_id
    parts, gx, gf, _ = inversion.composite_objective(start, ctx, mdl, params, cfg,
                                                     need_grad=need_grad)
    return parts, gx, gf, ad.constant(0.0).node_id - before - 1


def test_objective_tensor_count_stays_bounded(toy_cfg, mdl, init_params, ctx, start):
    # every tensor draws a node_id; written per op, the conv and _geom_block
    # alone brought the count to 678, encoding orders 1 and 2 that no head
    # reads to 383, and conv_geometry, the coupled harmonics and the omega
    # weights to 335; attention over order-0 matrices, each reshaped once,
    # brought it from 190 to 178; the attended block, the three MLP heads and
    # the two bce terms as one node each (weights read in place, not lifted
    # to constants) brought it to 115; leaving the coordinates out of the
    # state's feature matrix brought it to 114. Every tensor is Python
    # overhead on every step
    for need_grad in (True, False):
        count = _objective_tensors(start, ctx, mdl, init_params, toy_cfg, need_grad)[3]
        assert count <= 114, need_grad


def test_objective_over_head_orders_matches_full_encode(toy_cfg, mdl, init_params,
                                                        receptor_cloud, monkeypatch):
    # the receptor and ligand encodes compute order 0 only; an objective over
    # full encodes gives bitwise the same F and gradients from more tensors
    def run():
        ctx_ = inversion.prepare_receptor(mdl, init_params, receptor_cloud[0])
        start_ = inversion.initial_state(ctx_, mdl, init_params, toy_cfg, "small-molecule", 0)
        return ctx_, _objective_tensors(start_, ctx_, mdl, init_params, toy_cfg)

    ctx_got, (parts, gx, gf, count) = run()
    full_encode = PipelineModel.encode
    monkeypatch.setattr(PipelineModel, "encode",
                        lambda self, *args, orders=None, **kw: full_encode(self, *args, **kw))
    ctx_ref, (parts_ref, gx_ref, gf_ref, count_ref) = run()
    assert sorted(ctx_got.field_values) == [0] and sorted(ctx_ref.field_values) == [0, 1]
    assert ctx_got.field_values[0].tobytes() == ctx_ref.field_values[0].tobytes()
    assert parts == parts_ref
    assert gx.tobytes() == gx_ref.tobytes() and gf.tobytes() == gf_ref.tobytes()
    assert count < count_ref


def test_finetune_loss_is_the_weighted_total_of_complex_terms(toy_cfg, mdl, init_params,
                                                             complex_corpus):
    # stage 3 on a one-sample batch is the shared complex objective, bitwise,
    # in its value and in every parameter gradient
    sample = complex_corpus[0][0]
    assert sample.delta_g is not None
    params_batch, params_one = as_tensors(init_params), as_tensors(init_params)
    total, _ = finetune_loss(mdl, params_batch, [sample], toy_cfg)
    zr = mdl.encode(params_one, sample.receptor.features, sample.receptor.points, "protein",
                    geom=sample.receptor_geom, orders=HEAD_ORDERS)
    zl = mdl.encode(params_one, sample.ligand.features, sample.ligand.points,
                    sample.ligand.molecule_type, geom=sample.ligand_geom, orders=HEAD_ORDERS)
    y_geom = geometric_pseudolabels(sample.receptor.points, sample.ligand.points,
                                    toy_cfg.interface_cutoff_ligand)
    lp, li, lg, _ = complex_terms(mdl, params_one, zr, zl, sample.pocket_labels, y_geom,
                                  sample.y_int, sample.delta_g, toy_cfg)
    one = weighted_total(lp, li, lg, toy_cfg)
    assert one.values.tobytes() == total.values.tobytes()
    ad.backward(total)
    ad.backward(one)
    for name in init_params:
        a, b = params_batch[name].grad, params_one[name].grad
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


class _ReadRecorder(dict):
    """A parameter dict that records every name read from it."""

    def __init__(self, params, reads: set):
        super().__init__(params)
        self.reads = reads

    def __getitem__(self, name):
        self.reads.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        if name in self:
            self.reads.add(name)
        return super().get(name, default)


def test_parameters_no_stage_reads(toy_cfg, mdl, init_params, surface_corpus, complex_corpus,
                                   receptor_cloud):
    reads: set = set()
    assert {s.cloud.molecule_type for s in surface_corpus} == {"protein", "small-molecule"}
    pretrain_loss(mdl, _ReadRecorder(as_tensors(init_params), reads), surface_corpus, toy_cfg, 0)
    finetune_loss(mdl, _ReadRecorder(as_tensors(init_params), reads), complex_corpus[0], toy_cfg)
    params = _ReadRecorder(init_params, reads)
    ctx = inversion.prepare_receptor(mdl, params, receptor_cloud[0])
    for mode in ("continuous-pgd", "discrete-accept"):
        inversion.run_inversion(ctx, mdl, params, toy_cfg, seed=0, mode=mode, steps=2)
    assert sorted(set(mdl.param_shapes()) - reads) == []


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
# the config's own checks, hash and copies read every field; they do not count
_CONFIG_BOOKKEEPING = {"validate", "digest", "replace", "_replace", "__repr__"}


class _ConfigReadRecorder(RunConfig):
    """A RunConfig that records every field the pipeline reads from it."""

    reads: set = set()

    def __getattribute__(self, name):
        if name in _CONFIG_FIELDS and sys._getframe(1).f_code.co_name not in _CONFIG_BOOKKEEPING:
            _ConfigReadRecorder.reads.add(name)
        return object.__getattribute__(self, name)


def test_config_fields_all_read(toy_cfg):
    # a field no stage reads is a setting that changes nothing
    _ConfigReadRecorder.reads = set()
    values = {name: getattr(toy_cfg, name) for name in _CONFIG_FIELDS}
    cfg = _ConfigReadRecorder(**{**values, "t_invert": 11})
    mdl = PipelineModel(cfg)
    surfaces = toydata.toy_surface_corpus(2, cfg, mdl, seed=1)
    complexes, _ = toydata.toy_complex_corpus(2, cfg, mdl, seed=2)
    params, _ = pretrain_run(surfaces, cfg, steps=1, mdl=mdl, batch_size=2)
    params, _ = finetune_run(complexes, cfg, steps=1, mdl=mdl, params=params, batch_size=2)
    cloud, _ = build_surface(toydata.fixture_receptor(), cfg, seed=11)
    ctx = inversion.prepare_receptor(mdl, params, cloud)
    assert len(inversion.run_inversion(ctx, mdl, params, cfg, seed=0).trace) == 11
    for molecule_type in ("small-molecule", "protein"):
        inversion.run_inversion(ctx, mdl, params, cfg, seed=0, molecule_type=molecule_type,
                                mode="discrete-accept", steps=2)
    assert sorted(_CONFIG_FIELDS - _ConfigReadRecorder.reads) == []


def _recording(sample, reads: set, **children):
    """A copy of the dataclass ``sample``, with the fields in ``children``
    replaced, that records each field read from it into ``reads`` as
    ``Class.field``. The copy is not made through ``__init__``, whose checks
    would read every field."""
    cls = type(sample)
    names = {f.name for f in dataclasses.fields(cls)}

    class Recorder(cls):
        def __getattribute__(self, name):
            if name in names:
                reads.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)

    recorder = object.__new__(Recorder)
    recorder.__dict__.update(vars(sample), **children)
    return recorder


def test_sample_fields_all_read(toy_cfg, mdl, surface_corpus, complex_corpus, receptor_cloud):
    # a stored field no stage reads is work the corpus and cloud builders waste
    reads: set = set()
    surfaces = [_recording(s, reads, cloud=_recording(s.cloud, reads),
                           patches=_recording(s.patches, reads))
                for s in surface_corpus[:2]]
    complexes = [_recording(s, reads, receptor=_recording(s.receptor, reads),
                            ligand=_recording(s.ligand, reads))
                 for s in complex_corpus[0][:2]]
    params, _ = pretrain_run(surfaces, toy_cfg, steps=1, mdl=mdl, batch_size=2)
    params, _ = finetune_run(complexes, toy_cfg, steps=1, mdl=mdl, params=params, batch_size=2)
    ctx = inversion.prepare_receptor(mdl, params, _recording(receptor_cloud[0], reads))
    inversion.run_inversion(ctx, mdl, params, toy_cfg, seed=0, steps=2)
    fields = {f"{cls.__name__}.{f.name}"
              for cls in (SurfacePointCloud, PatchSet, PretrainSample, ComplexSample)
              for f in dataclasses.fields(cls)}
    assert sorted(fields - reads) == []


def geom_block_per_op_reference(x, x_np, k_geom):
    """inversion._geom_block as about 59 autodiff ops, as it ran before its
    hand-written vjp: the same numpy calls in the same order."""
    n = x_np.shape[0]
    k = min(k_geom, n - 1)
    nbr, _ = neighbors.knn(x_np, x_np, k, exclude_self=True)
    nbr_pts = ad.reshape(ad.gather(x, nbr.reshape(-1)), (n, k, 3))
    mu = ad.reduce_mean(nbr_pts, axis=1, keepdims=True)
    c = ad.sub(nbr_pts, mu)
    cov = {}
    for a in range(3):
        for b in range(a, 3):
            cov[(a, b)] = ad.reduce_mean(ad.mul(c[:, :, a], c[:, :, b]), axis=1)
    trace = ad.add(ad.add(cov[(0, 0)], cov[(1, 1)]), cov[(2, 2)])
    det = ad.sub(
        ad.add(
            ad.mul(cov[(0, 0)], ad.sub(ad.mul(cov[(1, 1)], cov[(2, 2)]),
                                       ad.mul(cov[(1, 2)], cov[(1, 2)]))),
            ad.mul(cov[(0, 2)], ad.sub(ad.mul(cov[(0, 1)], cov[(1, 2)]),
                                       ad.mul(cov[(1, 1)], cov[(0, 2)])))),
        ad.mul(cov[(0, 1)], ad.sub(ad.mul(cov[(0, 1)], cov[(2, 2)]),
                                   ad.mul(cov[(1, 2)], cov[(0, 2)]))),
    )
    diffs = ad.sub(nbr_pts, ad.reshape(x, (n, 1, 3)))
    dists = per_op.power(ad.add(ad.reduce_sum(ad.mul(diffs, diffs), axis=2), 1e-24), 0.5)
    d_raw = ad.reduce_mean(dists, axis=1)
    density = ad.div(d_raw, ad.add(d_raw, 2.0))
    return ad.concat([ad.reshape(ad.mul(trace, 0.1), (n, 1)), ad.reshape(det, (n, 1)),
                      ad.reshape(density, (n, 1))], axis=1)


@pytest.mark.parametrize("n, k_geom", [(24, 8), (12, 8), (5, 8)])
def test_geom_block_matches_per_op_reference(n, k_geom):
    rng = np.random.default_rng(n)
    x_np = rng.standard_normal((n, 3)) * 1.5
    weights = rng.standard_normal((n, 3))
    results = []
    for block in (inversion._geom_block, geom_block_per_op_reference):
        x = ad.param(x_np)
        out = block(x, x_np, k_geom)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        results.append((out.values, x.grad))
    (got, got_grad), (ref, ref_grad) = results
    assert got.tobytes() == ref.tobytes()
    assert np.abs(got_grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    assert inversion._geom_block(ad.constant(x_np), x_np, k_geom).values.tobytes() == ref.tobytes()


def test_geom_block_coordinate_grad_check_on_twelve_points():
    rng = np.random.default_rng(20)
    x_np = rng.standard_normal((12, 3))
    weights = rng.standard_normal((12, 3))

    def fn(x):
        # the neighbourhoods stay those of x_np, as in one objective call
        return ad.reduce_sum(ad.mul(inversion._geom_block(x, x_np, 8), weights))

    report = ad.grad_check(fn, x_np, step=1e-6, tolerance=1e-6)
    assert report.passed, report
    assert np.abs(report.analytic).max() > 1e-2


@pytest.mark.parametrize("cfg", [toydata.toy_config(), RunConfig().validate()],
                         ids=["toy", "default"])
def test_pairwise_omega_matches_per_op_reference(cfg):
    rng = np.random.default_rng(21)
    x_np = rng.standard_normal((24, 3)) * 3.0
    off = ~np.eye(24, dtype=bool)
    dist = neighbors.distances(x_np, x_np)[off]
    assert (dist <= cfg.r_chem).any() and (dist > cfg.r_chem).any()   # both sides of the mask
    weights = rng.standard_normal((24, 24))
    results = []
    for omega in (inversion._pairwise_omega, per_op.pairwise_omega):
        x = ad.param(x_np)
        out = omega(x, x_np, cfg.r_chem, cfg.r_probe, cfg.eps_omega)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        results.append((out.values, x.grad))
    (got, got_grad), (ref, ref_grad) = results
    assert got.tobytes() == ref.tobytes()
    assert np.abs(got_grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    no_grad = inversion._pairwise_omega(ad.constant(x_np), x_np, cfg.r_chem, cfg.r_probe,
                                        cfg.eps_omega)
    assert no_grad.values.tobytes() == ref.tobytes()
    assert no_grad.op == "omega" and no_grad._node is None


def test_pairwise_omega_coordinate_grad_check_on_twelve_points(toy_cfg):
    rng = np.random.default_rng(22)
    x_np = rng.standard_normal((12, 3)) * 2.0
    weights = rng.standard_normal((12, 12))

    def fn(x):
        # the cutoff mask stays that of x_np, as in one objective call
        out = inversion._pairwise_omega(x, x_np, toy_cfg.r_chem, toy_cfg.r_probe,
                                        toy_cfg.eps_omega)
        return ad.reduce_sum(ad.mul(out, weights))

    report = ad.grad_check(fn, x_np, step=1e-6, tolerance=1e-6)
    assert report.passed, report
    assert np.abs(report.analytic).max() > 1e-2


def _node_inputs(data, weights, weights_as_tensors):
    """``data`` as grad-requiring Tensors, then ``weights`` as such or as numpy arrays."""
    return ([ad.param(a) for a in data]
            + [ad.param(w) if weights_as_tensors else w for w in weights])


def _assert_node_matches_reference(node, reference, data, weights):
    """Value and every parent's gradient of ``node(*inputs)`` are bitwise those
    of ``reference(*inputs)``, with the weights as grad-requiring Tensors and
    as numpy arrays; one grad_check over all inputs passes."""
    for weights_as_tensors in (True, False):
        runs = []
        for fn in (node, reference):
            inputs = _node_inputs(data, weights, weights_as_tensors)
            out = fn(*inputs)
            ad.backward(out, seed=np.random.default_rng(3).standard_normal(out.shape))
            grads = [t.grad.tobytes() for t in inputs if isinstance(t, ad.Tensor)]
            assert len(grads) == len(data) + (len(weights) if weights_as_tensors else 0)
            runs.append((out.values.tobytes(), grads))
        assert runs[0] == runs[1], weights_as_tensors

    arrays = data + weights
    proj = np.random.default_rng(4).standard_normal(node(*_node_inputs(data, weights, False)).shape)

    def fn(flat):
        parts, start = [], 0
        for a in arrays:
            parts.append(ad.reshape(flat[start:start + a.size], a.shape))
            start += a.size
        return ad.reduce_sum(ad.mul(node(*parts), proj))

    report = ad.grad_check(fn, np.concatenate([a.ravel() for a in arrays]), step=1e-6,
                           tolerance=1e-6)
    assert report.passed, report
    assert np.abs(report.analytic).max() > 1e-2


def test_attention_node_matches_per_op_reference():
    rng = np.random.default_rng(30)
    d = 6
    data = [rng.standard_normal((40, d)), rng.standard_normal((24, d))]
    weights = [rng.standard_normal((d, d)) / 2.0 for _ in range(3)]

    def node(receptor, ligand, wq, wk, wv):
        params = {"attn.wq": wq, "attn.wk": wk, "attn.wv0": wv}
        return equivariant.equivariant_attention(receptor, ligand, params)[0]

    _assert_node_matches_reference(node, per_op.attention, data, weights)
    # stage 4's case: a constant receptor field, gradients for the ligand only
    receptor = data[0]
    _assert_node_matches_reference(lambda *args: node(receptor, *args),
                                   lambda *args: per_op.attention(receptor, *args),
                                   data[1:], weights)


@pytest.mark.parametrize("rows", [1, 30])
@pytest.mark.parametrize("sigmoid", [True, False])
def test_mlp_head_node_matches_per_op_reference(mdl, rows, sigmoid):
    rng = np.random.default_rng(31)
    data = [rng.standard_normal((rows, 12))]
    weights = [rng.standard_normal((12, 16)) / 3.0, rng.standard_normal(16),
               rng.standard_normal((16, 1)) / 4.0, rng.standard_normal(1)]

    def node(x, w1, b1, w2, b2):
        return mdl._mlp_head({"h.w1": w1, "h.b1": b1, "h.w2": w2, "h.b2": b2}, "h", x, sigmoid)

    def reference(x, w1, b1, w2, b2):
        return per_op.mlp_head(x, w1, b1, w2, b2, sigmoid)

    _assert_node_matches_reference(node, reference, data, weights)


@pytest.mark.parametrize("target", [np.random.default_rng(33).integers(0, 2, 200) * 1.0,
                                    np.random.default_rng(33).uniform(0.0, 1.0, 200), 1.0],
                         ids=["labels", "soft-labels", "scalar"])
def test_bce_node_matches_per_op_reference(target):
    # predictions away from the clamp, where the gradient is smooth
    pred = np.random.default_rng(32).uniform(0.05, 0.95, 200)
    _assert_node_matches_reference(lambda p: finetune.bce(p, target),
                                   lambda p: per_op.bce(p, target), [pred], [])


def test_bce_node_clamps_like_the_reference():
    # at and beyond the clamp the clip mask zeroes the gradient, as in the op graph
    pred = np.array([0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0])
    for target in (np.array([1.0, 0.0, 1.0, 1.0, 0.0]), 0.0):
        runs = []
        for bce in (finetune.bce, per_op.bce):
            p = ad.param(pred)
            out = bce(p, target)
            ad.backward(out, seed=np.ones(5))
            runs.append((out.values.tobytes(), p.grad.tobytes()))
        assert runs[0] == runs[1]
    with pytest.raises(ad.ShapeError):
        finetune.bce(ad.param(pred), np.ones((2, 5)))


def _valid_lattice(cfg):
    """A 3x3x2 lattice whose nearest neighbours are bonded at mid-range and
    every other pair lies beyond the clash floor: no pair needs a move."""
    spacing = 0.5 * (max(cfg.bond_min, cfg.clash_floor) + cfg.bond_max)
    pts = spacing * np.array([[a, b, c] for a in range(3) for b in range(3) for c in range(2)],
                             dtype=float)
    bonded = np.abs(neighbors.distances(pts, pts) - spacing) < 1e-9
    return pts, bonded


def _boundary_pairs(cfg):
    """Two points on the x axis at each bond or clash boundary and one ulp to
    either side of it, bonded for the bond limits; a third point far away."""
    for bound, is_bonded in ((cfg.bond_min, True), (cfg.bond_max, True),
                             (cfg.clash_floor, False)):
        for d in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
            pts = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0], [0.0, 9.0, 0.0]])
            assert np.linalg.norm(pts[1] - pts[0]) == d
            bonded = np.zeros((3, 3), dtype=bool)
            bonded[0, 1] = bonded[1, 0] = is_bonded
            inside = cfg.bond_min <= d <= cfg.bond_max if is_bonded else d >= cfg.clash_floor
            yield pts, bonded, inside


def test_pair_sweep_matches_two_norm_reference(toy_cfg):
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(40):
        n = int(rng.integers(4, 16))
        pts = rng.standard_normal((n, 3)) * 1.2
        i, j = rng.choice(n, size=2, replace=False)
        pts[j] = pts[i]                                # a coincident pair: the tie-break axis
        bonded = np.triu(rng.random((n, n)) < 0.3, 1)
        cases.append((pts, bonded | bonded.T, None))
    cases.append((*_valid_lattice(toy_cfg), True))
    cases.extend(_boundary_pairs(toy_cfg))
    for trial, (pts, bonded, inside) in enumerate(cases):
        got, ref = pts.copy(), pts.copy()
        for sweep in range(3):
            moved = inversion._pair_sweep(got, bonded, toy_cfg)
            assert moved == per_op.pair_sweep(ref, bonded, toy_cfg), trial
            assert np.array_equal(got, ref), trial
            if sweep == 0 and inside is not None:
                assert (moved == 0.0) == inside, trial


def test_pair_sweep_skips_the_pair_loop_on_a_valid_state(toy_cfg, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the pair loop ran")

    monkeypatch.setattr(inversion, "_pair_target", no_loop)
    pts, bonded = _valid_lattice(toy_cfg)
    got = pts.copy()
    assert inversion._pair_sweep(got, bonded, toy_cfg) == 0.0
    assert np.array_equal(got, pts)
    # a pair one ulp inside a bound is within the check's margin: the loop decides
    pts, bonded, _ = next(_boundary_pairs(toy_cfg))
    with pytest.raises(AssertionError, match="the pair loop ran"):
        inversion._pair_sweep(pts.copy(), bonded, toy_cfg)


def test_close_pairs_match_the_generator_sort():
    rng = np.random.default_rng(24)
    # a unit lattice gives many tied distances; a jittered cloud gives none
    lattice = np.array([[a, b, c] for a in range(3) for b in range(3) for c in range(3)],
                       dtype=float)
    for pts in (lattice, lattice[rng.permutation(len(lattice))],
                rng.standard_normal((20, 3)) * 1.5, np.zeros((1, 3))):
        dist = neighbors.distances(pts, pts)
        for lo, hi in ((-np.inf, 2.0), (1.0, 2.0), (1.0, 1.0), (np.sqrt(2.0), np.inf)):
            got = inversion._close_pairs(dist, lo, hi)
            ref = per_op.close_pairs(dist, lo, hi)
            assert got == ref, (lo, hi)
            assert all(type(i) is int and type(j) is int for _, i, j in got)
        # the unit lattice's 54 edges tie at distance 1, in either point order
        assert len(inversion._close_pairs(dist, 1.0, 1.0)) in (0, 54)


def _assert_bonds_in_range(coords, pairs, cfg):
    for i, j in pairs:
        d = float(np.linalg.norm(coords[i] - coords[j]))
        assert cfg.bond_min <= d <= cfg.bond_max, (i, j, d)


def test_anneal_step_size_falls_from_eta_max_and_stays_above_eta_min(toy_cfg):
    eta_max, eta_min, total = toy_cfg.eta_max, toy_cfg.eta_min, toy_cfg.t_invert
    assert inversion.anneal_step_size(0, total, eta_max, eta_min) == eta_max
    assert eta_min < inversion.anneal_step_size(total - 1, total, eta_max, eta_min) < eta_max
    for t in (-1, total):
        with pytest.raises(ValueError, match="outside"):
            inversion.anneal_step_size(t, total, eta_max, eta_min)


@pytest.mark.parametrize("degrees, wrapped", [
    (-180.0, 180.0), (180.0, 180.0), (540.0, 180.0), (190.0, -170.0),
])
def test_wrap_torsion_into_half_open_interval(degrees, wrapped):
    assert inversion.wrap_torsion(degrees) == wrapped


def test_repair_state_invariants(toy_cfg):
    cfg = toy_cfg
    n = cfg.n_init_points
    returned = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = 1.5 * cfg.sigma_init * rng.standard_normal((n, 3))
        f = 0.1 * rng.standard_normal((n, inversion.MOLECULE_FEATURE_DIM))
        types = inversion._argmax_types(f, "small-molecule")
        try:
            out = inversion.repair_state(x, types, cfg)
        except inversion.RepairError:
            continue
        returned += 1
        budgets = inversion._valence_budgets(types)
        dist_in = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        bonded = set(inversion._greedy_bonds(dist_in, budgets, cfg.bond_max))
        _assert_bonds_in_range(out, bonded, cfg)
        assert theory.clash_count(out, cfg.clash_floor, bonded) == 0
    assert returned >= 1


def _assert_valid_molecule(mol, cfg):
    bonded = {(b.i, b.j) for b in mol.bonds}
    _assert_bonds_in_range(mol.coords, bonded, cfg)
    assert theory.clash_count(mol.coords, cfg.clash_floor, bonded) == 0
    load = np.zeros(len(mol.atoms))
    for b in mol.bonds:
        load[[b.i, b.j]] += b.order
    budgets = inversion._valence_budgets([a.type_label for a in mol.atoms])
    assert np.all(load <= budgets), (load, budgets)


def test_pgd_step_gradient_mapping_is_the_scaled_move(toy_cfg, mdl, init_params, ctx, start):
    _, gx, gf, _ = inversion.composite_objective(start, ctx, mdl, init_params, toy_cfg)
    eta = toy_cfg.eta_max
    new, g = inversion.pgd_step(start, gx, gf, eta, toy_cfg)
    moved = np.concatenate([(start.x - new.x).ravel(), (start.f - new.f).ravel()])
    assert np.array_equal(g, moved / eta)
    # repair projects coordinates only, so the feature block is the gradient
    assert np.allclose(g[start.x.size:], gf.ravel(), rtol=0, atol=1e-9)


def test_pgd_step_raises_when_repair_fails(toy_cfg, start):
    # contracted x0.5 toward its centroid, the start needs more than one sweep
    x = start.x.mean(axis=0) + 0.5 * (start.x - start.x.mean(axis=0))
    dense = inversion.InversionState(x, start.f.copy(), start.molecule_type)
    zeros_x, zeros_f = np.zeros_like(x), np.zeros_like(start.f)
    with pytest.raises(inversion.RepairError):
        inversion.pgd_step(dense, zeros_x, zeros_f, toy_cfg.eta_max,
                           toy_cfg.replace(max_repair_rounds=1))


def test_pgd_accepts_only_sufficient_decrease(toy_cfg, mdl, init_params, ctx, monkeypatch):
    # every accepted step meets F(new; frozen) <= F(old) - eta/2 |G|^2 with
    # frozen held at the old state; accepting every first try breaks it here
    tries, calls = [], []
    pgd_step, objective = inversion.pgd_step, inversion.composite_objective

    def recording_step(state, gx, gf, eta, cfg):
        new, g = pgd_step(state, gx, gf, eta, cfg)
        tries.append((state, gx, gf, eta, new, g))
        return new, g

    def counting_objective(*args, **kwargs):
        calls.append(None)
        return objective(*args, **kwargs)

    monkeypatch.setattr(inversion, "pgd_step", recording_step)
    monkeypatch.setattr(inversion, "composite_objective", counting_objective)
    result = inversion.run_inversion(ctx, mdl, init_params, toy_cfg, seed=0, steps=60)
    monkeypatch.undo()
    assert result.stop_reason in ("target", "budget", "no_descent", "repair_failed")
    # a try is accepted when the run steps on from (or ends at) its new state
    accepted = [a for a, b in zip(tries, tries[1:] + [(result.state,)]) if b[0] is a[4]]
    assert len(accepted) == len(result.trace) >= 10
    for (state, _, _, eta, new, g), rec in zip(accepted, result.trace):
        assert eta == rec["eta"]
        held = inversion.frozen_structure(state, ctx, mdl, toy_cfg)
        parts, *_ = objective(new, ctx, mdl, init_params, toy_cfg, frozen=held)
        assert parts["F"] <= rec["F"] - 0.5 * eta * float(g @ g), rec["t"]
    # each step evaluates its new state once, from the accepted trial or afresh
    fresh = [objective(new, ctx, mdl, init_params, toy_cfg) for *_, new, _ in accepted]
    nexts = [b for a, b in zip(tries, tries[1:]) if b[0] is a[4]]
    for (parts, gx, gf, _), (_, used_gx, used_gf, *_), rec in zip(fresh, nexts,
                                                                  result.trace[1:]):
        assert parts["F"] == rec["F"]
        assert np.array_equal(gx, used_gx) and np.array_equal(gf, used_gf)
    assert len(calls) < 1 + len(tries) + len(accepted), "no trial was reused"


def test_decode_and_validity_repair_invariants(toy_cfg, mdl, init_params, ctx):
    returned = 0
    for seed in range(4):
        state = inversion.initial_state(ctx, mdl, init_params, toy_cfg, "small-molecule", seed)
        try:
            decoded = inversion.decode_molecule(state, None, init_params, toy_cfg, seed=seed)
        except inversion.RepairError:
            continue
        returned += 1
        _assert_valid_molecule(decoded.structure, toy_cfg)
        # validity_repair on an already valid molecule keeps it valid
        _assert_valid_molecule(inversion.validity_repair(decoded.structure, toy_cfg), toy_cfg)
    assert returned >= 1


def test_decode_is_deterministic(toy_cfg, init_params, start):
    a = inversion.decode_molecule(start, None, init_params, toy_cfg, seed=3).structure
    b = inversion.decode_molecule(start, None, init_params, toy_cfg, seed=3).structure
    assert [at.type_label for at in a.atoms] == [at.type_label for at in b.atoms]
    assert np.array_equal(a.coords, b.coords)
    assert [(x.i, x.j, x.order) for x in a.bonds] == [(x.i, x.j, x.order) for x in b.bonds]


def _train(cfg, mdl, surfaces, complexes, pre_params=None):
    """Two pretraining steps (unless ``pre_params`` is given), then two
    fine-tuning steps; returns the parameters and records of each stage."""
    logs = {"pretrain": [], "finetune": []}
    out = {}
    if pre_params is None:
        pre_params, out["pretrain_history"] = pretrain_run(
            surfaces, cfg, steps=2, seed=5, mdl=mdl, batch_size=2, log=logs["pretrain"].append)
    out["pretrain_params"] = dict(pre_params)
    out["finetune_params"], out["finetune_history"] = finetune_run(
        complexes, cfg, steps=2, seed=5, mdl=mdl, params=dict(pre_params), batch_size=2,
        log=logs["finetune"].append)
    out["logs"] = logs
    return out


@pytest.fixture(scope="module")
def trained(toy_cfg, mdl, surface_corpus, complex_corpus):
    return _train(toy_cfg, mdl, surface_corpus, complex_corpus[0])


def _assert_same_params(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_training_is_deterministic(trained, toy_cfg, mdl, surface_corpus, complex_corpus):
    again = _train(toy_cfg, mdl, surface_corpus, complex_corpus[0])
    for stage in ("pretrain", "finetune"):
        _assert_same_params(trained[f"{stage}_params"], again[f"{stage}_params"])
        assert trained[f"{stage}_history"] == again[f"{stage}_history"]
        log = trained["logs"][stage]
        assert log == trained[f"{stage}_history"]
        assert [rec["step"] for rec in log] == [0, 1]
    assert any(not np.array_equal(trained["pretrain_params"][k], trained["finetune_params"][k])
               for k in trained["pretrain_params"])


def test_checkpoint_resume_matches_in_memory(trained, toy_cfg, mdl, complex_corpus, tmp_path):
    path = tmp_path / "pretrain.ckpt"
    fileio.save_checkpoint(path, trained["pretrain_params"], toy_cfg.digest())
    loaded, _, _ = fileio.load_checkpoint(path, expected_digest=toy_cfg.digest())
    _assert_same_params(loaded, trained["pretrain_params"])
    resumed = _train(toy_cfg, mdl, None, complex_corpus[0], pre_params=loaded)
    _assert_same_params(resumed["finetune_params"], trained["finetune_params"])
    assert resumed["finetune_history"] == trained["finetune_history"]


def test_no_grad_encode_keeps_no_graph(mdl, init_params, receptor_cloud):
    cloud = receptor_cloud[0]
    field = mdl.encode(init_params, cloud.features, cloud.points, "protein")
    for ch in field.channels.values():
        assert isinstance(ch, ad.Tensor) and ch.parents == () and not ch.requires_grad


def test_objective_graph_keeps_only_saved_values(toy_cfg, mdl, init_params, ctx, start):
    # the graph of one gradient evaluation holds the arrays its vjps read and
    # no other intermediate; keeping every value of the encoder graph took
    # 12 MB here, which showed in peak memory whenever the ligand grew
    tracemalloc.start()
    try:
        inversion.composite_objective(start, ctx, mdl, init_params, toy_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_discrete_run_decodes_its_terminal_state(toy_cfg, mdl, init_params, ctx):
    # the last add or delete changes the point count: the terminal state is
    # decoded with its own gradient, not the one of the state before it
    result = inversion.run_inversion(ctx, mdl, init_params, toy_cfg, seed=0,
                                     mode="discrete-accept", steps=4)
    assert result.stop_reason == "budget"
    assert len(result.trace) == 4
    _assert_valid_molecule(result.best.structure, toy_cfg)


def test_failed_discrete_step_ends_the_run(toy_cfg, mdl, init_params, ctx):
    cfg = toy_cfg.replace(max_repair_rounds=1)
    result = inversion.run_inversion(ctx, mdl, init_params, cfg, seed=0,
                                     mode="discrete-accept", steps=4)
    assert result.stop_reason == "repair_failed"
    assert result.trace == []
    assert result.best is None and result.best_objective == np.inf


def test_zero_steps_returns_the_start_objective(toy_cfg, mdl, init_params, ctx, start):
    result = inversion.run_inversion(ctx, mdl, init_params, toy_cfg, start=start, steps=0)
    assert result.stop_reason == "budget"
    assert result.trace == []
    parts, *_ = inversion.composite_objective(start, ctx, mdl, init_params, toy_cfg)
    assert result.best_objective == parts["F"]
    _assert_valid_molecule(result.best.structure, toy_cfg)


@pytest.mark.parametrize("mode", ["continuous-pgd", "discrete-accept"])
def test_protein_run_decodes_residues(mode, toy_cfg, mdl, init_params, ctx):
    result = inversion.run_inversion(ctx, mdl, init_params, toy_cfg, seed=0,
                                     molecule_type="protein", mode=mode, steps=4)
    assert result.stop_reason == "budget"
    prot = result.best
    assert isinstance(prot, inversion.DecodedProtein)
    # a continuous step keeps the residue count; a discrete step adds or
    # deletes at most one residue, and the best candidate is any state visited
    n_init = toy_cfg.n_init_residues
    if mode == "continuous-pgd":
        assert len(prot.sequence) == n_init
    else:
        assert abs(len(prot.sequence) - n_init) <= 4
    assert len(prot.phi) == len(prot.psi) == len(prot.rotamers) == len(prot.sequence)
    assert set(prot.sequence) <= set(AMINO_ACIDS)
    for torsion in (prot.phi, prot.psi):
        assert np.all((torsion > -180.0) & (torsion <= 180.0))
    assert np.all((prot.rotamers >= 0) & (prot.rotamers <= 2))


def _write_complex(root, receptor, ligand_seed, labels):
    root.mkdir()
    write_pdb(receptor, root / "receptor.pdb")
    (root / "ligand.mol").write_text(write_molecule(toydata.random_molecule(seed=ligand_seed)))
    (root / "labels.txt").write_text(labels)


def test_load_complex_dir_fits_scaler_on_labelled_values(tmp_path, toy_cfg, mdl,
                                                          receptor_structure):
    _write_complex(tmp_path / "a", receptor_structure, 3, "y_int = 1\ndelta_g = -7.5\n")
    _write_complex(tmp_path / "b", receptor_structure, 4, "y_int = 0\ndelta_g = none\n")
    samples, scaler = load_complex_dir(tmp_path, toy_cfg, mdl, seed=0)
    assert len(samples) == 2
    # one labelled value: its mean, and the unit std that a zero spread falls back to
    assert (scaler.mean, scaler.std) == (-7.5, 1.0)
    assert [s.y_int for s in samples] == [1.0, 0.0]
    assert samples[0].delta_g == 0.0
    assert samples[1].delta_g is None
    for s in samples:
        assert len(s.pocket_labels) == len(s.receptor.points)


def test_complex_sample_builds_no_patch_partition(toy_cfg, mdl, receptor_structure,
                                                  monkeypatch):
    calls = []
    fps = surface.fps
    monkeypatch.setattr(surface, "fps", lambda *args, **kw: calls.append(args) or fps(*args, **kw))
    sample = build_complex_sample(receptor_structure, toydata.random_molecule(3, n_atoms=6),
                                  toy_cfg, mdl, seed=0, y_int=1.0, delta_g=None)
    assert len(sample.receptor) == toy_cfg.m_protein
    assert calls == []


def test_load_complex_dir_reads_a_valid_pocket_mask(tmp_path, toy_cfg, mdl, receptor_structure):
    mask = ("0110" * toy_cfg.m_protein)[:toy_cfg.m_protein]
    _write_complex(tmp_path / "a", receptor_structure, 3, f"y_int = 1\npocket = {mask}\n")
    [sample], _ = load_complex_dir(tmp_path, toy_cfg, mdl, seed=0)
    assert sample.pocket_labels.tolist() == [float(c) for c in mask]


def test_load_complex_dir_rejects_pocket_mask_of_wrong_length(tmp_path, toy_cfg, mdl,
                                                              receptor_structure):
    _write_complex(tmp_path / "a", receptor_structure, 3, "y_int = 1\npocket = 0101\n")
    with pytest.raises(ValueError, match="pocket bitmask length 4"):
        load_complex_dir(tmp_path, toy_cfg, mdl, seed=0)
