"""Stages 2-4 on real pipeline objects: the inversion objective's gradient,
repair invariants, decode and training determinism, checkpoint resume."""

import tracemalloc

import numpy as np
import pytest
from conftest import write_pdb

from dockinv import autodiff as ad
from dockinv import fileio, inversion, theory, toydata
from dockinv.finetune import finetune_run, load_complex_dir
from dockinv.pretrain import pretrain_run
from dockinv.structures import AMINO_ACIDS, write_molecule


@pytest.fixture(scope="module")
def ctx(mdl, init_params, receptor_cloud):
    return inversion.prepare_receptor(mdl, init_params, receptor_cloud[0])


@pytest.fixture(scope="module")
def start(ctx, mdl, init_params, toy_cfg):
    return inversion.initial_state(ctx, mdl, init_params, toy_cfg, "small-molecule", seed=0)


def _objective_of(kind, state, ctx, mdl, params, cfg, frozen):
    """F as a function of the state's ``x`` or ``f`` block, for ad.grad_check.

    The returned node's VJP is composite_objective's own gradient at the
    point, so grad_check compares that gradient with central differences
    of F (neighbourhoods and pseudo-labels held in ``frozen``).
    """

    def fn(t):
        probe = state.copy()
        setattr(probe, kind, t.values.copy())
        parts, gx, gf, _ = inversion.composite_objective(
            probe, ctx, mdl, params, cfg, frozen=frozen, need_grad=t.requires_grad)
        grad = gx if kind == "x" else gf
        return ad.Tensor(parts["F"], requires_grad=t.requires_grad, op="objective",
                         parents=(t,), vjp=lambda g: (g * grad,))

    return fn


def test_objective_gradient_matches_central_differences(toy_cfg, mdl, init_params, ctx, start):
    frozen = inversion.composite_objective(start, ctx, mdl, init_params, toy_cfg,
                                           need_grad=False)[3]
    for seed, kind in enumerate(("x", "f")):
        fn = _objective_of(kind, start, ctx, mdl, init_params, toy_cfg, frozen)
        report = ad.grad_check(fn, getattr(start, kind), step=1e-5, tolerance=1e-5, sample=8,
                               rng=np.random.default_rng(seed))
        assert report.passed, (kind, report)
        assert np.abs(report.analytic).max() > 1e-4, kind  # not a vacuous match


def _assert_bonds_in_range(coords, pairs, cfg):
    for i, j in pairs:
        d = float(np.linalg.norm(coords[i] - coords[j]))
        assert cfg.bond_min <= d <= cfg.bond_max, (i, j, d)


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
        budgets = np.array([inversion.V_MAX.get(t.split(".")[0], 4.0) for t in types])
        dist_in = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        bonded = set(inversion._greedy_bonds(dist_in, budgets, cfg.bond_max))
        _assert_bonds_in_range(out, bonded, cfg)
        assert theory.clash_count(out, cfg.clash_floor, bonded) == 0
    assert returned >= 1


def _assert_valid_molecule(mol, cfg):
    bonded = {(b.i, b.j) for b in mol.bonds}
    _assert_bonds_in_range(mol.coords, bonded, cfg)
    assert theory.clash_count(mol.coords, cfg.clash_floor, bonded) == 0


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
    # at seed 0 the best candidate is the terminal state in both modes
    assert len(prot.sequence) == len(result.state.x)
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


def test_load_complex_dir_rejects_pocket_mask_of_wrong_length(tmp_path, toy_cfg, mdl,
                                                              receptor_structure):
    _write_complex(tmp_path / "a", receptor_structure, 3, "y_int = 1\npocket = 0101\n")
    with pytest.raises(ValueError, match="pocket bitmask length 4"):
        load_complex_dir(tmp_path, toy_cfg, mdl, seed=0)
