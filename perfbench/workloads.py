"""The three benchmark workloads.

Each workload builds its inputs from the seed when constructed (this is the
timed set-up) and then runs *rounds*. A round is a fixed list of operations
that depends only on the seed, so every round repeats the same work with the
same outcomes: its outputs are digested, and every round's digest must equal
round 0's. Repeats give each operation several timings.

dockinv is called through its module attributes (``surface.build_surface``,
not a name imported here) so that the traced run's span wrappers see every
call. Known failures are caught per receptor or inversion start and counted
by exception type; any other exception ends the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from dockinv import equivariant, finetune, inversion, pretrain, surface, theory, toydata
from dockinv.config import RunConfig
from dockinv.model import PipelineModel


class Digest:
    """Short sha256 over the float bytes and labels of a round's outputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, str):
                self._h.update(item.encode())
            else:
                self._h.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass
class RoundResult:
    """Timed operations of one round, split by the workload's two phases."""

    samples: tuple = field(default_factory=lambda: ([], []))  # per phase: (ops, seconds)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)   # correctness-check violations
    digest: Digest = field(default_factory=Digest)

    def record(self, phase: int, ops: int, seconds: float) -> None:
        self.samples[phase].append((ops, seconds))

    def fail(self, kind: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures[kind] += ops


def warm_coupling(mdl: PipelineModel) -> None:
    """Solve every coupling tensor the encoders use (lazy, once per process)."""
    for enc in (mdl.enc_protein, mdl.enc_molecule):
        for layer in enc.layers:
            for l_in, l_f, l_out in layer.paths:
                equivariant.coupling_tensor(l_out, l_f, l_in)


def check_surface(cloud, structure, cfg: RunConfig) -> list[str]:
    """Exactly m finite points, each within projection_tol of the iso-level."""
    m = cfg.m_for(structure.molecule_type, len(structure.atoms))
    pts = cloud.points
    if pts.shape != (m, 3) or not np.isfinite(pts).all():
        return [f"surface cloud has shape {pts.shape} or non-finite points; expected ({m}, 3)"]
    sdf, _ = surface.sdf_value_grad(pts, structure.coords, structure.radii)
    residual = float(np.abs(sdf - cfg.r_probe).max())
    if residual > cfg.projection_tol:
        return [f"surface residual {residual:.3g} exceeds projection_tol {cfg.projection_tol}"]
    return []


def check_molecule(mol, cfg: RunConfig) -> str | None:
    """Bond lengths inside [bond_min, bond_max] and no non-bonded clash."""
    coords = mol.coords
    for b in mol.bonds:
        d = float(np.linalg.norm(coords[b.i] - coords[b.j]))
        if not cfg.bond_min <= d <= cfg.bond_max:
            return f"bond {b.i}-{b.j} has length {d:.4f}"
    bonded = {(b.i, b.j) for b in mol.bonds}
    clashes = theory.clash_count(coords, cfg.clash_floor, bonded)
    return f"{clashes} clashes" if clashes else None


class ReceptorPrep:
    """Stage 1 plus the receptor encoding on 100-200 atom chains (m_protein=1000).

    The receptors are fixed chains of 20, 25, 30 and 40 residues; the seed
    moves each by a random rigid motion and seeds the encoder parameters.
    Surface construction is rigid-motion equivariant, so every seed does the
    same work, including the same projection failures.
    """

    name = "receptor-prep"
    phase_names = ("surfaces_per_s", "encodes_per_s")
    trace_rounds = 3       # three timings per size for the scaling fit
    chains = ((2024, 20), (2025, 25), (2026, 30), (2028, 40))   # (random_protein seed, residues)
    expected_spans = (
        "surface.build_s", "surface.project_s", "surface.sdf_s", "surface.normals_s",
        "surface.features_s", "surface.patches_s", "inversion.prepare_receptor_s",
        "model.encode_s", "model.precompute_geometry_s", "equivariant.knn_s",
        "equivariant.conv_geometry_s", "equivariant.conv_s",
    )

    def __init__(self, seed: int):
        self.cfg = RunConfig(m_protein=1000).validate()
        self.mdl = PipelineModel(self.cfg)
        self.params = self.mdl.init_params(seed)
        warm_coupling(self.mdl)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.receptors = [
            toydata.random_protein(chain_seed, n).transformed(
                equivariant.random_rotation(rng), rng.uniform(-10.0, 10.0, 3))
            for chain_seed, n in self.chains
        ]
        self.setup_problems: list[str] = []

    def run_round(self, checking=contextlib.nullcontext) -> RoundResult:
        res = RoundResult()
        for k, structure in enumerate(self.receptors):
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                cloud, _ = surface.build_surface(structure, self.cfg, seed=k)
            except surface.InsufficientSurfaceError as err:
                res.record(0, 0, time.perf_counter() - t0)   # a failed build still costs
                res.fail(type(err).__name__)
                continue
            t1 = time.perf_counter()
            ctx = inversion.prepare_receptor(self.mdl, self.params, cloud)
            res.record(0, 1, t1 - t0)
            res.record(1, 1, time.perf_counter() - t1)
            with checking():
                res.problems += check_surface(cloud, structure, self.cfg)
            if not all(np.isfinite(v).all() for v in ctx.field_values.values()):
                res.problems.append(f"receptor {k}: non-finite encoder output")
            res.digest.add(cloud.points, *ctx.field_values.values())
        return res


class TrainToy:
    """pretrain_run then finetune_run (batch 4) on the toy corpora, from init params.

    Training has no known failure type, so any exception ends the benchmark.
    """

    name = "train-toy"
    phase_names = ("pretrain_steps_per_s", "finetune_steps_per_s")
    trace_rounds = 2
    corpus_size = 8
    steps = (16, 16)
    batch_size = 4
    expected_spans = (
        "pretrain.step_s", "pretrain.loss_s", "pretrain.quantize_s", "pretrain.chamfer_s",
        "finetune.step_s", "finetune.forward_s", "finetune.pseudolabels_s",
        "model.encode_s", "model.patch_tokens_s", "model.decode_tokens_s", "model.heads_s",
        "model.fuse_s", "model.optim_s", "equivariant.conv_s", "equivariant.attention_s",
        "autodiff.backward_s",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = toydata.toy_config()
        self.mdl = PipelineModel(self.cfg)
        warm_coupling(self.mdl)
        self.surfaces = toydata.toy_surface_corpus(self.corpus_size, self.cfg, self.mdl, seed=seed)
        self.complexes, _ = toydata.toy_complex_corpus(self.corpus_size, self.cfg, self.mdl,
                                                       seed=seed)
        self.setup_problems: list[str] = []

    def run_round(self, checking=contextlib.nullcontext) -> RoundResult:
        res = RoundResult()
        params = None
        stages = ((pretrain.pretrain_run, self.surfaces), (finetune.finetune_run, self.complexes))
        for phase, ((run, corpus), steps) in enumerate(zip(stages, self.steps)):
            res.attempted += steps
            t0 = time.perf_counter()
            params, history = run(corpus, self.cfg, steps=steps, seed=self.seed, mdl=self.mdl,
                                  params=params, batch_size=self.batch_size)
            res.record(phase, steps, time.perf_counter() - t0)
            losses = np.array([[v for v in rec.values() if isinstance(v, float)]
                               for rec in history])
            if not np.isfinite(losses).all():
                res.problems.append(f"{run.__name__}: non-finite training loss")
            if not all(np.isfinite(v).all() for v in params.values()):
                res.problems.append(f"{run.__name__}: non-finite parameter")
            res.digest.add(losses)
        res.digest.add(*(params[k] for k in sorted(params)))
        return res


class InvertMultistart:
    """Multi-start run_inversion on the fixture receptor, default stopping: starts
    until 8 continuous-pgd runs and then 5 discrete-accept runs have completed.

    In the first round a failed start is counted and the next start seed is
    tried, up to ``max_tries`` times the wanted number, so a mode that often
    fails still gives the same number of timed runs. Later rounds repeat the
    starts that completed; a failure does not change when it is repeated, so
    it is counted once.
    """

    name = "invert-multistart"
    phase_names = ("invert_pgd_steps_per_s", "invert_accept_steps_per_s")
    trace_rounds = 2
    starts = (("continuous-pgd", 8), ("discrete-accept", 5))   # (mode, completed runs)
    max_tries = 4
    expected_spans = (
        "inversion.init_s", "inversion.objective_s", "inversion.state_features_s",
        "inversion.pgd_step_s", "inversion.repair_s", "inversion.decode_s",
        "model.encode_s", "model.heads_s", "model.fuse_s", "equivariant.conv_s",
        "equivariant.conv_geometry_s", "equivariant.knn_s", "equivariant.attention_s",
        "finetune.pseudolabels_s", "autodiff.backward_s",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = toydata.toy_config()
        self.mdl = PipelineModel(self.cfg)
        self.params = self.mdl.init_params(seed)
        warm_coupling(self.mdl)
        structure = toydata.fixture_receptor()
        cloud, _ = surface.build_surface(structure, self.cfg, seed=seed)
        self.setup_problems = check_surface(cloud, structure, self.cfg)
        self.ctx = inversion.prepare_receptor(self.mdl, self.params, cloud)
        self.completed: list[tuple[int, str, int]] | None = None   # (phase, mode, start seed)

    def run_round(self, checking=contextlib.nullcontext) -> RoundResult:
        res = RoundResult()
        if self.completed is not None:
            for phase, mode, run_seed in self.completed:
                if not self._start(res, phase, mode, run_seed, checking):
                    res.problems.append(f"{mode} start {run_seed} failed when repeated")
            return res
        self.completed, index = [], 0
        for phase, (mode, wanted) in enumerate(self.starts):
            done = 0
            for _ in range(self.max_tries * wanted):
                if done == wanted:
                    break
                run_seed = self.seed * 10007 + index
                index += 1
                if self._start(res, phase, mode, run_seed, checking):
                    self.completed.append((phase, mode, run_seed))
                    done += 1
            if done < wanted:
                res.problems.append(f"{mode}: {done} of {wanted} runs completed "
                                    f"in {self.max_tries * wanted} starts")
        return res

    def _start(self, res: RoundResult, phase: int, mode: str, run_seed: int, checking) -> bool:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            result = inversion.run_inversion(self.ctx, self.mdl, self.params, self.cfg,
                                             seed=run_seed, mode=mode)
        except inversion.RepairError as err:
            res.fail(type(err).__name__)
            return False
        except ValueError as err:
            # the discrete mode decodes its final state with the gradient
            # of the state before the last step, whose point count may differ
            if type(err) is not ValueError or "broadcast" not in str(err):
                raise
            res.fail("ValueError")
            return False
        dt = time.perf_counter() - t0
        if result.best is None:
            res.fail("NoCandidate")
            return False
        with checking():
            problem = check_molecule(result.best.structure, self.cfg)
        if problem is not None:
            res.fail("InvalidCandidate")
            return False
        steps = len(result.trace)
        res.record(phase, steps, dt)
        res.digest.add([result.best_objective, steps], result.best.structure.coords)
        return True


WORKLOADS = {w.name: w for w in (ReceptorPrep, TrainToy, InvertMultistart)}
