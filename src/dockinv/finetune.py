"""Stage 3: cascaded supervised heads over fused receptor-ligand embeddings.

Pocket probabilities gate the interaction loss, and the pocket-interaction
product (floored at a confidence threshold) weights the affinity regression.
Affinities are standardized to zero mean / unit variance over the training
split; the statistics ride along in checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import neighbors
from .autodiff import Tensor
from .config import RunConfig
from .fileio import FormatError
from .model import (
    HEAD_ORDERS,
    PipelineModel,
    adam_step,
    as_tensors,
    collect_grads,
    mean_terms,
    train_loop,
)
from .structures import MolecularStructure, parse_molecule, parse_pdb
from .surface import SurfacePointCloud, build_cloud

__all__ = [
    "ComplexSample",
    "build_complex_sample",
    "AffinityScaler",
    "geometric_pseudolabels",
    "complex_terms",
    "weighted_total",
    "complex_forward",
    "finetune_loss",
    "finetune_step",
    "finetune_run",
    "load_complex_dir",
]


@dataclass
class ComplexSample:
    receptor: SurfacePointCloud
    ligand: SurfacePointCloud
    pocket_labels: np.ndarray          # (N_r,) in {0, 1}
    y_int: float                       # complex-level interaction label
    delta_g: float | None              # standardized when fed to the loss
    receptor_geom: dict                # cached conv geometry of each cloud
    ligand_geom: dict


@dataclass
class AffinityScaler:
    """Z-scoring of affinities."""

    mean: float
    std: float

    @staticmethod
    def fit(values: list[float]) -> "AffinityScaler":
        arr = np.asarray([v for v in values if v is not None], dtype=float)
        if arr.size == 0:
            return AffinityScaler(0.0, 1.0)
        std = float(arr.std())
        return AffinityScaler(float(arr.mean()), std if std > 0 else 1.0)

    def standardize(self, value: float) -> float:
        return (value - self.mean) / self.std


def geometric_pseudolabels(receptor_points: np.ndarray, ligand_points: np.ndarray,
                           cutoff: float) -> np.ndarray:
    """1 where the nearest ligand point lies within ``cutoff`` of the receptor point."""
    if len(receptor_points) == 0 or len(ligand_points) == 0:
        raise ad.DomainError("geometric pseudo-labels need non-empty clouds")
    nearest = neighbors.distances(receptor_points, ligand_points).min(axis=1)
    return (nearest <= cutoff).astype(float)


def build_complex_sample(receptor: MolecularStructure, ligand: MolecularStructure, cfg: RunConfig,
                         mdl: PipelineModel, seed: int, y_int: float, delta_g: float | None,
                         pocket: np.ndarray | None = None) -> ComplexSample:
    """Both surfaces (at seeds ``seed`` and ``seed + 1``) and their conv geometry; pocket
    labels are ``pocket``, else 1 where a ligand atom is within ``interface_cutoff_ligand``."""
    r_cloud = build_cloud(receptor, cfg, seed=seed)
    l_cloud = build_cloud(ligand, cfg, seed=seed + 1)
    if pocket is None:
        pocket = geometric_pseudolabels(r_cloud.points, ligand.coords,
                                        cfg.interface_cutoff_ligand)
    return ComplexSample(r_cloud, l_cloud, pocket, y_int, delta_g,
                         mdl.precompute_geometry(r_cloud.points, "protein"),
                         mdl.precompute_geometry(l_cloud.points, l_cloud.molecule_type))


def bce(pred: Tensor, target) -> Tensor:
    """Elementwise binary cross-entropy with [1e-7, 1-1e-7] clamping."""
    p = ad.clip(pred, 1e-7, 1.0 - 1e-7)
    t = np.asarray(target, dtype=float)
    return ad.neg(ad.add(ad.mul(t, ad.log(p)), ad.mul(1.0 - t, ad.log(ad.sub(1.0, p)))))


def pocket_loss(pred: Tensor, labels, geom_labels, lambda_p: float) -> Tensor:
    """Mean BCE against labels plus the squared pull toward pseudo-labels."""
    base = ad.reduce_mean(bce(pred, labels))
    dev = ad.sub(ad.clip(pred, 1e-7, 1.0 - 1e-7), np.asarray(geom_labels, dtype=float))
    reg = ad.reduce_mean(ad.mul(dev, dev))
    return ad.add(base, ad.mul(reg, lambda_p))


def interaction_loss(pocket_pred: Tensor, int_pred: Tensor, y_int) -> Tensor:
    """Pocket-gated BCE of the scalar ``int_pred``, averaged over receptor points."""
    n_r = pocket_pred.shape[0]
    int_pred = ad.gather(ad.reshape(int_pred, (1,)), np.zeros(n_r, dtype=int))
    per_point = ad.mul(pocket_pred, bce(int_pred, y_int))
    return ad.reduce_mean(per_point)


def affinity_loss(gate: Tensor, pred_dg: Tensor, target_dg: float, tau_conf: float) -> Tensor:
    """Confidence-floored squared error for one labeled pair."""
    w = ad.clip(gate, tau_conf, None)
    err = ad.sub(pred_dg, float(target_dg))
    return ad.mul(w, ad.mul(err, err))


# ---------------------------------------------------------------------------
# forward pass and training
# ---------------------------------------------------------------------------

def complex_terms(mdl: PipelineModel, params_t: dict, zr, zl, pocket_labels, y_geom, y_int,
                  delta_g: float | None, cfg: RunConfig):
    """The loss terms of one complex from the heads on encodings ``zr``, ``zl``.

    Stage 3 (:func:`complex_forward`) passes a sample's pocket labels,
    ligand-surface pseudo-labels, ``y_int`` and standardized ``delta_g``
    (None when unlabelled); stage 4 (``inversion.composite_objective``) the
    ligand-atom pseudo-labels as both label sets, ``y_int = 1`` and
    ``cfg.dg_target``. Returns (pocket, interaction, affinity or None,
    predicted affinity).
    """
    pocket, y_int_hat, dg_hat, gate = mdl.complex_heads(params_t, zr, zl)
    l_pocket = pocket_loss(pocket, pocket_labels, y_geom, cfg.lambda_p)
    l_int = interaction_loss(pocket, y_int_hat, y_int)
    l_dg = None if delta_g is None else affinity_loss(gate, dg_hat, delta_g, cfg.tau_conf)
    return l_pocket, l_int, l_dg, dg_hat


def weighted_total(lp: Tensor, li: Tensor, lg: Tensor, cfg: RunConfig) -> Tensor:
    """alpha * pocket + beta * interaction + affinity."""
    return ad.add(ad.add(ad.mul(lp, cfg.alpha), ad.mul(li, cfg.beta)), lg)


def complex_forward(mdl: PipelineModel, params_t: dict, sample: ComplexSample, cfg: RunConfig):
    """Encode both clouds of a sample and return its :func:`complex_terms`."""
    zr = mdl.encode(params_t, sample.receptor.features, sample.receptor.points,
                    "protein", geom=sample.receptor_geom, orders=HEAD_ORDERS)
    zl = mdl.encode(params_t, sample.ligand.features, sample.ligand.points,
                    sample.ligand.molecule_type, geom=sample.ligand_geom, orders=HEAD_ORDERS)
    y_geom = geometric_pseudolabels(sample.receptor.points, sample.ligand.points,
                                    cfg.interface_cutoff_ligand)
    return complex_terms(mdl, params_t, zr, zl, sample.pocket_labels, y_geom, sample.y_int,
                         sample.delta_g, cfg)


def finetune_loss(mdl: PipelineModel, params_t: dict, batch: list[ComplexSample],
                  cfg: RunConfig) -> tuple[Tensor, dict]:
    """The :func:`weighted_total` of the per-term batch means; the affinity
    mean runs over the labelled samples only."""
    terms_p, terms_i, terms_g = [], [], []
    for sample in batch:
        l_pocket, l_int, l_dg, _ = complex_forward(mdl, params_t, sample, cfg)
        terms_p.append(l_pocket)
        terms_i.append(l_int)
        if l_dg is not None:
            terms_g.append(l_dg)
    lp = mean_terms(terms_p)
    li = mean_terms(terms_i)
    lg = mean_terms(terms_g) if terms_g else ad.constant(0.0)
    total = weighted_total(lp, li, lg, cfg)
    parts = {
        "pocket": lp.item(), "interaction": li.item(),
        "affinity": lg.item(), "labeled": len(terms_g),
    }
    for name in ("pocket", "interaction", "affinity"):
        if not np.isfinite(parts[name]):
            raise ad.DomainError(f"non-finite fine-tuning loss term '{name}'")
    return total, parts


def finetune_step(mdl: PipelineModel, params: dict, opt_state: dict,
                  batch: list[ComplexSample], cfg: RunConfig) -> dict:
    params_t = as_tensors(params)
    total, parts = finetune_loss(mdl, params_t, batch, cfg)
    ad.backward(total)
    grads = collect_grads(params_t)
    adam_step(params, grads, opt_state, cfg.finetune_lr, weight_decay=cfg.weight_decay)
    return {"loss": total.item(), **parts}


def finetune_run(samples: list[ComplexSample], cfg: RunConfig, steps: int, seed: int = 0,
                 mdl: PipelineModel | None = None, params: dict | None = None,
                 batch_size: int = 4, log=None) -> tuple[dict, list[dict]]:
    """Seed-deterministic fine-tuning loop (encoder init may come from stage 2)."""
    mdl = mdl or PipelineModel(cfg)
    params = params if params is not None else mdl.init_params(seed)
    opt_state: dict = {}
    history = train_loop(
        samples, steps, batch_size, [seed, 29],
        lambda batch, _: finetune_step(mdl, params, opt_state, batch, cfg), log)
    return params, history


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def _parse_sidecar(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


def _label_number(path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}: {key} = {text!r} is not a number") from None


def load_complex_dir(root, cfg: RunConfig, mdl: PipelineModel, seed: int = 0):
    """Load a directory of complexes.

    Each complex is a subdirectory holding ``receptor.pdb``, a ligand file
    (``ligand.mol`` text format or ``ligand.pdb``), and ``labels.txt`` with
    ``y_int = 0|1``, optional ``delta_g = <kcal/mol>``, and an optional
    ``pocket = 0101...`` bitmask over receptor surface points (derived from
    ligand geometry when omitted). Returns (samples, fitted scaler). A label
    that breaks these rules is a :class:`FormatError` naming its file.
    """
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise FileNotFoundError(f"no complex subdirectories under {root}")
    raw = []
    for d in dirs:
        receptor = parse_pdb((d / "receptor.pdb").read_text())
        mol_path = d / "ligand.mol"
        if mol_path.exists():
            ligand = parse_molecule(mol_path.read_text())
        else:
            ligand = parse_pdb((d / "ligand.pdb").read_text())
        path = d / "labels.txt"
        labels = _parse_sidecar(path.read_text())
        y_int = _label_number(path, "y_int", labels.get("y_int", "1"))
        if y_int not in (0.0, 1.0):
            raise FormatError(f"{path}: y_int = {labels['y_int']!r} is neither 0 nor 1")
        dg_raw = labels.get("delta_g", "")
        delta_g = None if dg_raw in ("", "none", "nan") else _label_number(path, "delta_g", dg_raw)
        mask = labels.get("pocket", "")
        if set(mask) - {"0", "1"}:
            raise FormatError(f"{path}: pocket bitmask holds characters other than 0 and 1")
        m = cfg.m_for(receptor.molecule_type, len(receptor.atoms))
        if mask and len(mask) != m:
            raise FormatError(f"{path}: pocket bitmask length {len(mask)} != {m} points")
        pocket = np.array([c == "1" for c in mask], dtype=float) if mask else None
        raw.append((receptor, ligand, y_int, delta_g, pocket))
    scaler = AffinityScaler.fit([r[3] for r in raw])
    samples = [build_complex_sample(receptor, ligand, cfg, mdl, seed * 9973 + 2 * i, y_int,
                                    None if delta_g is None else scaler.standardize(delta_g),
                                    pocket)
               for i, (receptor, ligand, y_int, delta_g, pocket) in enumerate(raw)]
    return samples, scaler
