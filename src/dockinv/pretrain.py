"""Stage 2: masked patch reconstruction with vector quantization.

Patch tokens from the encoder are masked at a fixed ratio; masked tokens are
replaced by temperature-relaxed codebook lookups and decoded back to patch
coordinates (relative to the patch center) and curvature targets. The loss
combines Chamfer reconstruction, curvature regression, and a KL pull of the
codebook posterior toward the uniform prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import neighbors
from .autodiff import Tensor
from .config import RunConfig
from .model import (
    N_CONTEXT,
    TOKEN_ORDERS,
    PipelineModel,
    as_tensors,
    clip_grads,
    collect_grads,
    mean_terms,
    sgd_momentum_step,
    train_loop,
)
from .surface import PatchSet, SurfacePointCloud

__all__ = [
    "MaskPlan",
    "draw_mask_plan",
    "gumbel_quantize",
    "chamfer_loss",
    "curvature_targets",
    "kl_regularizer",
    "PretrainSample",
    "prepare_sample",
    "pretrain_step",
    "pretrain_run",
]


@dataclass(frozen=True)
class MaskPlan:
    masked: np.ndarray
    visible: np.ndarray


def draw_mask_plan(n_patches: int, ratio: float, seed: int) -> MaskPlan:
    """Seeded disjoint masked/visible split with |masked| = round(ratio * n)."""
    n_masked = int(round(ratio * n_patches))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_patches)
    return MaskPlan(np.sort(perm[:n_masked]), np.sort(perm[n_masked:]))


def gumbel_quantize(hidden, codebook, tau: float, noise: np.ndarray):
    """Relaxed codebook lookup.

    The posterior q is the softmax of negative squared distances between each
    row of the (T, d) ``hidden`` and the codebook entries; each output token
    mixes entries with softmax((g + log q) / tau) weights, where g is the
    Gumbel ``noise`` (same shape as q).

    Returns (quantized tokens, posterior q).
    """
    if tau <= 0:
        raise ad.ContractError("gumbel temperature must be positive")
    h = ad.as_tensor(hidden)
    e = ad.as_tensor(codebook)
    t, d = h.shape
    nb = e.shape[0]
    diff = ad.sub(ad.reshape(h, (t, 1, d)), ad.reshape(e, (1, nb, d)))
    logits = ad.neg(ad.reduce_sum(ad.mul(diff, diff), axis=2))           # (T, NB)
    q = ad.softmax(logits, axis=1)
    log_q = ad.sub(logits, ad.logsumexp(logits, axis=1, keepdims=True))
    g = np.asarray(noise, dtype=float)
    weights = ad.softmax(ad.mul(ad.add(log_q, g), 1.0 / tau), axis=1)
    return ad.matmul(weights, e), q


def chamfer_loss(pred, target) -> Tensor:
    """Symmetric two-directional min squared distance over paired point sets.

    Inputs are (T, Kp, 3) and (T, Kt, 3); the sum over both directions is
    normalized by T * Kt (the target patch size).
    """
    p = ad.as_tensor(pred)
    q = ad.as_tensor(target)
    t, kp, _ = p.shape
    _, kt, _ = q.shape
    if t == 0 or kp == 0 or kt == 0:
        raise ad.DomainError("chamfer loss needs non-empty point sets")
    diff = ad.sub(ad.reshape(p, (t, kp, 1, 3)), ad.reshape(q, (t, 1, kt, 3)))
    sq = ad.reduce_sum(ad.mul(diff, diff), axis=3)                       # (T, Kp, Kt)
    fwd = ad.reduce_sum(ad.reduce_min(sq, axis=2))
    bwd = ad.reduce_sum(ad.reduce_min(sq, axis=1))
    return ad.mul(ad.add(fwd, bwd), 1.0 / (t * kt))


def curvature_targets(patch_points: np.ndarray, center: np.ndarray):
    """Eigenvalue shares of the patch covariance about the patch center,
    sorted descending. All-identical points yield the uniform triple."""
    pts = np.asarray(patch_points, dtype=float)
    c = np.asarray(center, dtype=float)
    dev = pts - c
    cov = dev.T @ dev / len(pts)
    eig = np.linalg.eigvalsh(cov)
    eig = np.clip(eig, 0.0, None)
    total = eig.sum()
    if total <= 0.0:
        return np.full(3, 1.0 / 3.0)
    return np.sort(eig / total)[::-1]


def kl_regularizer(q) -> Tensor:
    """Mean KL(q || uniform) over the rows of a (T, n) posterior; rows must sum to one."""
    qt = ad.as_tensor(q)
    sums = qt.values.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-8):
        raise ad.ContractError("kl_regularizer rows must be normalized")
    nb = qt.shape[1]
    safe = ad.clip(qt, 1e-12, 1.0)
    ent = ad.reduce_sum(ad.mul(qt, ad.log(safe)), axis=1)
    return ad.add(ad.reduce_mean(ent), float(np.log(nb)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class PretrainSample:
    cloud: SurfacePointCloud
    patches: PatchSet
    rel_coords: np.ndarray    # (P, K, 3) member coords relative to patch center
    psi: np.ndarray           # (P, 3) curvature targets
    geom: dict                # cached conv geometry


def prepare_sample(cloud: SurfacePointCloud, patches: PatchSet, mdl: PipelineModel) -> PretrainSample:
    centers = cloud.points[patches.center_indices]
    members = cloud.points[patches.member_indices]
    rel = members - centers[:, None, :]
    psi = np.stack(
        [curvature_targets(members[i], centers[i]) for i in range(len(centers))]
    )
    geom = mdl.precompute_geometry(cloud.points, cloud.molecule_type)
    return PretrainSample(cloud, patches, rel, psi, geom)


def _visible_context(tokens, plan: MaskPlan, centers: np.ndarray):
    """Per-masked-patch context: the nearest visible patch tokens plus their
    center offsets, concatenated.

    Stands in for a sequence decoder: the masked patch sees its visible
    surroundings but never its own unquantized token.
    """
    d_code = tokens.shape[1]
    t = len(plan.masked)
    if not len(plan.visible):
        return ad.constant(np.zeros((t, N_CONTEXT * (d_code + 3))))
    order, _ = neighbors.knn(centers[plan.masked], centers[plan.visible], N_CONTEXT)
    pieces = []
    for rank in range(N_CONTEXT):
        col = order[:, min(rank, order.shape[1] - 1)]
        nbr_tokens = ad.gather(tokens, plan.visible[col])
        offsets = (centers[plan.visible[col]] - centers[plan.masked]) * 0.2
        pieces.append(nbr_tokens)
        pieces.append(ad.constant(offsets))
    return ad.concat(pieces, axis=1)


def _forward_sample(mdl, params_t, sample: PretrainSample, cfg: RunConfig,
                    rng: np.random.Generator):
    plan = draw_mask_plan(len(sample.patches.center_indices), cfg.mask_ratio,
                          int(rng.integers(0, 2**31 - 1)))
    field = mdl.encode(params_t, sample.cloud.features, sample.cloud.points,
                       sample.cloud.molecule_type, geom=sample.geom, orders=TOKEN_ORDERS)
    tokens = mdl.patch_tokens(params_t, field, sample.patches.member_indices,
                              sample.cloud.molecule_type)
    masked_tokens = ad.gather(tokens, plan.masked)
    centers = sample.cloud.points[sample.patches.center_indices]
    context = _visible_context(tokens, plan, centers)
    g = rng.gumbel(size=(len(plan.masked), mdl.n_codes))
    quantized, q = gumbel_quantize(masked_tokens, params_t["codebook"], cfg.gumbel_tau, g)
    centers_rel = (centers[plan.masked] - sample.cloud.points.mean(axis=0)) * 0.1
    coords, psi_hat = mdl.decode_tokens(params_t, quantized, context, centers_rel)

    rec = chamfer_loss(coords, sample.rel_coords[plan.masked])
    dpsi = ad.sub(psi_hat, sample.psi[plan.masked])
    cur = ad.reduce_mean(ad.reduce_sum(ad.mul(dpsi, dpsi), axis=1))
    kl = kl_regularizer(q)
    return rec, cur, kl


def pretrain_loss(mdl: PipelineModel, params_t: dict, batch: list[PretrainSample],
                  cfg: RunConfig, seed: int) -> tuple[Tensor, dict]:
    """Composite stage-2 loss over a batch (fixed-order accumulation)."""
    rng = np.random.default_rng(seed)
    recs, curs, kls = [], [], []
    for sample in batch:
        rec, cur, kl = _forward_sample(mdl, params_t, sample, cfg, rng)
        recs.append(rec)
        curs.append(cur)
        kls.append(kl)
    rec = mean_terms(recs)
    cur = mean_terms(curs)
    kl = mean_terms(kls)
    total = ad.add(ad.add(ad.mul(rec, cfg.nu1), ad.mul(cur, cfg.nu2)), ad.mul(kl, cfg.nu3))
    parts = {"rec": rec.item(), "cur": cur.item(), "kl": kl.item()}
    for name, value in parts.items():
        if not np.isfinite(value):
            raise ad.DomainError(f"non-finite pretraining loss term '{name}'")
    return total, parts


def pretrain_step(mdl: PipelineModel, params: dict, opt_state: dict,
                  batch: list[PretrainSample], cfg: RunConfig, seed: int) -> dict:
    """One optimizer step; returns the loss record."""
    params_t = as_tensors(params)
    total, parts = pretrain_loss(mdl, params_t, batch, cfg, seed)
    ad.backward(total)
    grads = clip_grads(collect_grads(params_t), cfg.grad_clip)
    sgd_momentum_step(params, grads, opt_state, cfg.pretrain_lr, cfg.pretrain_momentum)
    return {"loss": total.item(), **parts, "seed": seed}


def pretrain_run(samples: list[PretrainSample], cfg: RunConfig, steps: int, seed: int = 0,
                 mdl: PipelineModel | None = None, params: dict | None = None,
                 batch_size: int = 4, log=None) -> tuple[dict, list[dict]]:
    """Seed-deterministic pretraining loop over a sample corpus."""
    mdl = mdl or PipelineModel(cfg)
    params = params if params is not None else mdl.init_params(seed)
    opt_state: dict = {}
    history = train_loop(
        samples, steps, batch_size, [seed, 17],
        lambda batch, step: pretrain_step(mdl, params, opt_state, batch, cfg,
                                          seed=seed * 100003 + step),
        log)
    return params, history
