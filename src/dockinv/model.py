"""Shared model assembly: twin encoders, codebook, patch decoder, task heads.

Proteins and small molecules carry different feature widths
(``surface.FEATURE_WIDTHS``), so the pipeline keeps one encoder per molecule
type with identical hyper-shape. The codebook, patch decoder, attention
projections, and task heads are shared. All parameters live in one flat
``{name: array}`` dict so checkpoints and optimizers stay trivial.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .equivariant import (
    Encoder,
    IrrepsField,
    conv_geometry,
    equivariant_attention,
    knn_indices,
)
from .surface import FEATURE_WIDTHS

__all__ = [
    "PipelineModel", "sgd_momentum_step", "adam_step", "as_tensors", "collect_grads",
    "mean_terms", "train_loop",
]

N_CONTEXT = 3            # nearest visible patches fed to the patch decoder
HEAD_ORDERS = (0,)       # encoder orders that attention and the task heads read
TOKEN_ORDERS = (0, 1)    # encoder orders that patch tokens pool


class PipelineModel:
    """Hyper-shape and parameter bookkeeping for the full pipeline."""

    def __init__(self, cfg: RunConfig):
        self.enc_protein = Encoder(FEATURE_WIDTHS["protein"], cfg, prefix="encp.")
        self.enc_molecule = Encoder(FEATURE_WIDTHS["small-molecule"], cfg, prefix="encm.")
        self.d0 = cfg.multiplicity
        self.d_code = cfg.d_code
        self.n_codes = cfg.codebook_size
        self.patch_k = cfg.patch_k
        self.head_hidden = cfg.head_hidden

    # -- parameter table -------------------------------------------------
    def param_shapes(self) -> dict[str, tuple]:
        shapes = {**self.enc_protein.param_shapes(), **self.enc_molecule.param_shapes()}
        for prefix in ("liftp", "liftm"):
            shapes[f"{prefix}.w"] = (4 * self.d0, self.d_code)  # l=0 (c) + l=1 (3c) pooled
            shapes[f"{prefix}.b"] = (self.d_code,)
        shapes["codebook"] = (self.n_codes, self.d_code)
        h = self.head_hidden
        # decoder sees [quantized token | nearest visible tokens + offsets | center]
        dec_in = self.d_code + N_CONTEXT * (self.d_code + 3) + 3
        shapes["dec.w1"] = (dec_in, h)
        shapes["dec.b1"] = (h,)
        shapes["dec.wc"] = (h, self.patch_k * 3)
        shapes["dec.bc"] = (self.patch_k * 3,)
        shapes["dec.wk"] = (h, 3)
        shapes["dec.bk"] = (3,)
        for name in ("wq", "wk", "wv0"):  # order-0 queries, keys and values
            shapes[f"attn.{name}"] = (self.d0, self.d0)
        # 2 * d0 inputs: [own | attended] per receptor point for pocket, fused for int and aff
        for head in ("pocket", "int", "aff"):
            shapes[f"{head}.w1"] = (2 * self.d0, h)
            shapes[f"{head}.b1"] = (h,)
            shapes[f"{head}.w2"] = (h, 1)
            shapes[f"{head}.b2"] = (1,)
        shapes["bond.w"] = (2, 5)  # pair summary -> bond-type logits incl. no-bond
        shapes["bond.b"] = (5,)
        return shapes

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in sorted(self.param_shapes().items()):
            if name.split(".")[-1].startswith("b"):
                params[name] = np.zeros(shape)
            elif name == "codebook":
                # moderate spread keeps code distances informative from step 0
                params[name] = 0.5 * rng.standard_normal(shape)
            else:
                params[name] = rng.standard_normal(shape) / math.sqrt(shape[0])
        return params

    # -- encoding ----------------------------------------------------------
    def encoder_for(self, molecule_type: str) -> Encoder:
        return self.enc_protein if molecule_type == "protein" else self.enc_molecule

    def precompute_geometry(self, points: np.ndarray, molecule_type: str) -> dict:
        enc = self.encoder_for(molecule_type)
        nbr = knn_indices(np.asarray(points), enc.conv_k)
        return conv_geometry(points, nbr, enc.basis)

    def encode(self, params: dict, features, points, molecule_type: str,
               geom: dict | None = None, orders=None) -> IrrepsField:
        """Encode one cloud with its molecule type's encoder.

        ``orders`` (default: orders 0 and 1) names the output orders the caller
        reads: ``HEAD_ORDERS`` for attention and the heads, ``TOKEN_ORDERS``
        for patch tokens. Orders left out are not computed; the ones returned
        are bitwise those of a full encode.
        """
        return self.encoder_for(molecule_type).apply(params, features, points, geom=geom,
                                                     orders=orders)

    def patch_tokens(self, params: dict, field: IrrepsField, member_idx: np.ndarray,
                     molecule_type: str) -> Tensor:
        """Mean-pool order-0 and order-1 features over patch members, then lift
        to d_code. The order-1 block keeps local orientation in the token."""
        prefix = "liftp" if molecule_type == "protein" else "liftm"
        p, k = member_idx.shape
        flat_idx = member_idx.reshape(-1)
        pooled = []
        for l in TOKEN_ORDERS:
            ch = field.channels[l]
            n, c, m = ch.shape
            grouped = ad.gather(ad.reshape(ch, (n, c * m)), flat_idx)
            pooled.append(ad.reduce_mean(ad.reshape(grouped, (p, k, c * m)), axis=1))
        both = ad.concat(pooled, axis=1)
        return ad.add(ad.matmul(both, params[f"{prefix}.w"]), ad.reshape(params[f"{prefix}.b"], (1, -1)))

    # -- decoder and heads -------------------------------------------------
    def decode_tokens(self, params: dict, tokens: Tensor, context: Tensor, centers: np.ndarray):
        """Map (t, d_code) patch tokens, each with its row of visible context
        and its patch-center offset from the cloud centroid, to coordinates
        and curvature probabilities."""
        t = tokens.shape[0]
        x = ad.concat([tokens, context, centers], axis=1)
        h = ad.tanh(ad.add(ad.matmul(x, params["dec.w1"]), ad.reshape(params["dec.b1"], (1, -1))))
        coords = ad.add(ad.matmul(h, params["dec.wc"]), ad.reshape(params["dec.bc"], (1, -1)))
        coords = ad.reshape(coords, (t, self.patch_k, 3))
        kurt = ad.add(ad.matmul(h, params["dec.wk"]), ad.reshape(params["dec.bk"], (1, -1)))
        psi = ad.softmax(kurt, axis=1)
        return coords, psi

    def _mlp_head(self, params: dict, name: str, x: Tensor, sigmoid: bool) -> Tensor:
        """``tanh(x @ w1 + b1) @ w2 + b2``, through a sigmoid when ``sigmoid``
        is set, as one node (op ``"mlp-head"``).

        A weight is a Tensor (then a parent) or a numpy array, read in
        place. The forward repeats the numpy expressions of the ops it
        replaces (``ad.matmul``, ``ad.add`` of a reshaped bias, ``ad.tanh``,
        ``ad.sigmoid``) and the vjp chains their vjps in reverse, so values
        and gradients are bitwise those of the op-by-op graph.
        """
        operands = (x,) + tuple(params[f"{name}.{w}"] for w in ("w1", "b1", "w2", "b2"))
        parents = tuple(t for t in operands if isinstance(t, Tensor))
        xv, w1, b1, w2, b2 = (t.values if isinstance(t, Tensor) else t for t in operands)
        x_on, w1_on, b1_on, w2_on, b2_on = (isinstance(t, Tensor) and t.requires_grad
                                            for t in operands)
        h = np.tanh(xv @ w1 + b1.reshape(1, -1))
        out = h @ w2 + b2.reshape(1, -1)
        if sigmoid:
            out = ad.sigmoid_values(out)

        def vjp(g):
            if sigmoid:
                g = g * out * (1.0 - out)
            g_x = g_w1 = g_b1 = None
            if x_on or w1_on or b1_on:
                g_a = g @ w2.T * (1.0 - h * h)
                g_x = g_a @ w1.T if x_on else None
                g_w1 = xv.T @ g_a if w1_on else None
                g_b1 = g_a.sum(axis=0) if b1_on else None
            grads = (g_x, g_w1, g_b1, h.T @ g if w2_on else None, g.sum(axis=0) if b2_on else None)
            return tuple(gt for gt, t in zip(grads, operands) if isinstance(t, Tensor))

        return ad.primitive(out, "mlp-head", parents, vjp)

    def pocket_head(self, params: dict, per_point: Tensor) -> Tensor:
        return ad.reshape(self._mlp_head(params, "pocket", per_point, True), (-1,))

    def interaction_head(self, params: dict, fused: Tensor) -> Tensor:
        x = ad.reshape(fused, (1, -1))
        return ad.reshape(self._mlp_head(params, "int", x, True), ())

    def affinity_head(self, params: dict, fused: Tensor) -> Tensor:
        x = ad.reshape(fused, (1, -1))
        return ad.reshape(self._mlp_head(params, "aff", x, False), ())

    def fuse(self, params: dict, receptor: Tensor, ligand: Tensor):
        return equivariant_attention(receptor, ligand, params)

    def complex_heads(self, params: dict, receptor: IrrepsField, ligand: IrrepsField):
        """Fuse the two fields and run the pocket, interaction and affinity heads.

        Each field's order 0 is reshaped once to an (n, d0) matrix. Each
        receptor point's pocket-head input is its own order-0 features next
        to the attended ones. The interaction and affinity heads score the
        fused vector, and the gate is the largest pocket probability times the
        interaction probability.

        Returns (pocket probabilities, interaction probability, predicted
        affinity, gate tensor used by the affinity loss).
        """
        zr = ad.reshape(receptor.channels[0], (-1, self.d0))
        zl = ad.reshape(ligand.channels[0], (-1, self.d0))
        attended, fused, _ = self.fuse(params, zr, zl)
        pocket = self.pocket_head(params, ad.concat([zr, attended], axis=1))
        y_int = self.interaction_head(params, fused)
        gate = ad.mul(ad.reduce_max(pocket), y_int)
        return pocket, y_int, self.affinity_head(params, fused), gate


# ---------------------------------------------------------------------------
# training loop, parameter plumbing and optimizers
# ---------------------------------------------------------------------------

def mean_terms(terms: list[Tensor]) -> Tensor:
    """Mean of scalar loss terms, summed in list order."""
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return ad.mul(acc, 1.0 / len(terms))


def train_loop(samples: list, steps: int, batch_size: int, order_seed: list[int],
               step, log=None) -> list[dict]:
    """Seed-deterministic minibatch loop shared by pretraining and fine-tuning.

    Each step draws ``min(batch_size, len(samples))`` distinct samples from a
    generator seeded with ``SeedSequence(order_seed)``, keeps them in corpus
    order and calls ``step(batch, index)``, which returns the step's record.
    Returns the records, each with its ``step`` index; ``log`` sees each one.
    """
    order_rng = np.random.default_rng(np.random.SeedSequence(order_seed))
    history = []
    for index in range(steps):
        idx = order_rng.choice(len(samples), size=min(batch_size, len(samples)), replace=False)
        record = step([samples[i] for i in np.sort(idx)], index)
        record["step"] = index
        history.append(record)
        if log is not None:
            log(record)
    return history


def as_tensors(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Wrap parameter arrays as trainable graph leaves."""
    return {name: Tensor(arr, requires_grad=True, op="param") for name, arr in params.items()}


def collect_grads(params_t: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: (t.grad if t.grad is not None else np.zeros(t.shape))
            for name, t in params_t.items()}


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients down when their global norm exceeds ``max_norm``."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


def sgd_momentum_step(params, grads, state, lr: float, momentum: float = 0.9):
    """In-place SGD with momentum; ``state`` holds per-parameter velocity."""
    for name, g in grads.items():
        v = state.get(name)
        v = momentum * v - lr * g if v is not None else -lr * g
        state[name] = v
        params[name] = params[name] + v


def adam_step(params, grads, state, lr: float, beta1=0.9, beta2=0.999, eps=1e-8,
              weight_decay: float = 0.0):
    """In-place Adam with decoupled weight decay; ``state`` holds moments."""
    t = state.get("_t", 0) + 1
    state["_t"] = t
    for name, g in grads.items():
        m = state.get(f"m.{name}", np.zeros_like(g))
        v = state.get(f"v.{name}", np.zeros_like(g))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        state[f"m.{name}"] = m
        state[f"v.{name}"] = v
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        update = m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay:
            update = update + weight_decay * params[name]
        params[name] = params[name] - lr * update
