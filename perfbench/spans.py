"""Span wrappers for the traced benchmark run.

A span wraps one public dockinv function (or method). It records the call
count, the inclusive duration and the self time: the duration minus the part
covered by nested spans. Several functions may share one span name (for
example the four feature functions report as ``surface.features_s``).

The wrapper replaces the function in its defining module or class and in
every loaded ``dockinv`` module that imported it by name, so calls through
any binding are seen. ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.active = True
        self._stack: list[float] = []      # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.builds: list[tuple[int, float, bool]] = []   # (atoms, seconds, ok)
        self.runs: list[tuple[int, bool]] = []            # (steps, stopped early)
        self.last_sdf = None

    def counts(self) -> dict:
        """Everything that must repeat exactly when the same work is traced again."""
        return {"calls": dict(self.calls), "counters": dict(self.counters),
                "runs": list(self.runs), "builds": [(n, ok) for n, _, ok in self.builds]}

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (used for the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, span: str, fn, hook, count_nodes: bool):
        tracer = self
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            nodes_before = node_id() if count_nodes else 0
            start = time.perf_counter()
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = time.perf_counter() - start
                child = tracer._stack.pop()
                tracer.self_s[span] += dur - child
                tracer.calls[span] += 1
                if tracer._stack:
                    tracer._stack[-1] += dur
                if count_nodes:
                    tracer.counters[span + ".nodes"] += node_id() - nodes_before - 1
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, bound.arguments, result, dur, failed)

        return wrapper

    def install(self, owner, attr: str, span: str, hook=None, count_nodes=False) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        With ``count_nodes`` the span also sums the autodiff tape nodes
        created during the call into ``counters[span + ".nodes"]``.
        """
        original = getattr(owner, attr)
        wrapper = self._wrap(span, original, hook, count_nodes)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                mod for name, mod in list(sys.modules.items())
                if mod is not owner and (name == "dockinv" or name.startswith("dockinv."))
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# hooks: counters read at the span boundary
# ---------------------------------------------------------------------------

def _sdf_hook(tr: Tracer, a, result, dur, failed):
    if failed:
        return
    p = np.atleast_2d(a["points"]).shape[0]
    n_atoms = np.asarray(a["coords"]).shape[0]
    tr.counters["sdf_pair_evals"] += p * n_atoms
    tr.counters["sdf_bytes_computed"] = max(tr.counters["sdf_bytes_computed"], p * n_atoms * 3 * 8)
    tr.last_sdf = result[0]


def _project_hook(tr: Tracer, a, result, dur, failed):
    # the last sdf_value_grad inside the projection is its acceptance test
    tr.counters["in_band"] += int((np.abs(tr.last_sdf - a["r_iso"]) <= a["tol"]).sum())
    tr.counters["candidates"] += len(a["candidates"])


def _build_hook(tr: Tracer, a, result, dur, failed):
    tr.builds.append((len(a["structure"].atoms), dur, not failed))


def _objective_hook(tr: Tracer, a, result, dur, failed):
    tr.counters["objective_grad_calls" if a["need_grad"] else "objective_nograd_calls"] += 1


def _run_hook(tr: Tracer, a, result, dur, failed):
    if failed:
        return
    budget = a["cfg"].t_invert if a["steps"] is None else a["steps"]
    tr.runs.append((len(result.trace), len(result.trace) < budget))


def install_dockinv_spans(tracer: Tracer) -> None:
    """Wrap the public functions of the measured layers."""
    from dockinv import autodiff, equivariant, finetune, inversion, model, pretrain, surface

    M = model.PipelineModel
    spans = [
        (surface, "build_surface", "surface.build_s", _build_hook),
        (surface, "project_to_isosurface", "surface.project_s", _project_hook),
        (surface, "estimate_normals", "surface.normals_s", None),
        (surface, "chemical_features", "surface.features_s", None),
        (surface, "atomic_features", "surface.features_s", None),
        (surface, "geometric_features", "surface.features_s", None),
        (surface, "assemble_features", "surface.features_s", None),
        (surface, "fps", "surface.patches_s", None),
        (surface, "knn", "surface.patches_s", None),
        (surface, "pool_patch_stats", "surface.patches_s", None),
        (surface, "interface_labels", "surface.patches_s", None),
        (surface, "sdf_value_grad", "surface.sdf_s", _sdf_hook),
        (equivariant, "knn_indices", "equivariant.knn_s", None),
        (equivariant, "conv_geometry", "equivariant.conv_geometry_s", None),
        (equivariant.ConvLayer, "apply", "equivariant.conv_s", None),
        (equivariant, "equivariant_attention", "equivariant.attention_s", None),
        (equivariant, "coupling_tensor", "equivariant.coupling_s", None),
        (autodiff, "backward", "autodiff.backward_s", None),
        (M, "encode", "model.encode_s", None),
        (M, "precompute_geometry", "model.precompute_geometry_s", None),
        (M, "pocket_head", "model.heads_s", None),
        (M, "interaction_head", "model.heads_s", None),
        (M, "affinity_head", "model.heads_s", None),
        (M, "fuse", "model.fuse_s", None),
        (M, "patch_tokens", "model.patch_tokens_s", None),
        (M, "decode_tokens", "model.decode_tokens_s", None),
        (model, "clip_grads", "model.optim_s", None),
        (model, "sgd_momentum_step", "model.optim_s", None),
        (model, "adam_step", "model.optim_s", None),
        (pretrain, "pretrain_step", "pretrain.step_s", None),
        (pretrain, "pretrain_loss", "pretrain.loss_s", None),
        (pretrain, "gumbel_quantize", "pretrain.quantize_s", None),
        (pretrain, "chamfer_loss", "pretrain.chamfer_s", None),
        (finetune, "finetune_step", "finetune.step_s", None),
        (finetune, "complex_forward", "finetune.forward_s", None),
        (finetune, "geometric_pseudolabels", "finetune.pseudolabels_s", None),
        (inversion, "initial_state", "inversion.init_s", None),
        (inversion, "decode_molecule", "inversion.decode_s", None),
        (inversion, "repair_state", "inversion.repair_s", None),
        (inversion, "validity_repair", "inversion.repair_s", None),
        (inversion, "composite_objective", "inversion.objective_s", _objective_hook),
        (inversion, "state_features", "inversion.state_features_s", None),
        (inversion, "pgd_step", "inversion.pgd_step_s", None),
        (inversion, "run_inversion", "inversion.run", _run_hook),
    ]
    for owner, attr, span, hook in spans:
        tracer.install(owner, attr, span, hook)
    tracer.install(inversion, "prepare_receptor", "inversion.prepare_receptor_s",
                   count_nodes=True)


def node_id() -> int:
    """Next autodiff tape node id (creating the probe consumes one id)."""
    from dockinv import autodiff

    return autodiff.constant(0.0).node_id
