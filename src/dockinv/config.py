"""Run configuration: every pipeline tunable with a default and an override path.

Precedence is built-in default < config file < explicit overrides. The config
file format is plain ``key = value`` lines with ``#`` comments; keys mirror
RunConfig field names exactly and unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_overrides"]


class ConfigError(ValueError):
    """Invalid configuration key or value."""


@dataclass
class RunConfig:
    # -- stage 1: surface construction --------------------------------------
    r_probe: float = 1.4           # probe radius / iso level, Angstrom
    sigma_upsample: float = 2.0    # stddev of candidate perturbations around atoms
    eta_protein: int = 20          # candidate oversampling per protein atom
    eta_molecule: int = 40         # candidate oversampling per molecule atom
    m_protein: int = 5000          # surface points sampled for proteins
    m_molecule: int = 0            # 0 -> max(512, 64 * atom count)
    t_sdf: int = 50                # bound on the projection's Newton iterations
    projection_tol: float = 1e-3   # |SDF - r_iso| acceptance band, Angstrom
    rho: float = 0.125             # patch-center ratio (no value stated upstream)
    patch_k: int = 32              # neighbors per patch
    r_chem: float = 5.0            # chemical neighborhood radius, Angstrom
    k_geom: int = 10               # neighbors for geometric descriptors
    eps_omega: float = 1e-6        # epsilon in the probe-scaled weights
    interface_cutoff_ligand: float = 4.0   # pocket pseudo-label contact cutoff, Angstrom

    # -- encoder -------------------------------------------------------------
    multiplicity: int = 16         # channels per order in hidden layers
    n_radial_basis: int = 8
    conv_k: int = 16               # conv neighborhood size
    conv_cutoff: float = 5.0       # radial cutoff, Angstrom

    # -- stage 2: pretraining --------------------------------------------------
    mask_ratio: float = 0.5        # delta
    codebook_size: int = 512       # N_B
    gumbel_tau: float = 1.0
    d_code: int = 128
    nu1: float = 1.0               # reconstruction weight
    nu2: float = 1.0               # curvature weight
    nu3: float = 0.01              # KL weight
    pretrain_lr: float = 0.05
    pretrain_momentum: float = 0.9
    grad_clip: float = 10.0        # global gradient-norm cap during training

    # -- stage 3: fine-tuning ----------------------------------------------
    alpha: float = 5.0             # pocket loss weight
    beta: float = 50.0             # interaction loss weight
    lambda_p: float = 1.0          # geometric regularizer weight
    tau_conf: float = 0.1          # affinity gate floor
    finetune_lr: float = 1e-4
    weight_decay: float = 1e-5
    head_hidden: int = 128

    # -- stage 4: inversion ----------------------------------------------------
    gamma_bias: float = 0.1        # gradient bias in categorical decoding
    eta_max: float = 1e-3
    eta_min: float = 1e-5
    t_invert: int = 200            # inversion iterations T
    sigma_motif: float = 0.5
    clash_floor: float = 1.7
    bond_min: float = 1.0
    bond_max: float = 2.0
    decode_every: int = 20
    eps_dg: float = 1e-4           # affinity-plateau stopping tolerance
    dg_target: float = -2.0        # standardized target affinity
    tau_acc: float = 1.0           # acceptance temperature, discrete mode
    n_init_points: int = 24
    n_init_residues: int = 5
    sigma_init: float = 2.0
    max_repair_rounds: int = 10
    max_step_retries: int = 5
    motif_bias: float = 0.5        # strength of motif-template logit bias
    assert_descent: bool = False   # enable per-step descent assertions

    def validate(self) -> "RunConfig":
        ratios = {"rho": self.rho, "mask_ratio": self.mask_ratio}
        for name, v in ratios.items():
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1], got {v}")
        counts = {
            "eta_protein": self.eta_protein, "eta_molecule": self.eta_molecule,
            "m_protein": self.m_protein, "t_sdf": self.t_sdf, "patch_k": self.patch_k,
            "k_geom": self.k_geom,
            "multiplicity": self.multiplicity, "n_radial_basis": self.n_radial_basis,
            "conv_k": self.conv_k,
            "codebook_size": self.codebook_size, "d_code": self.d_code,
            "head_hidden": self.head_hidden, "decode_every": self.decode_every,
            "max_repair_rounds": self.max_repair_rounds, "max_step_retries": self.max_step_retries,
        }
        for name, v in counts.items():
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        # the state's geometry block averages over each point's other points
        points = {"n_init_points": self.n_init_points, "n_init_residues": self.n_init_residues}
        for name, v in points.items():
            if v < 2:
                raise ConfigError(f"{name} must be >= 2, got {v}")
        steps = {
            "projection_tol": self.projection_tol,
            "pretrain_lr": self.pretrain_lr, "finetune_lr": self.finetune_lr,
            "eta_max": self.eta_max, "eta_min": self.eta_min,
            "gumbel_tau": self.gumbel_tau, "tau_acc": self.tau_acc,
            "r_probe": self.r_probe, "sigma_upsample": self.sigma_upsample,
            "r_chem": self.r_chem,
            "conv_cutoff": self.conv_cutoff, "sigma_motif": self.sigma_motif,
            "clash_floor": self.clash_floor, "bond_min": self.bond_min,
            "bond_max": self.bond_max, "sigma_init": self.sigma_init,
            "grad_clip": self.grad_clip,
        }
        for name, v in steps.items():
            if v <= 0:
                raise ConfigError(f"{name} must be > 0, got {v}")
        if self.m_molecule < 0 or self.t_invert < 0:
            raise ConfigError("counts must be non-negative")
        if self.eta_min > self.eta_max:
            raise ConfigError("eta_min must not exceed eta_max")
        if self.bond_min >= self.bond_max:
            raise ConfigError("bond_min must be below bond_max")
        return self

    def m_for(self, molecule_type: str, n_atoms: int) -> int:
        if molecule_type == "protein":
            return self.m_protein
        if self.m_molecule > 0:
            return self.m_molecule
        return max(512, 64 * n_atoms)

    def digest(self) -> str:
        """Stable hash of the effective configuration."""
        parts = []
        for f in dataclasses.fields(self):
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw).validate()


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    f = _FIELDS.get(name)
    if f is None:
        raise ConfigError(f"unknown config key '{name}'")
    raw = raw.strip()
    if f.type in ("bool", bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {name}: {raw!r}")
    if f.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"bad integer for {name}: {raw!r}") from None
    if f.type in ("float", float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad float for {name}: {raw!r}") from None
    return raw


def load_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines (with # comments) on top of ``base``."""
    cfg = base if base is not None else RunConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name, raw = body.split("=", 1)
        name = name.strip()
        updates[name] = _coerce(name, raw)
    return cfg.replace(**updates)


def parse_overrides(pairs: list[str], base: RunConfig) -> RunConfig:
    """Apply repeatable ``--set key=value`` overrides."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        updates[name.strip()] = _coerce(name.strip(), raw)
    return base.replace(**updates)
