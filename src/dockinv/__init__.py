"""Surface point-cloud docking pipeline with gradient-driven ligand generation.

Subpackages cover the four pipeline stages plus support code:

- :mod:`dockinv.autodiff` -- reverse-mode differentiation over dense arrays
- :mod:`dockinv.structures` / :mod:`dockinv.fileio` / :mod:`dockinv.config` --
  structure parsing, binary containers, run configuration
- :mod:`dockinv.surface` -- stage 1: surface clouds, features, patches
- :mod:`dockinv.equivariant` -- rotation-equivariant encoder and attention
- :mod:`dockinv.pretrain` -- stage 2: masked patch reconstruction with
  vector quantization
- :mod:`dockinv.finetune` -- stage 3: cascaded pocket/interaction/affinity heads
- :mod:`dockinv.inversion` -- stage 4: projected-gradient ligand generation
- :mod:`dockinv.theory` -- checks on the stage-4 objective, and metrics
- :mod:`dockinv.cli` -- command-line entry point
"""

__version__ = "0.1.0"
