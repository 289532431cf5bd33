"""Paper-scale model dimension specifications.

These specifications describe the *published* dimensions of the defender
models used in the paper (ViT-L/16, ViT-B/16, BiT-M-R101x3, BiT-M-R152x4 on
ImageNet inputs).  They are never instantiated as trainable models in this
repository — a 300M+ parameter model is far outside laptop-scale NumPy — but
they drive the Table I enclave-memory estimator in
:mod:`repro.core.memory_cost`, so the reproduction reports the memory cost of
the *real* architectures next to the paper's published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperViTSpec:
    """Published dimensions of a ViT defender (ImageNet input)."""

    name: str
    image_size: int
    patch_size: int
    in_channels: int
    dim: int
    depth: int
    num_heads: int
    total_parameters: int
    paper_shielded_portion: float
    paper_tee_bytes: float

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2


@dataclass(frozen=True)
class PaperBiTSpec:
    """Published dimensions of a BiT defender (ImageNet input)."""

    name: str
    image_size: int
    in_channels: int
    stem_out_channels: int
    stem_kernel: int
    stem_stride: int
    stem_padding: int
    total_parameters: int
    paper_shielded_portion: float
    paper_tee_bytes: float


_KB = 1024.0
_MB = 1024.0 * 1024.0

#: The four rows of Table I in the paper (ImageNet dataset variants).
PAPER_MODEL_SPECS: dict[str, PaperViTSpec | PaperBiTSpec] = {
    "vit_l16": PaperViTSpec(
        name="ViT-L/16",
        image_size=224,
        patch_size=16,
        in_channels=3,
        dim=1024,
        depth=24,
        num_heads=16,
        total_parameters=307_000_000,
        paper_shielded_portion=1.34e-2,
        paper_tee_bytes=15.16 * _MB,
    ),
    "vit_b16": PaperViTSpec(
        name="ViT-B/16",
        image_size=224,
        patch_size=16,
        in_channels=3,
        dim=768,
        depth=12,
        num_heads=12,
        total_parameters=86_000_000,
        paper_shielded_portion=3.61e-2,
        paper_tee_bytes=11.97 * _MB,
    ),
    "bit_m_r101x3": PaperBiTSpec(
        name="BiT-M-R101x3",
        image_size=224,
        in_channels=3,
        stem_out_channels=192,  # 64 base width x3 width factor
        stem_kernel=7,
        stem_stride=2,
        stem_padding=3,
        total_parameters=387_000_000,
        paper_shielded_portion=4.50e-5,
        paper_tee_bytes=65.20 * _KB,
    ),
    "bit_m_r152x4": PaperBiTSpec(
        name="BiT-M-R152x4",
        image_size=224,
        in_channels=3,
        stem_out_channels=256,  # 64 base width x4 width factor
        stem_kernel=7,
        stem_stride=2,
        stem_padding=3,
        total_parameters=936_000_000,
        paper_shielded_portion=9.23e-5,
        paper_tee_bytes=322.14 * _KB,
    ),
}

