"""Model zoo: the defender architectures evaluated in the PELTA paper."""

from repro.models.base import ImageClassifier
from repro.models.bit import BiTBlock, BiTConfig, BiTModel, bit_m_r101x3, bit_m_r152x4
from repro.models.paper_configs import (
    PAPER_MODEL_SPECS,
    PaperBiTSpec,
    PaperViTSpec,
)
from repro.models.registry import MODEL_REGISTRY, build_model, list_models
from repro.models.resnet import PreActBlock, ResNetConfig, ResNetV2, resnet56, resnet164
from repro.models.simple import MLPClassifier, SimpleCNN, SimpleCNNConfig
from repro.models.vit import ViTConfig, VisionTransformer, vit_b16, vit_b32, vit_l16

__all__ = [
    "BiTBlock",
    "BiTConfig",
    "BiTModel",
    "ImageClassifier",
    "MLPClassifier",
    "MODEL_REGISTRY",
    "PAPER_MODEL_SPECS",
    "PaperBiTSpec",
    "PaperViTSpec",
    "PreActBlock",
    "ResNetConfig",
    "ResNetV2",
    "SimpleCNN",
    "SimpleCNNConfig",
    "ViTConfig",
    "VisionTransformer",
    "bit_m_r101x3",
    "bit_m_r152x4",
    "build_model",
    "list_models",
    "resnet56",
    "resnet164",
    "vit_b16",
    "vit_b32",
    "vit_l16",
]
