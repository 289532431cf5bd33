"""Tests for the defender model zoo (ViT, ResNet-v2, BiT, SimpleCNN, MLP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.models import (
    BiTConfig,
    BiTModel,
    MLPClassifier,
    ResNetConfig,
    ResNetV2,
    SimpleCNN,
    SimpleCNNConfig,
    ViTConfig,
    VisionTransformer,
    build_model,
    list_models,
)
from repro.models.paper_configs import PAPER_MODEL_SPECS


def _tiny_vit(num_classes: int = 3) -> VisionTransformer:
    return VisionTransformer(
        ViTConfig(
            image_size=8, patch_size=4, in_channels=3, num_classes=num_classes,
            dim=12, depth=2, num_heads=2,
        )
    )


def _tiny_resnet(num_classes: int = 3) -> ResNetV2:
    return ResNetV2(
        ResNetConfig(
            in_channels=3, num_classes=num_classes, stage_widths=(4, 8),
            blocks_per_stage=1, image_size=8,
        )
    )


def _tiny_bit(num_classes: int = 3) -> BiTModel:
    return BiTModel(
        BiTConfig(
            in_channels=3, num_classes=num_classes, stage_widths=(4, 8),
            blocks_per_stage=1, width_factor=1, num_groups=2, image_size=8,
        )
    )


class TestVisionTransformer:
    def test_forward_shape(self, rng):
        model = _tiny_vit()
        out = model(Tensor(rng.uniform(size=(2, 3, 8, 8))))
        assert out.shape == (2, 3)

    def test_stem_output_is_token_sequence(self, rng):
        model = _tiny_vit()
        hidden = model.forward_stem(Tensor(rng.uniform(size=(2, 3, 8, 8))))
        assert hidden.shape == (2, model.config.sequence_length, model.config.dim)

    def test_forward_equals_stem_plus_trunk(self, rng):
        model = _tiny_vit()
        x = Tensor(rng.uniform(size=(2, 3, 8, 8)))
        full = model(x).data
        split = model.forward_trunk(model.forward_stem(x)).data
        np.testing.assert_allclose(full, split)

    def test_stem_parameters_are_embedding_parameters(self):
        model = _tiny_vit()
        stem_names = {id(p) for p in model.stem_parameters()}
        expected = {
            id(model.patch_embedding.projection),
            id(model.patch_embedding.bias),
            id(model.class_token.token),
            id(model.position_embedding.embedding),
        }
        assert stem_names == expected

    def test_attention_maps_available_after_forward(self, rng):
        model = _tiny_vit()
        assert model.attention_maps() == []
        model(Tensor(rng.uniform(size=(2, 3, 8, 8))))
        maps = model.attention_maps()
        assert len(maps) == model.config.depth
        assert maps[0].shape == (2, 2, model.config.sequence_length, model.config.sequence_length)

    def test_family_and_description(self):
        model = _tiny_vit()
        assert model.family == "vit"
        assert "position embedding" in model.stem_description


class TestResNetAndBiT:
    @pytest.mark.parametrize("factory", [_tiny_resnet, _tiny_bit], ids=["resnet", "bit"])
    def test_forward_shape(self, factory, rng):
        model = factory()
        out = model(Tensor(rng.uniform(size=(2, 3, 8, 8))))
        assert out.shape == (2, 3)

    @pytest.mark.parametrize("factory", [_tiny_resnet, _tiny_bit], ids=["resnet", "bit"])
    def test_forward_equals_stem_plus_trunk(self, factory, rng):
        model = factory()
        model.eval()
        x = Tensor(rng.uniform(size=(2, 3, 8, 8)))
        np.testing.assert_allclose(
            model(x).data, model.forward_trunk(model.forward_stem(x)).data
        )

    def test_resnet_stem_is_conv_bn(self):
        model = _tiny_resnet()
        stem_parameters = model.stem_parameters()
        assert {id(p) for p in stem_parameters} == {
            id(model.stem_conv.weight),
            id(model.stem_conv.bias),
            id(model.stem_bn.weight),
            id(model.stem_bn.bias),
        }

    def test_bit_stem_is_first_wsconv(self):
        model = _tiny_bit()
        assert {id(p) for p in model.stem_parameters()} == {id(model.stem_conv.weight)}

    def test_bit_stem_output_spatial_size_preserved(self, rng):
        model = _tiny_bit()
        hidden = model.forward_stem(Tensor(rng.uniform(size=(1, 3, 8, 8))))
        assert hidden.shape[2:] == (8, 8)

    def test_families(self):
        assert _tiny_resnet().family == "resnet"
        assert _tiny_bit().family == "bit"

    def test_gradients_flow_to_input(self, rng):
        model = _tiny_bit()
        x = Tensor(rng.uniform(size=(1, 3, 8, 8)), requires_grad=True, is_input=True)
        model(x).sum().backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()


class TestSimpleModels:
    def test_simple_cnn_shapes(self, rng):
        model = SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=5, widths=(4, 8), image_size=8))
        assert model(Tensor(rng.uniform(size=(2, 3, 8, 8)))).shape == (2, 5)

    def test_mlp_shapes(self, rng):
        model = MLPClassifier(input_dim=12, num_classes=3, hidden_dim=8, input_shape=(3, 2, 2))
        assert model(Tensor(rng.uniform(size=(4, 3, 2, 2)))).shape == (4, 3)

    def test_predict_and_accuracy(self, rng):
        model = MLPClassifier(input_dim=4, num_classes=2, hidden_dim=8, input_shape=(1, 2, 2))
        inputs = rng.uniform(size=(10, 1, 2, 2))
        predictions = model.predict(inputs)
        assert predictions.shape == (10,)
        accuracy = model.accuracy(inputs, predictions)
        assert accuracy == 1.0


class TestRegistryAndPaperConfigs:
    def test_every_paper_model_is_registered(self):
        names = list_models()
        for expected in (
            "vit_l16", "vit_b16", "vit_b32", "resnet56", "resnet164",
            "bit_m_r101x3", "bit_m_r152x4",
        ):
            assert expected in names

    def test_build_model_unknown_name(self):
        with pytest.raises(KeyError):
            build_model("not_a_model", num_classes=2)

    @pytest.mark.parametrize("name", ["vit_b32", "resnet56", "bit_m_r101x3", "simple_cnn", "mlp"])
    def test_build_model_forward(self, name, rng):
        model = build_model(name, num_classes=3, image_size=16)
        out = model(Tensor(rng.uniform(size=(2, 3, 16, 16))))
        assert out.shape == (2, 3)

    @pytest.mark.parametrize("name", list_models())
    def test_empty_batch_gives_empty_logits(self, name):
        """Zero samples give ``(0, num_classes)`` and leave the model's state alone."""
        model = build_model(name, num_classes=10, image_size=16)
        before = model.state_dict()
        assert model.logits(np.zeros((0, 3, 16, 16))).shape == (0, 10)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_paper_specs_cover_table1(self):
        assert set(PAPER_MODEL_SPECS) == {"vit_l16", "vit_b16", "bit_m_r101x3", "bit_m_r152x4"}

    def test_paper_spec_geometry(self):
        spec = PAPER_MODEL_SPECS["vit_l16"]
        assert spec.dim == 1024
        assert spec.num_patches == (224 // 16) ** 2
