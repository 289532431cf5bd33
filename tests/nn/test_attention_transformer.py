"""Tests for attention, transformer blocks, embeddings and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, numerical_gradient, relative_error
from repro.nn import (
    ClassToken,
    MLPBlock,
    MultiHeadSelfAttention,
    PatchEmbedding,
    PositionalEmbedding,
    TransformerEncoderBlock,
)
from repro.nn.trainer import TrainingHistory, fit_classifier, make_optimizer
from repro.models.simple import MLPClassifier

TOL = 1e-5


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        attention = MultiHeadSelfAttention(dim=16, num_heads=4)
        out = attention(Tensor(rng.normal(size=(2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=10, num_heads=3)

    def test_attention_weights_are_stored_and_normalised(self, rng):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2)
        attention(Tensor(rng.normal(size=(3, 5, 8))))
        weights = attention.last_attention_weights
        assert weights.shape == (3, 2, 5, 5)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_gradient(self, rng):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2)
        x0 = rng.normal(size=(2, 4, 8))
        probe = rng.normal(size=(2, 4, 8))
        tensor = Tensor(x0.copy(), requires_grad=True)
        attention(tensor).backward(probe)
        numeric = numerical_gradient(
            lambda a: float((attention(Tensor(a)).data * probe).sum()), x0.copy()
        )
        assert relative_error(tensor.grad, numeric) < TOL


class TestTransformerBlocks:
    def test_mlp_block_shape(self, rng):
        block = MLPBlock(dim=12, hidden_dim=24)
        assert block(Tensor(rng.normal(size=(2, 5, 12)))).shape == (2, 5, 12)

    def test_encoder_block_preserves_shape(self, rng):
        block = TransformerEncoderBlock(dim=16, num_heads=4)
        assert block(Tensor(rng.normal(size=(2, 5, 16)))).shape == (2, 5, 16)

    def test_encoder_block_is_residual(self, rng):
        """Zeroing the block's final projections must make it the identity."""
        block = TransformerEncoderBlock(dim=8, num_heads=2)
        block.attention.proj.weight.data[:] = 0.0
        block.attention.proj.bias.data[:] = 0.0
        block.mlp.fc2.weight.data[:] = 0.0
        block.mlp.fc2.bias.data[:] = 0.0
        x = rng.normal(size=(1, 3, 8))
        np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-12)


class TestEmbeddings:
    def test_patchify_shape_and_content(self, rng):
        embed = PatchEmbedding(image_size=8, patch_size=4, in_channels=3, dim=16)
        x = rng.normal(size=(2, 3, 8, 8))
        patches = embed.patchify(Tensor(x))
        assert patches.shape == (2, 4, 48)
        # First patch must be the top-left 4x4 block of every channel.
        expected = x[0, :, :4, :4].reshape(-1)
        np.testing.assert_allclose(patches.data[0, 0], expected)

    def test_patch_embedding_output_shape(self, rng):
        embed = PatchEmbedding(image_size=8, patch_size=2, in_channels=3, dim=10)
        assert embed(Tensor(rng.normal(size=(2, 3, 8, 8)))).shape == (2, 16, 10)

    def test_patch_size_must_divide_image(self):
        with pytest.raises(ValueError):
            PatchEmbedding(image_size=9, patch_size=4, in_channels=3, dim=8)

    def test_class_token_prepends(self, rng):
        token = ClassToken(dim=6)
        out = token(Tensor(rng.normal(size=(3, 4, 6))))
        assert out.shape == (3, 5, 6)
        np.testing.assert_allclose(out.data[0, 0], token.token.data[0, 0])

    def test_positional_embedding_adds(self, rng):
        positional = PositionalEmbedding(sequence_length=5, dim=6)
        tokens = rng.normal(size=(2, 5, 6))
        out = positional(Tensor(tokens))
        np.testing.assert_allclose(out.data, tokens + positional.embedding.data)

    def test_positional_embedding_length_mismatch(self, rng):
        positional = PositionalEmbedding(sequence_length=5, dim=6)
        with pytest.raises(ValueError):
            positional(Tensor(rng.normal(size=(2, 4, 6))))


class TestTrainer:
    def test_fit_reduces_loss_and_reaches_high_accuracy(self, rng):
        points = rng.normal(size=(120, 1, 1, 2))
        labels = (points[:, 0, 0, 0] > 0).astype(np.int64)
        model = MLPClassifier(input_dim=2, num_classes=2, hidden_dim=16, input_shape=(1, 1, 2))
        history = fit_classifier(model, points, labels, epochs=12, batch_size=32, lr=5e-3)
        assert history.losses[-1] < history.losses[0]
        assert history.final_accuracy > 0.9
        assert not model.training  # fit leaves the model in eval mode

    def test_fit_is_reproducible_from_the_same_weights_and_stream(self, rng):
        """Training keeps no state between runs: equal inputs give equal bytes."""
        points = rng.normal(size=(50, 1, 1, 2))
        labels = (points[:, 0, 0, 1] > 0).astype(np.int64)
        initial = MLPClassifier(input_dim=2, num_classes=2, input_shape=(1, 1, 2)).state_dict()
        states = []
        for _ in range(2):
            model = MLPClassifier(input_dim=2, num_classes=2, input_shape=(1, 1, 2))
            model.load_state_dict(initial)
            fit_classifier(
                model, points, labels, epochs=2, batch_size=16, rng=np.random.default_rng(5)
            )
            states.append(model.state_dict())
        assert states[0].keys() == states[1].keys()
        for name in states[0]:
            assert states[0][name].tobytes() == states[1][name].tobytes(), name

    def test_make_optimizer_variants(self):
        model = MLPClassifier(input_dim=2, num_classes=2)
        assert make_optimizer(model, "adam").parameters
        assert make_optimizer(model, "sgd", lr=0.1).lr == 0.1
        with pytest.raises(ValueError):
            make_optimizer(model, "bogus")

    def test_empty_history_defaults(self):
        history = TrainingHistory()
        assert np.isnan(history.final_loss)
        assert np.isnan(history.final_accuracy)
