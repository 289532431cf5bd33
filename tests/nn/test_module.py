"""Tests for the Module / Parameter abstractions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, get_default_dtype
from repro.nn import Linear, Module, Parameter, ReLU
from repro.nn.layers import BatchNorm2d


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8)
        self.second = Linear(8, 2)
        self.scale = Parameter(np.ones(1), name="scale")

    def forward(self, x):
        return self.second(self.first(x)) * self.scale


class _Chain(Module):
    """Container that registers each layer by attribute as ``layer<i>``."""

    def __init__(self, *layers: Module):
        super().__init__()
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)


class TestParameterRegistration:
    def test_parameters_are_collected_recursively(self):
        model = _TwoLayer()
        names = {name for name, _ in model.named_parameters()}
        assert names == {
            "first.weight",
            "first.bias",
            "second.weight",
            "second.bias",
            "scale",
        }

    def test_parameter_flags(self):
        parameter = Parameter(np.ones(3), name="p")
        assert parameter.requires_grad
        assert parameter.is_parameter
        assert parameter.op == "parameter"

    def test_num_parameters_and_bytes(self):
        model = _TwoLayer()
        expected = 4 * 8 + 8 + 8 * 2 + 2 + 1
        assert model.num_parameters() == expected
        assert model.parameter_nbytes() == expected * get_default_dtype().itemsize

    def test_modules_enumeration(self):
        model = _TwoLayer()
        assert len(model.modules()) == 3  # self + two Linear layers


class TestTrainingHelpers:
    def test_zero_grad_clears_gradients(self):
        model = _TwoLayer()
        out = model(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self):
        model = _Chain(Linear(2, 2), ReLU())
        model.eval()
        assert not model.training
        assert all(not module.training for module in model.modules())
        model.train()
        assert model.training


class TestStateDict:
    def test_roundtrip(self):
        source = _TwoLayer()
        target = _TwoLayer()
        target.load_state_dict(source.state_dict())
        for (name_a, param_a), (name_b, param_b) in zip(
            source.named_parameters(), target.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(param_a.data, param_b.data)

    def test_state_dict_is_a_copy(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["first.weight"][:] = 0.0
        assert not np.allclose(model.first.weight.data, 0.0)

    def test_unknown_parameter_raises(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["bogus"] = np.ones(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["first.weight"] = np.ones((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_buffers_roundtrip(self):
        bn_source = BatchNorm2d(3)
        bn_source.update_buffer("running_mean", np.array([1.0, 2.0, 3.0]))
        bn_target = BatchNorm2d(3)
        bn_target.load_state_dict(bn_source.state_dict())
        np.testing.assert_allclose(bn_target.running_mean, [1.0, 2.0, 3.0])

    def test_unknown_buffer_raises(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        state["buffer::bogus"] = np.ones(3)
        with pytest.raises(KeyError):
            bn.load_state_dict(state)


class TestAttributeRegistration:
    def test_parameters_follow_registration_order(self):
        model = _Chain(Linear(3, 5), ReLU(), Linear(5, 2))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias", "layer2.weight", "layer2.bias"]

    def test_named_modules_are_qualified(self):
        layers = [Linear(2, 2), ReLU()]
        model = _Chain(*layers)
        assert [name for name, _ in model.named_modules()] == ["", "layer0", "layer1"]
        assert model.modules()[1:] == layers

    def test_late_assignment_registers_parameters(self):
        model = _Chain(Linear(2, 2))
        before = len(model.parameters())
        model.layer1 = Linear(2, 2)
        assert len(model.parameters()) == before + 2
