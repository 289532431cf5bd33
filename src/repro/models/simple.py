"""Small auxiliary classifiers used in tests, examples and the FL substrate."""

from __future__ import annotations

from dataclasses import dataclass

from repro.autodiff import functional as F
from repro.autodiff.conv import global_avg_pool2d
from repro.autodiff.tensor import Tensor
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.module import Module
from repro.models.base import ImageClassifier


@dataclass(frozen=True)
class SimpleCNNConfig:
    """Hyper-parameters of the small CNN."""

    in_channels: int
    num_classes: int
    widths: tuple[int, ...] = (16, 32)
    image_size: int = 32


class SimpleCNN(ImageClassifier):
    """A compact CNN: conv-ReLU stem, a few conv blocks, global pooling, head.

    Handy as a fast defender in unit tests and as the client model in FL
    round simulations where the full zoo would be needlessly slow.
    """

    family = "cnn"
    stem_description = "first convolution and ReLU activation"

    def __init__(self, config: SimpleCNNConfig):
        super().__init__(config.num_classes, (config.in_channels, config.image_size, config.image_size))
        self.config = config
        self.stem_conv = Conv2d(config.in_channels, config.widths[0], 3, stride=1, padding=1)
        self.stem_act = ReLU()
        self.convs: list[Conv2d] = []
        in_channels = config.widths[0]
        for index, width in enumerate(config.widths):
            conv = Conv2d(in_channels, width, 3, stride=2 if index > 0 else 1, padding=1)
            setattr(self, f"conv{index}", conv)
            self.convs.append(conv)
            in_channels = width
        self.head = Linear(in_channels, config.num_classes)

    def forward_stem(self, x: Tensor) -> Tensor:
        centred = (x - 0.5) * 2.0
        return self.stem_act(self.stem_conv(centred))

    def forward_trunk(self, hidden: Tensor) -> Tensor:
        for conv in self.convs:
            hidden = F.relu(conv(hidden))
        pooled = global_avg_pool2d(hidden)
        return self.head(pooled)

    def stem_modules(self) -> list[Module]:
        return [self.stem_conv]


class MLPClassifier(ImageClassifier):
    """A two-layer MLP classifier over flattened images.

    The cheapest member of the zoo; used by the FL substrate tests and by the
    Fig. 3 attack-geometry benchmark (2-D toy inputs).
    """

    family = "mlp"
    stem_description = "first linear layer and ReLU activation"

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        hidden_dim: int = 64,
        input_shape: tuple[int, int, int] | None = None,
    ):
        shape = input_shape if input_shape is not None else (1, 1, input_dim)
        super().__init__(num_classes, shape)
        self.input_dim = input_dim
        self.fc1 = Linear(input_dim, hidden_dim)
        self.fc2 = Linear(hidden_dim, num_classes)

    def forward_stem(self, x: Tensor) -> Tensor:
        flat = x.reshape(x.shape[0], self.input_dim)
        return F.relu(self.fc1(flat))

    def forward_trunk(self, hidden: Tensor) -> Tensor:
        return self.fc2(hidden)

    def stem_modules(self) -> list[Module]:
        return [self.fc1]
