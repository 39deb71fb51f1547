"""Configuration-space specification (Table 5 of the paper).

A :class:`ConfigurationSpace` is an ordered set of categorical knobs.  Search
algorithms operate on vectors in ``[0, 1)^d`` which the space decodes into
:class:`~repro.framework.recipe.TrainingRecipe` objects; grid search simply
enumerates the Cartesian product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.framework.recipe import TrainingRecipe


@dataclass(frozen=True)
class Knob:
    """One categorical configuration dimension."""

    name: str
    choices: Tuple[object, ...]

    def decode(self, unit_value: float) -> object:
        """Map a value in ``[0, 1)`` onto one of the knob's choices."""
        clipped = min(max(float(unit_value), 0.0), 1.0 - 1e-9)
        return self.choices[int(clipped * len(self.choices))]

    def encode(self, choice: object) -> float:
        """Centre of the unit-interval bucket representing ``choice``."""
        index = self.choices.index(choice)
        return (index + 0.5) / len(self.choices)


@dataclass(frozen=True)
class ConfigurationSpace:
    """The set of training recipes Maya-Search explores."""

    knobs: Tuple[Knob, ...]
    #: Recipe fields that stay fixed for every point of the space.
    fixed: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return len(self.knobs)

    def size(self) -> int:
        total = 1
        for knob in self.knobs:
            total *= len(knob.choices)
        return total

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def decode(self, vector: Sequence[float]) -> TrainingRecipe:
        """Convert a unit vector into a training recipe."""
        if len(vector) != self.dimensions:
            raise ValueError(
                f"expected a vector of length {self.dimensions}, got {len(vector)}"
            )
        values = dict(self.fixed)
        for knob, unit_value in zip(self.knobs, vector):
            values[knob.name] = knob.decode(unit_value)
        return TrainingRecipe(**values)  # type: ignore[arg-type]

    def encode(self, recipe: TrainingRecipe) -> np.ndarray:
        """Convert a recipe into the unit vector representing it."""
        vector = np.zeros(self.dimensions)
        data = recipe.to_dict()
        for index, knob in enumerate(self.knobs):
            vector[index] = knob.encode(data[knob.name])
        return vector

    # ------------------------------------------------------------------
    # enumeration and sampling
    # ------------------------------------------------------------------
    def enumerate(self) -> Iterator[TrainingRecipe]:
        """Yield every recipe in the space (grid-search order)."""
        for combo in itertools.product(*(knob.choices for knob in self.knobs)):
            values = dict(self.fixed)
            values.update({knob.name: value
                           for knob, value in zip(self.knobs, combo)})
            yield TrainingRecipe(**values)  # type: ignore[arg-type]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random unit vector."""
        return rng.random(self.dimensions)

    def valid_recipes(self, world_size: int, global_batch_size: int,
                      num_layers: int, num_heads: int,
                      gpus_per_node: int | None = None) -> List[TrainingRecipe]:
        """Enumerate only the recipes valid for a given model/cluster."""
        return [recipe for recipe in self.enumerate()
                if recipe.is_valid(world_size, global_batch_size, num_layers,
                                   num_heads, gpus_per_node)]


def default_search_space(
    tensor_parallel: Sequence[int] = (1, 2, 4, 8),
    pipeline_parallel: Sequence[int] = (1, 2, 4, 8),
    microbatch_multiplier: Sequence[int] = (1, 2, 4, 6, 8),
    virtual_stages: Sequence[int] = (1, 2, 4),
    activation_recomputation: Sequence[bool] = (True, False),
    sequence_parallelism: Sequence[bool] = (True, False),
    distributed_optimizer: Sequence[bool] = (True, False),
    dtype: str = "bfloat16",
) -> ConfigurationSpace:
    """Build the Table 5 search space (optionally restricted)."""
    return ConfigurationSpace(
        knobs=(
            Knob("tensor_parallel", tuple(tensor_parallel)),
            Knob("pipeline_parallel", tuple(pipeline_parallel)),
            Knob("microbatch_multiplier", tuple(microbatch_multiplier)),
            Knob("virtual_stages", tuple(virtual_stages)),
            Knob("activation_recomputation", tuple(activation_recomputation)),
            Knob("sequence_parallelism", tuple(sequence_parallelism)),
            Knob("distributed_optimizer", tuple(distributed_optimizer)),
        ),
        fixed={"dtype": dtype},
    )


#: The exact knob grid of Table 5 (2,400 raw points before validity checks).
DEFAULT_SEARCH_SPACE = default_search_space()
