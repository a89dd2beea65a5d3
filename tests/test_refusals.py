"""Input refusals shared across modules: one shape gate, integral arguments.

Every descriptor outside an operation's rotation-count or padding domain
raises ``UnsupportedShape``, every pair whose shapes differ raises
``ShapeMismatch``, and a non-integral count or degree raises
``PreconditionViolated``; all three are ``PreconditionViolated``.
"""

import numpy as np
import pytest

from orbilens.cli import main
from orbilens.core import LensSpace, decompose_singular, is_isometric, reduce, sphere
from orbilens.errors import PreconditionViolated, ShapeMismatch, UnsupportedShape
from orbilens.heat import csc2_sum, csc4_sum, heat_expansion_3d, same_heat_expansion, stratum_b01
from orbilens.search import isometry_classes, sweep_stream
from orbilens.spectrum import (
    generating_function,
    is_isospectral,
    multiplicity,
    multiplicity_series,
    pole_order,
    residue_case3,
    residue_cot_sum,
    spectrum_table,
)

THREE_BLOCKS = LensSpace(30, (2, 15, 7))

# Single descriptors outside the domain: (operation named in the message, call).
SHAPE_REFUSALS = {
    "decompose_singular-rank": ("decompose_singular", lambda: decompose_singular(THREE_BLOCKS)),
    "generating_function-padding": (
        "generating_function",
        lambda: generating_function(reduce(7, [1, 2], 2)),
    ),
    "pole_order-padding": ("generating_function", lambda: pole_order(reduce(7, [1, 2], 2), 7)),
    "residue_cot_sum-rank": ("residue_cot_sum", lambda: residue_cot_sum(THREE_BLOCKS)),
    "residue_cot_sum-padding": ("residue_cot_sum", lambda: residue_cot_sum(reduce(30, [2, 15], 1))),
    "residue_case3-rank": ("residue_case3", lambda: residue_case3(LensSpace(9, (1, 3, 2)))),
    "residue_case3-padding": ("residue_case3", lambda: residue_case3(reduce(9, [1, 3], 1))),
    "heat_expansion_3d-rank": ("heat_expansion_3d", lambda: heat_expansion_3d(THREE_BLOCKS)),
    "heat_expansion_3d-padding": (
        "heat_expansion_3d",
        lambda: heat_expansion_3d(reduce(195, [3, 5], 1)),
    ),
    "same_heat_expansion-rank": (
        "same_heat_expansion",
        lambda: same_heat_expansion(THREE_BLOCKS, THREE_BLOCKS),
    ),
    "same_heat_expansion-padding": (
        "same_heat_expansion",
        lambda: same_heat_expansion(reduce(7, [1, 2], 2), reduce(7, [1, 3], 2)),
    ),
}

PAIR_OPERATIONS = [is_isometric, is_isospectral, same_heat_expansion]
UNEQUAL_SHAPES = [
    (reduce(7, [1, 2]), reduce(7, [1, 2], 1)),
    (reduce(7, [1, 2]), reduce(7, [1, 2, 3])),
]


@pytest.mark.parametrize("what,call", SHAPE_REFUSALS.values(), ids=SHAPE_REFUSALS)
def test_single_descriptor_outside_domain(what, call):
    with pytest.raises(UnsupportedShape, match=f"^{what} needs .*, got n=\\d+, padding=\\d+$"):
        call()


@pytest.mark.parametrize("operation", PAIR_OPERATIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("first,second", UNEQUAL_SHAPES, ids=["padding", "rank"])
def test_pair_of_unequal_shapes(operation, first, second):
    with pytest.raises(ShapeMismatch):
        operation(first, second)


def test_shape_refusals_are_preconditions():
    assert issubclass(UnsupportedShape, PreconditionViolated)
    assert issubclass(ShapeMismatch, PreconditionViolated)


@pytest.mark.parametrize(
    "argv",
    [
        ["isometric", "7", "1", "2", "--", "1", "2", "3"],
        ["heat", "195", "3", "5", "--padding", "1"],
    ],
)
def test_cli_shape_refusal_exits_2_without_output(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# Calls taking one integral argument, given a float.  Each raised a bare
# TypeError (numpy's UFuncTypeError for isometry_classes) before the
# argument was checked as an integer.
INTEGRAL_ARGUMENTS = {
    "sweep_stream": (lambda x: list(sweep_stream("rigidity", x, x + 1)), 8.0),
    "heat_expansion_3d": (lambda x: heat_expansion_3d(reduce(195, [3, 5]), order=x), 1.5),
    "multiplicity_series": (lambda x: multiplicity_series(reduce(7, [1, 2]), x), 2.5),
    "multiplicity": (lambda x: multiplicity(reduce(7, [1, 2]), x), 2.5),
    "spectrum_table": (lambda x: spectrum_table(reduce(7, [1, 2]), x), 2.5),
    "taylor": (lambda x: generating_function(reduce(7, [1, 2])).taylor(x), 2.5),
    "pole_order": (lambda x: pole_order(reduce(8, [1, 3]), x), 2.0),
    "sphere": (sphere, 1.5),
    "csc2_sum": (csc2_sum, 2.5),
    "csc4_sum": (csc4_sum, 2.5),
    "stratum_b01": (stratum_b01, 2.5),
    "residue_case3": (lambda x: residue_case3(reduce(8, [1, 2]), x), 1.5),
    "isometry_classes": (isometry_classes, 8.0),
}


@pytest.mark.parametrize("call,value", INTEGRAL_ARGUMENTS.values(), ids=INTEGRAL_ARGUMENTS)
def test_non_integral_argument_refused(call, value):
    with pytest.raises(PreconditionViolated):
        call(value)


@pytest.mark.parametrize("call,value", INTEGRAL_ARGUMENTS.values(), ids=INTEGRAL_ARGUMENTS)
def test_numpy_integer_argument_accepted(call, value):
    call(np.int64(int(value)))
