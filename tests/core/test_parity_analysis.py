"""Cube-union enumeration of the ENUMERATION controllability engine.

The explicit form of the paper's cut cube-parity exploration: the only
primary-input patterns that matter are unions of cube literal sets, and
``RedundancyRemover._enumeration_patterns`` enumerates all of them.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.factor_cube import factor_cubes
from repro.core.options import SynthesisOptions
from repro.core.redundancy import RedundancyRemover
from repro.core.tree import tree_from_expr
from repro.expr.esop import FprmForm

N = 5


@st.composite
def forms(draw):
    masks = draw(st.sets(st.integers(1, (1 << N) - 1), min_size=1, max_size=6))
    return FprmForm.from_masks(N, (1 << N) - 1, masks)


def enumeration_patterns(form: FprmForm, **option_kwargs) -> list[int]:
    tree = tree_from_expr(factor_cubes(list(form.cubes)))
    remover = RedundancyRemover(tree, form.n, form,
                                SynthesisOptions(**option_kwargs))
    return remover._enumeration_patterns()


@given(forms())
def test_union_patterns_contain_oc_and_az(form):
    patterns = enumeration_patterns(form)
    assert 0 in patterns
    for mask in form.cubes:
        assert mask in patterns


@given(forms())
def test_union_patterns_closed_under_union(form):
    patterns = set(enumeration_patterns(form))
    for a in patterns:
        for b in patterns:
            assert (a | b) in patterns


def test_limit_enforced():
    """Above the cube limit the 2^cubes unions are not enumerated."""
    form = FprmForm.from_masks(16, (1 << 16) - 1,
                               [1 << i for i in range(16)])
    assert enumeration_patterns(form, enumeration_cube_limit=8) == []
    small = FprmForm.from_masks(16, (1 << 16) - 1, [1 << i for i in range(8)])
    assert len(enumeration_patterns(small, enumeration_cube_limit=8)) == 256
