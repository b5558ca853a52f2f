import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cursor._util import derive_rng, derive_rngs, derive_seed, derive_seeds, seed_sequence


def test_derive_seed_deterministic():
    assert derive_seed(7, "tag", 3) == derive_seed(7, "tag", 3)


def test_derive_seed_sensitive_to_parts():
    base = derive_seed(7, "tag", 3)
    assert derive_seed(8, "tag", 3) != base
    assert derive_seed(7, "other", 3) != base
    assert derive_seed(7, "tag", 4) != base


def test_derive_seed_order_matters():
    assert derive_seed(1, 2) != derive_seed(2, 1)


def test_derive_seed_nonnegative_63bit():
    for parts in [(0,), (123, "x"), (-5, "neg"), ("only-strings",)]:
        s = derive_seed(*parts)
        assert 0 <= s < 2**63


def test_negative_ints_are_valid_and_distinct():
    assert derive_seed(-1, "t") != derive_seed(1, "t")


def test_rejects_unsupported_part_types():
    with pytest.raises(TypeError):
        derive_seed(1.5, "t")
    with pytest.raises(ValueError):
        seed_sequence()


def test_derive_rng_reproducible_stream():
    a = derive_rng(11, "stream").standard_normal(8)
    b = derive_rng(11, "stream").standard_normal(8)
    c = derive_rng(12, "stream").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_and_int_parts_do_not_collide():
    # "1" and 1 must hash differently
    assert derive_seed("1") != derive_seed(1)


# A column value takes one SeedSequence word below 2**32 and two from 2**32 up;
# a negative one in an int64 column is folded by +2**64, as a scalar is.
COLUMN_VALUE = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))
SIGNED_VALUE = st.one_of(st.just(0), st.integers(-(2**63), 2**63 - 1))
# Scalar parts as derive_seed takes them: tags, and ints of any size and sign.
SCALAR_PART = st.one_of(st.text(max_size=6), st.just(0), st.integers(-(2**63), 2**64 - 1),
                        st.integers(2**64, 2**96))


@st.composite
def seed_parts(draw):
    rows = draw(st.integers(1, 6))
    column = st.one_of(
        st.lists(COLUMN_VALUE, min_size=rows, max_size=rows).map(
            lambda values: np.array(values, dtype=np.uint64)),
        st.lists(SIGNED_VALUE, min_size=rows, max_size=rows).map(
            lambda values: np.array(values, dtype=np.int64)))
    parts = draw(st.lists(st.one_of(column, SCALAR_PART), min_size=1, max_size=7))
    return rows, [*parts, draw(column)] if draw(st.booleans()) else [draw(column), *parts]


@given(seed_parts())
def test_array_form_equals_seed_sequence(rows_and_parts):
    rows, parts = rows_and_parts
    row_parts = [[p[i] if isinstance(p, np.ndarray) else p for p in parts] for i in range(rows)]
    assert derive_seeds(*parts).tolist() == [derive_seed(*row) for row in row_parts]
    for rng, row in zip(derive_rngs(*parts), row_parts, strict=True):
        expected = derive_rng(*row)
        assert np.array_equal(rng.bit_generator.random_raw(4), expected.bit_generator.random_raw(4))
        assert np.array_equal(rng.standard_normal(3), expected.standard_normal(3))


def test_array_form_refuses_what_it_cannot_lay_out():
    with pytest.raises(ValueError):
        derive_seeds(7, "no-column")
    with pytest.raises(ValueError):
        derive_seeds(np.arange(3), np.arange(4))
    with pytest.raises(TypeError):
        derive_seeds(np.linspace(0, 1, 3))
    with pytest.raises(TypeError):
        derive_seeds(np.arange(3), 1.5)
    # as SeedSequence refuses it: folding by +2**64 leaves it negative
    with pytest.raises(ValueError):
        derive_seed(-(2**65))
    with pytest.raises(ValueError):
        derive_seeds(-(2**65), np.arange(3))
