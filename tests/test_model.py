"""Domain types, validation, transformations, and the instance file format."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from rapkit.model import (
    _DEN,
    _NUM,
    Assignment,
    InvalidInstanceError,
    RapInstance,
    SampledMatrix,
    ZeroPattern,
    checked_zero_free_row,
    insert_zero,
    instance,
    parse_instance,
    rational_approx,
    rational_from_json,
    rational_to_json,
    serialize_instance,
)

from rapkit.cli import load_schema
from rapkit.formulas import row_inclusion_probability
from rapkit.montecarlo import estimate_row_usage

from conftest import delete_column, instances, transpose_instance


def delete_row(p: RapInstance, row: int) -> RapInstance:
    """Transpose-conjugate of :func:`conftest.delete_column`."""
    if not (0 <= row < p.m):
        raise InvalidInstanceError(f"row index {row} out of range for m={p.m}")
    if p.k < 2 or p.k > min(p.m - 1, p.n):
        raise InvalidInstanceError(
            f"cannot delete a row unless 2 <= k <= min(m-1, n); k={p.k}, m={p.m}, n={p.n}"
        )
    zeros = [(r if r < row else r - 1, c) for r, c in p.zeros if r != row]
    return instance(p.m - 1, p.n, p.k - 1, zeros)


class TestParseInstance:
    def test_empty_zero_set(self):
        p = parse_instance('{"m":2,"n":2,"k":2,"zeros":[]}')
        assert (p.m, p.n, p.k, p.zeros) == (2, 2, 2, ())

    def test_single_zero(self):
        p = parse_instance('{"m":3,"n":3,"k":2,"zeros":[[0,0]]}')
        assert (p.m, p.n, p.k, p.zeros) == (3, 3, 2, ((0, 0),))

    def test_k_exceeds_min_dimension(self):
        with pytest.raises(InvalidInstanceError):
            parse_instance('{"m":2,"n":3,"k":3,"zeros":[]}')

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            '{"m":2,"n":2}',
            '{"m":2,"n":2,"k":true,"zeros":[]}',
            '{"m":2,"n":2,"k":1,"zeros":[[0]]}',
            '{"m":2,"n":2,"k":1,"zeros":[[0,5]]}',
            '{"m":2,"n":2,"k":1,"zeros":[[0,0],[0,0]]}',
            '{"m":0,"n":2,"k":1,"zeros":[]}',
            '{"m":2,"n":2,"k":0,"zeros":[]}',
            '{"m":3,"n":3,"k":2,"zeroes":[[0,0]]}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(InvalidInstanceError):
            parse_instance(text)

    @given(instances())
    def test_round_trip(self, p):
        assert parse_instance(serialize_instance(p)) == p

    def test_serialized_zeros_sorted(self):
        p = instance(3, 3, 2, [(2, 1), (0, 2), (0, 0)])
        doc = json.loads(serialize_instance(p))
        assert doc["zeros"] == [[0, 0], [0, 2], [2, 1]]


class TestTranspose:
    def test_coordinate_swap(self):
        p = transpose_instance(instance(2, 3, 2, [(0, 2)]))
        assert (p.m, p.n, p.k, p.zeros) == (3, 2, 2, ((2, 0),))

    @given(instances())
    def test_involution(self, p):
        assert transpose_instance(transpose_instance(p)) == p

    def test_square_no_zero_fixed_point(self):
        p = instance(3, 3, 2)
        assert transpose_instance(p) == p

    @given(instances())
    def test_preserves_zero_count_and_k(self, p):
        q = transpose_instance(p)
        assert len(q.zeros) == len(p.zeros) and q.k == p.k


class TestDeleteColumn:
    def test_all_zeros_in_deleted_column(self):
        p = delete_column(instance(3, 3, 2, [(0, 0), (1, 0)]), 0)
        assert (p.m, p.n, p.k, p.zeros) == (3, 2, 1, ())

    def test_reindexing(self):
        p = delete_column(instance(2, 3, 2, [(0, 2)]), 1)
        assert (p.m, p.n, p.k, p.zeros) == (2, 2, 1, ((0, 1),))

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInstanceError):
            delete_column(instance(2, 2, 2), 0)
        with pytest.raises(InvalidInstanceError):
            delete_column(instance(3, 3, 3), 0)
        with pytest.raises(InvalidInstanceError):
            delete_column(instance(3, 3, 1), 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInstanceError):
            delete_column(instance(3, 3, 2), 3)

    def test_zero_count_drops_by_column_occupancy(self):
        p = instance(3, 4, 3, [(0, 1), (1, 1), (2, 3), (0, 0)])
        q = delete_column(p, 1)
        assert len(q.zeros) == len(p.zeros) - 2

    def test_delete_row_is_transpose_conjugate(self):
        p = instance(3, 4, 2, [(0, 1), (1, 1), (2, 3)])
        direct = delete_row(p, 1)
        conjugated = transpose_instance(delete_column(transpose_instance(p), 1))
        assert direct == conjugated


class TestInsertZero:
    def test_basic(self):
        assert insert_zero(instance(2, 2, 2), (0, 0)).zeros == ((0, 0),)

    def test_existing_zero_rejected(self):
        with pytest.raises(InvalidInstanceError):
            insert_zero(instance(2, 2, 2, [(0, 0)]), (0, 0))

    def test_accumulates(self):
        p = insert_zero(instance(3, 3, 2, [(0, 0)]), (1, 1))
        assert p.zeros == ((0, 0), (1, 1))

    @pytest.mark.parametrize("pos", [5, (1, 1, 1), (1,), None], ids=["int", "triple", "single", "none"])
    def test_position_must_be_a_pair(self, pos):
        with pytest.raises(InvalidInstanceError, match="must be a pair of integers"):
            insert_zero(instance(3, 3, 2), pos)

    @pytest.mark.parametrize("pos", [(True, 1), (1, 1.0), (1, "1")])
    def test_coordinates_must_be_integers(self, pos):
        with pytest.raises(InvalidInstanceError, match="position coordinate must be an integer"):
            insert_zero(instance(3, 3, 2), pos)

    def test_out_of_range_stays_an_instance_error(self):
        with pytest.raises(InvalidInstanceError, match="outside 3x3 grid"):
            insert_zero(instance(3, 3, 2), (3, 0))

    def test_numpy_coordinates_accepted(self):
        p = insert_zero(instance(3, 3, 2), (np.int64(1), np.int64(2)))
        assert p.zeros == ((1, 2),) and all(type(x) is int for x in p.zeros[0])


class TestValidation:
    def test_zero_pattern_bounds(self):
        with pytest.raises(InvalidInstanceError):
            ZeroPattern(2, 2, ((2, 0),))

    def test_assignment_independence(self):
        with pytest.raises(InvalidInstanceError):
            Assignment(((0, 0), (0, 1)))
        with pytest.raises(InvalidInstanceError):
            Assignment(((0, 0), (1, 0)))

    def test_assignment_positions_canonical(self):
        a = Assignment(((1, 1), (0, 0)))
        assert a.positions == ((0, 0), (1, 1)) and len(a) == 2 and (1, 1) in a

    def test_sampled_matrix_contract(self):
        z = ZeroPattern(2, 2, ((0, 0),))
        SampledMatrix(2, 2, ((0.0, 1.0), (2.0, 3.0)), z)
        with pytest.raises(InvalidInstanceError):
            SampledMatrix(2, 2, ((0.5, 1.0), (2.0, 3.0)), z)  # nonzero at zero position
        with pytest.raises(InvalidInstanceError):
            SampledMatrix(2, 2, ((0.0, 0.0), (2.0, 3.0)), z)  # zero off the pattern
        with pytest.raises(InvalidInstanceError):
            SampledMatrix(2, 2, ((0.0, 1.0),), z)  # wrong shape

    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), np.float32("inf"), np.float16("nan")]
    )
    def test_sampled_matrix_refuses_non_finite_entries(self, value):
        source = instance(1, 2, 1).pattern
        with pytest.raises(InvalidInstanceError, match="must be finite"):
            SampledMatrix(1, 2, ((value, 1.0),), source=source)


class TestIntegerArguments:
    """Coordinates, dimensions and k are integers: anything else is refused,
    never truncated; an integer type such as numpy.int64 is accepted."""

    @pytest.mark.parametrize(
        "value, accepted",
        [(0.9, False), (2.0, False), (True, False), ("1", False), (np.int64(1), True)],
        ids=["float", "integral-float", "bool", "str", "numpy-int64"],
    )
    def test_value(self, value, accepted):
        builds = {
            "row": lambda: instance(3, 3, 2, [(value, 0)]).zeros[0],
            "column": lambda: instance(3, 3, 2, [(0, value)]).zeros[0],
            "assignment": lambda: Assignment(((value, 0),)).positions[0],
            "m": lambda: (instance(value, 3, 1).m,),
            "n": lambda: (instance(3, value, 1).n,),
            "k": lambda: (instance(3, 3, value).k,),
        }
        for build in builds.values():
            if accepted:
                stored = build()
                assert 1 in stored and all(type(x) is int for x in stored)
            else:
                with pytest.raises(InvalidInstanceError, match="integer"):
                    build()

    @pytest.mark.parametrize(
        "text",
        [
            '{"m":2.5,"n":2,"k":1}',
            '{"m":null,"n":2,"k":1}',
            '{"m":2,"n":"2","k":1}',
            '{"m":2,"n":2,"k":1.0}',
            '{"m":2,"n":2,"k":1,"zeros":null}',
            '{"m":2,"n":2,"k":1,"zeros":[[0,1,1]]}',
            '{"m":2,"n":2,"k":1,"zeros":[[0,true]]}',
            '{"m":2,"n":2,"k":1,"zeros":[[0,1.0]]}',
            '{"m":2,"n":2,"k":1,"zeros":["01"]}',
            '{"m":2,"n":2,"k":1,"zeros":[{"r":0,"c":1}]}',
            '{"m":2,"n":2,"k":1,"zeros":[null]}',
        ],
    )
    def test_document_values_follow_the_same_rule(self, text):
        """parse_instance leaves value checks to instance(): a malformed
        document still raises InvalidInstanceError, never a TypeError."""
        with pytest.raises(InvalidInstanceError, match="integer|list"):
            parse_instance(text)

    @pytest.mark.parametrize("pos", [(0, 1, 2), (0,), 5], ids=["triple", "single", "int"])
    def test_position_must_be_a_pair(self, pos):
        with pytest.raises(InvalidInstanceError, match="pair of integers"):
            instance(3, 3, 2, [pos])
        with pytest.raises(InvalidInstanceError, match="pair of integers"):
            Assignment((pos,))


class TestZeroFreeRow:
    """One rule refuses a row holding a zero, for the row formula and its estimate alike."""

    P = instance(3, 3, 2, [(0, 0), (0, 2)])

    def test_zero_free_row_is_returned_as_int(self):
        assert checked_zero_free_row(self.P, np.int64(1)) == 1
        assert type(checked_zero_free_row(self.P, np.int64(1))) is int

    def test_row_checks_come_first(self):
        with pytest.raises(IndexError):
            checked_zero_free_row(self.P, 3)
        with pytest.raises(InvalidInstanceError, match="row must be an integer"):
            checked_zero_free_row(self.P, 0.0)

    def test_formula_and_estimate_give_one_message(self):
        message = "row 0 contains a zero; its usage varies across optima"
        for call in (
            lambda: checked_zero_free_row(self.P, 0),
            lambda: row_inclusion_probability(self.P, 0),
            lambda: estimate_row_usage(self.P, 0, samples=10, seed=1),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message


class TestRationalWireFormat:
    def test_shape_and_digits(self):
        doc = rational_to_json(Fraction(49, 36))
        assert doc == {"num": "49", "den": "36", "approx": "1.36111111111"}

    def test_round_trip(self):
        value = Fraction(-7, 12)
        assert rational_from_json(rational_to_json(value)) == value

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInstanceError):
            rational_from_json({"num": "1"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"num": 1.5, "den": "1"},
            {"num": "1", "den": 2.0},
            {"num": True, "den": "1"},
            {"num": 1, "den": 1},
            {"num": None, "den": "1"},
            {"num": "1.5", "den": "1"},
            {"num": "1", "den": "0"},
            {"num": "0", "den": "0"},
            {"num": "1", "den": "-4"},
            {"num": " 7", "den": "1"},
            {"num": "+5", "den": "1"},
            {"num": "1_0", "den": "1"},
            {"num": "\u0663", "den": "1"},
            {"num": "4\n", "den": "1"},
            {"num": "1", "den": "4\n"},
            {"num": "1", "den": "+4"},
            ["1", "2"],
            None,
        ],
    )
    def test_num_and_den_must_be_integer_strings_with_nonzero_den(self, doc):
        """The wire writes both as decimal strings: nothing is truncated, and
        a zero denominator is a malformed object, not a ZeroDivisionError."""
        with pytest.raises(InvalidInstanceError, match="malformed rational object"):
            rational_from_json(doc)

    def test_patterns_are_the_schemas(self):
        rational = load_schema("value")["$defs"]["rational"]["properties"]
        assert _NUM.pattern == rational["num"]["pattern"]
        assert _DEN.pattern == rational["den"]["pattern"]

    def test_negative_and_unreduced_strings_read_exactly(self):
        assert rational_from_json({"num": "-6", "den": "4"}) == Fraction(-3, 2)

    def test_approx_significant_digits(self):
        assert rational_approx(Fraction(1, 3)) == "0.333333333333"

    @pytest.mark.parametrize("digits", [640, 4300, 4301, 14000])
    def test_round_trip_past_the_interpreter_digit_limit(self, digits):
        """str(int) and int(str) refuse more than 4300 digits by default;
        the wire converts any length and leaves that limit as it was."""
        limit = sys.get_int_max_str_digits()
        value = Fraction(-(10 ** (digits - 1) + 1), 2 ** (4 * digits))  # odd over a power of two: reduced
        doc = rational_to_json(value)
        assert doc["num"] == "-1" + "0" * (digits - 2) + "1"
        assert len(doc["den"]) > digits
        assert rational_from_json(doc) == value
        assert sys.get_int_max_str_digits() == limit

    def test_long_strings_are_read(self):
        assert rational_from_json({"num": "1" * 4400, "den": "3"}) == Fraction((10**4400 - 1) // 9, 3)
        assert rational_from_json({"num": "-" + "9" * 5000, "den": "1" + "0" * 5000}) == Fraction(1 - 10**5000, 10**5000)
