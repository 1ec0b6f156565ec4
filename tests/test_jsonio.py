import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcara.errors import InputError
from hcara.hconvex import NormalSet, PointSet
from hcara.jsonio import (
    dump_canonical,
    rational_from_json,
    rational_to_json,
    vector_from_json,
    vector_to_json,
)
from hcara.strong import Polytope
from hcara.shapes import cube_polytope, pyramid_polytope


class TestRationalParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", F(3)),
            ("3/1", F(3)),
            ("-7/2", F(-7, 2)),
            ("+2/4", F(1, 2)),
            ("10/-4", F(-5, 2)),
            ("  5/3 ", F(5, 3)),
        ],
    )
    def test_accepted(self, text, expected):
        assert rational_from_json(text) == expected

    def test_bare_int(self):
        assert rational_from_json(7) == F(7)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/0", "a/b", "1/2/3", None, True])
    def test_rejected(self, bad):
        with pytest.raises(InputError):
            rational_from_json(bad)

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000])
    def test_over_long_integer_is_input_error(self, text):
        # int() refuses strings of more than 4300 digits with a ValueError
        with pytest.raises(InputError, match="cannot parse rational"):
            rational_from_json(text)

    def test_float_rejected_with_hint(self):
        with pytest.raises(InputError, match="fraction"):
            rational_from_json(0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions())
    def test_round_trip_is_lossless(self, q):
        assert rational_from_json(rational_to_json(q)) == q


class TestVectorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(), min_size=1, max_size=5))
    def test_round_trip(self, coords):
        v = tuple(coords)
        assert vector_from_json(vector_to_json(v)) == v

    def test_dim_checked(self):
        with pytest.raises(InputError):
            vector_from_json(["1", "2"], dim=3)


class TestSchemaRoundTrips:
    def test_normal_set(self):
        H = NormalSet(2, ((F(1), F(0)), (F(0), F(-1))))
        assert NormalSet.from_json(json.loads(dump_canonical(H.to_json()))) == H

    def test_point_set(self):
        X = PointSet(3, ((F(0), F(1, 2), F(-3)),))
        assert PointSet.from_json(json.loads(dump_canonical(X.to_json()))) == X

    @pytest.mark.parametrize("K", [cube_polytope(2), pyramid_polytope(4)])
    def test_polytope(self, K):
        assert Polytope.from_json(json.loads(dump_canonical(K.to_json()))) == K

    def test_missing_keys(self):
        with pytest.raises(InputError):
            NormalSet.from_json({"dim": 2})

    def test_canonical_dump_is_stable(self):
        doc = {"b": [1, 2], "a": {"y": "1/2", "x": "3"}}
        assert dump_canonical(doc) == dump_canonical(json.loads(dump_canonical(doc)))
