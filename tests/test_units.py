"""Dimension algebra and quantity text forms."""

import pytest

from sexakit import units
from sexakit.errors import (
    DimensionMismatch,
    IrregularDivisor,
    MalformedLiteral,
    ZeroDivisor,
)
from sexakit.sexa import Sexa, render
from sexakit.units import (
    _DIV,
    _MUL,
    Dimension,
    KUS_PER_NINDAN,
    Quantity,
    parse_quantity,
    qdiv,
    qmul,
    sar_to_volume_sar,
)

N = Dimension.LENGTH_NINDAN
K = Dimension.LENGTH_KUS
A = Dimension.AREA_SAR
V = Dimension.VOLUME_SAR
X = Dimension.CROSS_SECTION
W = Dimension.WORKER_COUNT
ONE = Dimension.DIMENSIONLESS


class TestConversions:
    def test_nindan_to_kus(self):
        # obv.36: "Multiply 0;40 by 12 of the depth, you see 8"
        assert Sexa("0;40") * KUS_PER_NINDAN == 8
        assert Sexa(0) * KUS_PER_NINDAN == 0
        assert Sexa(1) * KUS_PER_NINDAN == 12

    def test_kus_round_trip(self):
        q = Quantity(Sexa("0;40"), N)
        kus = Quantity(q.magnitude * KUS_PER_NINDAN, K)
        assert kus == Quantity(8, K)
        assert Quantity(kus.magnitude / KUS_PER_NINDAN, N) == q
        assert KUS_PER_NINDAN == 12

    @pytest.mark.parametrize("count,unit,expected", [
        (6, "sar60", 21600),        # 6 shar = 6,0,0 volume-sar
        (1, "susi", 60),
        (0, "sar60", 0),
        (5, "volume-sar", 5),
    ])
    def test_large_volume_units(self, count, unit, expected):
        q = sar_to_volume_sar(count, unit)
        assert q == Quantity(expected, V)

    def test_unknown_volume_unit(self):
        with pytest.raises(MalformedLiteral) as err:
            sar_to_volume_sar(1, "bushels")
        assert str(err.value) == ("unknown volume unit 'bushels' "
                                  "(expected sar60, susi or volume-sar)")

    def test_unknown_volume_unit_names_every_spelling(self, monkeypatch):
        monkeypatch.setitem(units._VOLUME_ALIASES, "gur", Sexa(5))
        with pytest.raises(MalformedLiteral) as err:
            sar_to_volume_sar(1, "bushels")
        for spelling in units._VOLUME_ALIASES:
            assert spelling in str(err.value)


class TestQmul:
    def test_length_times_section_is_volume(self):
        got = qmul(Quantity(45, N), Quantity(32, X))
        assert got == Quantity(1440, V)
        assert render(got.magnitude) == "24,0"

    def test_breadth_times_depth_is_section(self):
        got = qmul(Quantity(Sexa("0;30"), N), Quantity(Sexa("4;30"), K))
        assert got == Quantity(Sexa("2;15"), X)

    def test_dimensionless_identity(self):
        q = Quantity(Sexa("7;45"), V)
        assert qmul(Quantity(1, ONE), q) == q
        assert qmul(q, Quantity(1, ONE)) == q

    def test_volume_composition(self):
        # 1 volume-sar = 1 nindan x 1 nindan x 1 kus, either association
        n, k = Quantity(1, N), Quantity(1, K)
        assert qmul(qmul(n, n), k) == Quantity(1, V)
        assert qmul(n, qmul(n, k)) == Quantity(1, V)

    def test_commutative(self):
        a, b = Quantity(3, N), Quantity(5, K)
        assert qmul(a, b) == qmul(b, a)

    @pytest.mark.parametrize("da,db", [
        (K, K), (V, V), (A, A), (W, N), (X, K), (V, N),
    ])
    def test_undefined_products(self, da, db):
        with pytest.raises(DimensionMismatch):
            qmul(Quantity(1, da), Quantity(1, db))


class TestQdiv:
    def test_volume_by_section_is_length(self):
        assert qdiv(Quantity(1440, V), Quantity(32, X)) == Quantity(45, N)

    def test_volume_by_workers_is_volume_each(self):
        got = qdiv(Quantity(4320, V), Quantity(2400, W))
        assert got == Quantity(Sexa("1;48"), V)

    def test_section_by_width_is_depth(self):
        got = qdiv(Quantity(Sexa("2;15"), X), Quantity(Sexa("0;30"), N))
        assert got == Quantity(Sexa("4;30"), K)

    def test_same_dimension_cancels(self):
        assert qdiv(Quantity(6, V), Quantity(3, V)) == Quantity(2, ONE)

    def test_scribal_contract(self):
        with pytest.raises(IrregularDivisor):
            qdiv(Quantity(1, V), Quantity(7, X))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            qdiv(Quantity(1, V), Quantity(0, X))

    def test_undefined_quotient(self):
        with pytest.raises(DimensionMismatch):
            qdiv(Quantity(1, N), Quantity(1, V))

    @pytest.mark.parametrize("dividend", list(Dimension))
    @pytest.mark.parametrize("divisor", list(Dimension))
    def test_quotient_table_matches_a_scan_of_products(self, dividend,
                                                       divisor):
        # The quotient is the dimension r with divisor x r = dividend,
        # found by scanning every dimension, as qdiv once did.
        scan = [r for r in Dimension if _MUL.get((divisor, r)) is dividend]
        assert len(scan) <= 1
        assert _DIV.get((dividend, divisor)) == (scan[0] if scan else None)
        if dividend is divisor:
            want = ONE
        elif divisor is ONE:
            want = dividend
        elif scan:
            want = scan[0]
        else:
            with pytest.raises(DimensionMismatch) as err:
                qdiv(Quantity(1, dividend), Quantity(1, divisor))
            assert str(err.value) == (f"no quotient defined for "
                                      f"{dividend.value} / {divisor.value}")
            return
        assert qdiv(Quantity(2, dividend), Quantity(4, divisor)) \
            == Quantity(Sexa("0;30"), want)


class TestQuantity:
    def test_add_same_dimension(self):
        assert Quantity(5, N) + Quantity(3, N) == Quantity(8, N)
        # No procedure subtracts quantities: Quantity defines no "-".
        assert not hasattr(Quantity, "__sub__")

    def test_mixed_addition_rejected(self):
        with pytest.raises(DimensionMismatch):
            Quantity(1, N) + Quantity(1, K)

    def test_scalar_scaling(self):
        assert Quantity(5, N) * Sexa(1, 2) == Quantity(Sexa("2;30"), N)
        assert 2 * Quantity(5, N) == Quantity(10, N)

    def test_a_quantity_needs_a_dimension(self):
        with pytest.raises(DimensionMismatch) as err:
            Quantity(1, "nindan")
        assert str(err.value) == "not a dimension: 'nindan'"

    def test_times_a_quantity_is_qmul(self):
        assert Quantity(5, N) * Quantity(8, K) \
            == qmul(Quantity(5, N), Quantity(8, K)) == Quantity(40, X)

    @pytest.mark.parametrize("product", [lambda q: q * 1.5,
                                         lambda q: 1.5 * q])
    def test_times_a_float_is_unsupported(self, product):
        # A quantity is never scaled inexactly: __mul__ returns
        # NotImplemented for a float, so Python raises TypeError.
        with pytest.raises(TypeError, match="unsupported operand"):
            product(Quantity(1, N))

    def test_text_form(self):
        assert str(Quantity(Sexa("2;15"), X)) == "2;15 nindan-kus"
        assert str(Quantity(1440, V)) == "24,0 volume-sar"
        assert str(Quantity(2, ONE)) == "2 1"

    @pytest.mark.parametrize("text,magnitude,dim", [
        ("0;30 nindan", Sexa(1, 2), N),
        ("8 kus", 8, K),
        ("32 nindan-kus", 32, X),
        ("24,0 volume-sar", 1440, V),
        ("6 sar60", 21600, V),
        ("1 susi", 60, V),
        ("40,0 workers", 2400, W),
        ("2 1", 2, ONE),
    ])
    def test_parse_quantity(self, text, magnitude, dim):
        assert parse_quantity(text) == Quantity(magnitude, dim)

    @pytest.mark.parametrize("bad", [
        "5", "5 cubits", "5 nindan extra", "61 nindan", "",
    ])
    def test_parse_quantity_rejects(self, bad):
        with pytest.raises(MalformedLiteral):
            parse_quantity(bad)

    def test_round_trip_text(self):
        for text in ("0;30 nindan", "32 nindan-kus", "24,0 volume-sar"):
            assert str(parse_quantity(text)) == text
