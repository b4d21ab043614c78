"""Canal geometry: cross-sections, volumes, constraints, labor depth."""

import random
from fractions import Fraction

import pytest

from sexakit.errors import (
    DimensionMismatch,
    InconsistentConstraint,
    IrregularDivisor,
    NonPositiveDimension,
)
from sexakit.geometry import (
    SMALL_CANAL_CONSTANT,
    CanalConstant,
    breadths_from_constraints,
    depth_from_labor,
    length_from_volume,
    prism_volume,
    trapezoid_cross_section,
)
from sexakit.sexa import Sexa, render
from sexakit.units import Dimension, Quantity, qmul, sar_to_volume_sar

N = Dimension.LENGTH_NINDAN
K = Dimension.LENGTH_KUS
V = Dimension.VOLUME_SAR
X = Dimension.CROSS_SECTION
W = Dimension.WORKER_COUNT


def nindan(x):
    return Quantity(Sexa(x), N)


def kus(x):
    return Quantity(Sexa(x), K)


class TestCrossSection:
    def test_smt24_section(self):
        # obv.37-39: (5+3)/2 = 4, times depth 8, gives 32
        assert trapezoid_cross_section(nindan(5), nindan(3), kus(8)) \
            == Quantity(32, X)

    def test_rectangle_degenerate(self):
        assert trapezoid_cross_section(nindan(1), nindan(1), kus(2)) \
            == Quantity(2, X)

    def test_hand_evaluated(self):
        # (2+1)/2 * 3 = 9/2
        expected = Fraction(1, 2) * 3 * (2 + 1)
        got = trapezoid_cross_section(nindan(2), nindan(1), kus(3))
        assert got.magnitude == expected
        assert render(got.magnitude) == "4;30"

    def test_positivity(self):
        with pytest.raises(NonPositiveDimension):
            trapezoid_cross_section(nindan(0), nindan(1), kus(1))
        with pytest.raises(NonPositiveDimension):
            trapezoid_cross_section(nindan(1), nindan(1), kus(-2))

    def test_dimensions_checked(self):
        with pytest.raises(DimensionMismatch):
            trapezoid_cross_section(nindan(5), nindan(3), nindan(8))


class TestVolume:
    def test_smt24_volume(self):
        got = prism_volume(Quantity(32, X), nindan(45))
        assert got == Quantity(1440, V)
        assert render(got.magnitude) == "24,0"

    def test_unit_cube(self):
        assert prism_volume(Quantity(1, X), nindan(1)) == Quantity(1, V)

    def test_hand_multiplication(self):
        got = prism_volume(Quantity(Sexa("2;15"), X), nindan(5))
        assert got.magnitude == Fraction(9, 4) * 5
        assert render(got.magnitude) == "11;15"

    def test_expansion_identity(self):
        # x * S = x*z*(u+v)/2 exactly, for random positive inputs
        rng = random.Random(24)
        for _ in range(200):
            u = Fraction(rng.randint(1, 120), rng.randint(1, 12))
            v = Fraction(rng.randint(1, 120), rng.randint(1, 12))
            z = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            x = Fraction(rng.randint(1, 240), rng.randint(1, 12))
            section = trapezoid_cross_section(
                nindan(Sexa(u)), nindan(Sexa(v)), kus(Sexa(z)))
            volume = prism_volume(section, nindan(Sexa(x)))
            assert volume.magnitude == x * z * (u + v) / 2
            assert volume.dim is V


class TestReservedWater:
    def test_four_fifths_of_full_volume(self):
        got = Quantity(1440, V) * SMALL_CANAL_CONSTANT.ratio
        assert got.magnitude == Fraction(4, 5) * 1440 == 1152
        assert got.dim is V
        assert render(got.magnitude) == "19,12"

    def test_zero_volume(self):
        assert (Quantity(0, V) * SMALL_CANAL_CONSTANT.ratio).magnitude == 0

    def test_small_case(self):
        got = Quantity(5, V) * SMALL_CANAL_CONSTANT.ratio
        assert got.magnitude == Fraction(4, 5) * 5 == 4

    def test_constant_invariants(self):
        assert SMALL_CANAL_CONSTANT.ratio == Sexa("0;48") == Fraction(4, 5)
        with pytest.raises(InconsistentConstraint):
            CanalConstant(0)
        with pytest.raises(InconsistentConstraint):
            CanalConstant(Sexa(6, 5))
        # brim-full is the allowed degenerate case
        assert CanalConstant(1).ratio == 1


class TestBreadthConstraints:
    @pytest.mark.parametrize("u,v,z", [
        (5, 3, 8),    # obv.33-36
        (1, 1, 6),    # boundary u = v
        (7, 4, 9),    # hand evaluation
    ])
    def test_examples(self, u, v, z):
        assert breadths_from_constraints(u) == (v, z)

    def test_hand_oracle(self):
        u = Fraction(7)
        v = u / 2 + Fraction(1, 2)
        z = 12 * (Fraction(1, 2) + (u - v) / 12)
        assert breadths_from_constraints(Sexa(7)) == (v, z)

    def test_inconsistent_when_upper_too_small(self):
        with pytest.raises(InconsistentConstraint, match=(
                "^upper breadth 0;30 is smaller than the derived lower "
                "breadth 0;45$")):
            breadths_from_constraints(Sexa("0;30"))

    def test_custom_constants(self):
        v, z = breadths_from_constraints(6, excess=1, excess_share=Sexa(1, 6))
        assert v == 4 and z == 12 * (1 + Fraction(2, 6))


class TestLengthFromVolume:
    def test_smt24_length(self):
        got = length_from_volume(Quantity(1440, V), Quantity(32, X))
        assert got == nindan(45)

    def test_equal_gives_one(self):
        assert length_from_volume(Quantity(32, V), Quantity(32, X)) \
            == nindan(1)

    def test_inverts_prism_volume(self):
        got = length_from_volume(Quantity(Sexa("11;15"), V),
                                 Quantity(Sexa("2;15"), X))
        assert got == nindan(5)

    def test_irregular_section_rejected(self):
        with pytest.raises(IrregularDivisor):
            length_from_volume(Quantity(14, V), Quantity(7, X))

    def test_randomized_inversion(self):
        rng = random.Random(45)
        for _ in range(200):
            section = Quantity(
                Sexa(2) ** rng.randint(-3, 5) * Sexa(3) ** rng.randint(0, 3)
                * Sexa(5) ** rng.randint(0, 3), X)
            length = nindan(Sexa(rng.randint(1, 900), rng.randint(1, 30)))
            volume = prism_volume(section, length)
            assert length_from_volume(volume, section) == length


class TestDepthFromLabor:
    def test_smt25_chain(self):
        depth, water_depth, trace = depth_from_labor(
            sar_to_volume_sar(6, "sar60"), 5,
            Quantity(Sexa("40,0"), W), nindan("0;30"))
        assert depth == kus("4;30")
        assert water_depth == kus("3;36")
        assert [render(s.magnitude()) for s in trace] == [
            "0;12",       # rev.27
            "1,12,0",     # rev.28
            "0;0,1,30",   # rev.29
            "1;48",       # rev.30
            "1;15",       # rev.32
            "2;15",       # rev.33
            "2",          # rev.33
            "4;30",       # rev.34
            "3;36",
        ]

    def test_unit_case(self):
        depth, water_depth, _ = depth_from_labor(
            Quantity(1, V), 1, Quantity(1, W), nindan(1), CanalConstant(1))
        assert depth == kus(1) and water_depth == kus(1)

    def test_linear_in_total_water(self):
        # oracle: the whole chain is one exact rational product
        total = Fraction(7200)
        expected = total / 5 / 2400 / Fraction(4, 5) / Fraction(1, 2)
        depth, _, _ = depth_from_labor(
            sar_to_volume_sar(2, "sar60"), 5,
            Quantity(Sexa("40,0"), W), nindan("0;30"))
        assert depth.magnitude == expected == Fraction(3, 2)
        assert render(depth.magnitude) == "1;30"

    def test_water_ratio_invariants(self):
        depth, water_depth, _ = depth_from_labor(
            sar_to_volume_sar(6, "sar60"), 5,
            Quantity(Sexa("40,0"), W), nindan("0;30"))
        ratio = SMALL_CANAL_CONSTANT.ratio
        assert water_depth.magnitude / depth.magnitude == ratio
        # V'/V = S'/S = the constant, for a 1-nindan slice of the canal
        section = qmul(nindan("0;30"), depth)
        submerged = Quantity(section.magnitude * ratio, section.dim)
        assert submerged.magnitude / section.magnitude == ratio
        volume = prism_volume(section, nindan(1))
        reserved = volume * ratio
        assert reserved.magnitude / volume.magnitude == ratio

    def test_irregular_divisors_rejected(self):
        with pytest.raises(IrregularDivisor):
            depth_from_labor(Quantity(1, V), 7, Quantity(1, W), nindan(1))
        with pytest.raises(IrregularDivisor):
            depth_from_labor(Quantity(1, V), 1, Quantity(7, W), nindan(1))
        with pytest.raises(IrregularDivisor):
            depth_from_labor(Quantity(1, V), 1, Quantity(1, W), nindan(7))

    def test_positivity_and_dimensions(self):
        with pytest.raises(NonPositiveDimension):
            depth_from_labor(Quantity(0, V), 1, Quantity(1, W), nindan(1))
        with pytest.raises(NonPositiveDimension):
            depth_from_labor(Quantity(1, V), 0, Quantity(1, W), nindan(1))
        with pytest.raises(DimensionMismatch):
            depth_from_labor(Quantity(1, Dimension.AREA_SAR), 1,
                             Quantity(1, W), nindan(1))


class TestCanalTypes:
    """The trapezoidal canal of SMT No. 24 and the rectangular one of
    SMT No. 25, swept from their cross-sections."""

    def test_trapezoid_canal(self):
        section = trapezoid_cross_section(nindan(5), nindan(3), kus(8))
        assert section == Quantity(32, X)
        assert prism_volume(section, nindan(45)) == Quantity(1440, V)

    def test_rect_canal(self):
        section = qmul(nindan("0;30"), kus("4;30"))
        assert section == Quantity(Sexa("2;15"), X)
        assert prism_volume(section, nindan(1)) == Quantity(Sexa("2;15"), V)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDimension):
            prism_volume(Quantity(1, X), nindan(0))
        with pytest.raises(NonPositiveDimension):
            prism_volume(Quantity(-1, X), nindan(1))
        with pytest.raises(DimensionMismatch):
            prism_volume(Quantity(1, X), kus(1))


class TestFullVerificationChain:
    def test_smt24_lines_37_to_40(self):
        # from u = 5 all the way to the length 45, solver-free
        v, z = breadths_from_constraints(5)
        assert (v, z) == (3, 8)
        section = trapezoid_cross_section(nindan(5), nindan(Sexa(v)),
                                          kus(Sexa(z)))
        assert section == Quantity(32, X)
        length = length_from_volume(Quantity(1440, V), section)
        assert length == nindan(45)
