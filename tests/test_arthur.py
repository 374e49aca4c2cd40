"""Nilpotent orbit data, the two-member packet, the lift of classical
parameters, parity multiplicities, and the combined multiplicity ledger."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import arthur, roots

pos_ints = st.integers(min_value=1, max_value=40)
signs = st.sampled_from((1, -1))


class TestOrbits:
    def test_table(self):
        rows = [(r.name, r.dim, r.component_group) for r in arthur.orbit_table()]
        assert rows == [
            ("O_0", 0, "1"),
            ("O_l", 6, "1"),
            ("O_s", 8, "1"),
            ("O_sr", 10, "S3"),
            ("O_r", 12, "1"),
        ]

    def test_subregular_centralizer(self):
        rep = arthur.subregular_centralizer_report()
        assert rep["all_brackets_vanish"]
        assert rep["span_dimension"] == 4
        assert rep["matches_centralizer_dim"]
        assert all(rep["component_group_witnesses"].values())


class TestPacket:
    def test_members_at_weight_four(self):
        quotient, discrete = arthur.packet_psi_k(4)
        assert quotient.cohomology_degrees == frozenset({3, 5})
        assert discrete.cohomology_degrees == frozenset({4})
        assert quotient.harish_chandra_param == roots.RHO
        assert discrete.harish_chandra_param == roots.RHO

    def test_parameter_grows_with_weight(self):
        assert arthur.packet_psi_k(12)[0].harish_chandra_param == roots.Weight(11, 17)

    @pytest.mark.parametrize("k", [2, 3, 0, -4])
    def test_invalid_weights_rejected(self, k):
        with pytest.raises(ValueError):
            arthur.packet_psi_k(k)


class TestLift:
    def test_example(self):
        coweight, factor_weights = arthur.lift_inf_char(1, 1)
        assert coweight == (10, 6)
        assert factor_weights == (13, 9, 5)
        assert arthur.lift_inf_char(1, 2)[1][0] == 15

    @given(pos_ints, pos_ints)
    @settings(max_examples=40, deadline=None)
    def test_pairing_consistency(self, c1, c2):
        assert arthur.lift_pairing_consistent(c1, c2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            arthur.lift_inf_char(0, 1)


class TestParityMultiplicity:
    def test_worked_cases(self):
        assert arthur.multiplicity_sign({"inf": 1, "p": 1}, 1) == 1
        assert arthur.multiplicity_sign({"inf": -1}, -1) == 1
        assert arthur.multiplicity_sign({"inf": -1, "p": -1}, -1) == 0

    @given(st.dictionaries(st.sampled_from("uvwxyz"), signs, min_size=2, max_size=6), signs)
    @settings(max_examples=40, deadline=None)
    def test_double_flip_invariance(self, places, eps):
        keys = sorted(places)[:2]
        flipped = dict(places)
        for key in keys:
            flipped[key] = -flipped[key]
        assert arthur.multiplicity_sign(places, eps) == arthur.multiplicity_sign(flipped, eps)

    def test_invalid_signs_rejected(self):
        with pytest.raises(ValueError):
            arthur.multiplicity_sign({"inf": 2}, 1)


class TestMultiplicityLedger:
    def test_default_reduction(self):
        rep = arthur.multiplicity_ledger(12, 1)
        assert rep.reduced == {
            "m_cl(plain)": 1,
            "m_cusp(plain)": -1,
            "m_cusp(twisted)": 1,
            "m[P_long,ba](twisted)": -1,
        }
        assert rep.bound == ("m_cusp(plain)", 2)
        assert rep.orientation_divergence
        assert all(arthur.identity_checks().values())

    def test_adopted_orientation_flips_surviving_correction(self):
        rep = arthur.multiplicity_ledger(12, 1)
        assert rep.adopted["m[P_long,ba](twisted)"] == 1
        assert rep.surviving_corrections == (("m[P_long,ba](twisted)", -1),)

    def test_extra_rule_strengthens_bound(self):
        rep = arthur.multiplicity_ledger(
            12, 1, arthur.DEFAULT_RULES + ("correction_at_least_one",)
        )
        assert rep.bound == ("m_cusp(plain)", 3)

    def test_no_rules_passthrough(self):
        rep = arthur.multiplicity_ledger(12, 1, ())
        assert rep.reduced == rep.raw
        assert rep.bound is None
        assert len(rep.raw) == 17

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            arthur.multiplicity_ledger(8, 1)
        with pytest.raises(ValueError):
            arthur.multiplicity_ledger(12, Q(5, 2))

    @pytest.mark.parametrize("k, sp", [(5, Q(-1)), (4, Q(-1, 2))])
    def test_negative_slope_rejected(self, k, sp):
        with pytest.raises(ValueError, match="sp >= 0"):
            arthur.multiplicity_ledger(k, sp)

    def test_critical_set_behind_the_slope_bound(self):
        # The vanishing rules rest on the critical set {w_b} of the window
        # sp >= 0; below it the set is empty.
        assert roots.critical_set(roots.slope_weight(Q(-1)), roots.lambda0(5)) == []
        assert [w.name for w in roots.critical_set(roots.slope_weight(0), roots.lambda0(5))] == ["w_b"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            arthur.multiplicity_ledger(12, 1, ("no_such_rule",))

    def test_weight_flags_present(self):
        assert len(arthur.WEIGHT_FLAGS) == 2
        assert {f["id"] for f in arthur.WEIGHT_FLAGS} == {
            "long-levi-shift-plain",
            "long-levi-shift-twisted",
        }
