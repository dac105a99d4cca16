import math
from dataclasses import fields

import numpy as np
import pytest

from aisgd import ConstantRate, PolynomialRate, XuRate, rate_at, rate_from_spec
from aisgd.rates import KINDS


class TestRateValues:
    def test_constant(self):
        assert rate_at(ConstantRate(0.5), 7) == 0.5

    def test_polynomial_one_over_n(self):
        assert rate_at(PolynomialRate(1.0, 1.0), 4) == pytest.approx(0.25, abs=0)

    def test_xu_first_iteration(self):
        # eta0 * (1 + eta0)^(-3/4) at eta0 = 1, n = 1 is 2^(-3/4)
        assert rate_at(XuRate(1.0), 1) == pytest.approx(0.5946035575013605, rel=1e-12)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            rate_at(ConstantRate(1.0), 0)


class TestScheduleInvariants:
    # grid reaching 10**6 with dense low end
    GRID = np.unique(
        np.concatenate([np.arange(1, 2000), np.logspace(0, 6, 500).astype(int)])
    )

    @pytest.mark.parametrize(
        "schedule",
        [
            ConstantRate(0.25),
            PolynomialRate(2.0, 0.51),
            PolynomialRate(1.0, 2 / 3),
            PolynomialRate(0.3, 1.0),
            XuRate(0.05),
            XuRate(4.0),
        ],
        ids=lambda s: s.label(),
    )
    def test_positive_and_non_increasing(self, schedule):
        rates = np.array([rate_at(schedule, int(n)) for n in self.GRID])
        assert np.all(rates > 0)
        assert np.all(np.diff(rates) <= 0)

    def test_polynomial_identity(self):
        g1, exp = 1.7, 0.75
        sched = PolynomialRate(g1, exp)
        for n in self.GRID:
            assert rate_at(sched, int(n)) * n**exp == pytest.approx(g1, rel=1e-12)


class TestValidation:
    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)

    @pytest.mark.parametrize("exp", [0.5, 0.4, 1.01, 2.0])
    def test_polynomial_exponent_range(self, exp):
        with pytest.raises(ValueError):
            PolynomialRate(1.0, exp)

    def test_xu_positive(self):
        with pytest.raises(ValueError):
            XuRate(-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "make", [ConstantRate, lambda v: PolynomialRate(v, 0.75), XuRate],
        ids=["const", "poly", "xu"],
    )
    def test_rate_must_be_finite(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)


class TestSpecParsing:
    def test_round_trip_kinds(self):
        assert rate_from_spec("const:0.5") == ConstantRate(0.5)
        assert rate_from_spec("poly:2:0.75") == PolynomialRate(2.0, 0.75)
        assert rate_from_spec("xu:0.1") == XuRate(0.1)

    @pytest.mark.parametrize("bad", ["", "const", "poly:1", "nope:1", "xu:a"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            rate_from_spec(bad)

    @pytest.mark.parametrize("spec", ["const:inf", "poly:inf:0.75", "xu:inf", "xu:nan"])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            rate_from_spec(spec)

    @pytest.mark.parametrize("bad", ["const:0.1:2", "xu:auto", "poly:1:x"])
    def test_wrong_arity_or_non_number(self, bad):
        with pytest.raises(ValueError):
            rate_from_spec(bad)

    def test_every_kind_name_parses_to_its_class(self):
        for kind, cls in KINDS.items():
            spec = ":".join([kind] + ["0.75"] * len(fields(cls)))
            assert type(rate_from_spec(spec)) is cls
            assert type(rate_from_spec(spec.upper())) is cls
