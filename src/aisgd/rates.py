"""Learning-rate schedules.

Iterations are 1-indexed: the first consumed sample uses the rate at n = 1,
so a polynomial schedule emits its leading constant ``gamma1`` on the first
step.  All schedules emit positive, non-increasing sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ConstantRate:
    """gamma_n = gamma for every n."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("constant rate must be positive and finite")

    def rate(self, n: int) -> float:
        return self.gamma

    def label(self) -> str:
        return f"const{self.gamma:g}"


@dataclass(frozen=True)
class PolynomialRate:
    """gamma_n = gamma1 * n**(-exponent), exponent in (0.5, 1]."""

    gamma1: float
    exponent: float

    def __post_init__(self):
        if not 0 < self.gamma1 < math.inf:
            raise ValueError("gamma1 must be positive and finite")
        if not 0.5 < self.exponent <= 1.0:
            raise ValueError("polynomial exponent must lie in (0.5, 1]")

    def rate(self, n: int) -> float:
        return self.gamma1 * n ** (-self.exponent)

    def label(self) -> str:
        return f"poly{self.gamma1:g}x{self.exponent:g}"


@dataclass(frozen=True)
class XuRate:
    """gamma_n = eta0 * (1 + eta0 * n)**(-3/4)."""

    eta0: float

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise ValueError("eta0 must be positive and finite")

    def rate(self, n: int) -> float:
        return self.eta0 * (1.0 + self.eta0 * n) ** -0.75

    def label(self) -> str:
        return f"xu{self.eta0:g}"


LearningRate = ConstantRate | PolynomialRate | XuRate


def rate_at(schedule: LearningRate, n: int) -> float:
    """Rate gamma_n for 1-indexed iteration n.  Rejects n < 1."""
    if n < 1:
        raise ValueError("iterations are 1-indexed; n must be >= 1")
    return schedule.rate(n)


KINDS = {
    "const": ConstantRate,
    "constant": ConstantRate,
    "poly": PolynomialRate,
    "polynomial": PolynomialRate,
    "xu": XuRate,
}


def param_names(kind: str) -> list[str]:
    """A kind's class fields: its ``kind:a:b`` spec parameters and ``schedule.*`` keys."""
    if kind.lower() not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; valid: {', '.join(KINDS)}")
    return [f.name for f in fields(KINDS[kind.lower()])]


def spec_params(spec: str) -> tuple[str, dict[str, str]]:
    """Split "const:G", "poly:G1:EXP" or "xu:ETA0" into its kind and parameter texts."""
    kind, *texts = spec.split(":")
    names = param_names(kind)
    if len(texts) != len(names):
        raise ValueError(f"malformed rate spec {spec!r}; expected const:G, poly:G1:EXP or xu:ETA0")
    return kind, dict(zip(names, texts))


def rate_from_spec(spec: str) -> LearningRate:
    """Parse a schedule string: "const:G", "poly:G1:EXP" or "xu:ETA0"."""
    kind, params = spec_params(spec)
    return KINDS[kind.lower()](*map(float, params.values()))
