"""Anatomy of one update: losses, schedules, and the implicit fixed point.

The implicit update solves theta_n = theta_prev - gamma * grad(theta_n): the
new iterate appears inside its own gradient.  For linear-predictor losses the
whole p-dimensional equation collapses to one scalar root-find with a
guaranteed bracket; Newton's method inside it solves squared loss in one step
and logistic loss in about two, so an implicit step costs a handful of scalar
evaluations.
"""

import numpy as np

from aisgd import (
    ConstantRate,
    PolynomialRate,
    Sample,
    SquaredLoss,
    XuRate,
    explicit_step,
    implicit_step,
    init_state,
    loss_from_name,
    rate_at,
    solve_fixed_point,
)

print("== loss families ==")
for name in ("squared", "logistic", "poisson", "hinge:0.5"):
    loss = loss_from_name(name)
    y = 1.0
    u = 0.0
    print(
        f"{name:>9}: value(0, 1) = {loss.value(u, y):.6f}  "
        f"slope = {loss.deriv(u, y):+.6f}  curvature = {loss.second_deriv(u, y):.6f}"
    )

print("\n== learning-rate schedules (first five iterations) ==")
for sched in (ConstantRate(0.5), PolynomialRate(1.0, 2 / 3), XuRate(1.0)):
    rates = ", ".join(f"{rate_at(sched, n):.4f}" for n in range(1, 6))
    print(f"{sched.label():>14}: {rates}")

print("\n== one implicit step, piece by piece ==")
loss = SquaredLoss()
sample = Sample(np.array([1.0, 0.0]), 1.0)
res = solve_fixed_point(loss, sample, np.zeros(2), gamma_n=1.0)
print(f"incoming predictor u0 = {res.u0}, squared feature norm c = {res.c}")
print(f"scalar step u* = {res.u_star:.12f} (exact value 2/3)")
print(f"gradient scaling s_n = {res.s_n:.12f} (exact value 1/3)")
print(f"solved in {res.iterations} Newton step(s), residual {res.residual:.1e}")

state = init_state(np.zeros(2), "isgd")
imp = implicit_step(state, sample, 1.0, loss)
exp = explicit_step(state, sample, 1.0, loss)
print(f"\nimplicit iterate: {imp.theta}   (damped: lands between start and target)")
print(f"explicit iterate: {exp.theta}   (overshoots y = 1 at this rate)")
